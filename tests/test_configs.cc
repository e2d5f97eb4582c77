/**
 * @file
 * Tests that every Table IV configuration maps to the right simulator
 * parameters and energy-model device assignments, and pins the energy
 * every configuration's model gives.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/report.hh"
#include "common/serialize.hh"
#include "core/configs.hh"
#include "core/experiment.hh"
#include "workload/cpu_profiles.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::core;
using power::CpuUnit;
using power::DeviceClass;
using power::GpuUnit;

namespace
{

DeviceClass
cpuDev(const CpuConfigBundle &b, CpuUnit u)
{
    return b.units[static_cast<int>(u)].dev;
}

DeviceClass
gpuDev(const GpuConfigBundle &b, GpuUnit u)
{
    return b.units[static_cast<int>(u)].dev;
}

/** One configuration's pinned results: cycles, ops, and the FNV-1a
 *  digest of unitEnergyBits(). */
struct EnergyPin
{
    uint64_t cycles;
    uint64_t ops;
    uint64_t unitDigest;
};

/** Each report unit's name, then the bit pattern and value of its
 *  dynamic and leakage energy, one line per unit in report order. */
std::string
unitEnergyBits(const obs::RunReport &rep)
{
    std::string out;
    for (const obs::UnitEnergy &u : rep.units) {
        uint64_t dyn = 0, leak = 0;
        std::memcpy(&dyn, &u.dynamicJ, sizeof(dyn));
        std::memcpy(&leak, &u.leakageJ, sizeof(leak));
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s dyn=%016llx (%.17g) leak=%016llx (%.17g)\n",
                      u.name.c_str(), static_cast<unsigned long long>(dyn),
                      u.dynamicJ, static_cast<unsigned long long>(leak),
                      u.leakageJ);
        out += line;
    }
    return out;
}

void
expectPinned(const obs::RunReport &rep, const EnergyPin &pin)
{
    const std::string units = unitEnergyBits(rep);
    EXPECT_EQ(rep.cycles, pin.cycles);
    EXPECT_EQ(rep.ops, pin.ops);
    EXPECT_EQ(fnv1a(units), pin.unitDigest) << units;
}

} // namespace

TEST(CpuConfigs, Names)
{
    EXPECT_STREQ(cpuConfigName(CpuConfig::BaseCmos), "BaseCMOS");
    EXPECT_STREQ(cpuConfigName(CpuConfig::AdvHet2X), "AdvHet-2X");
    EXPECT_STREQ(cpuConfigName(CpuConfig::BaseHetFastAlu),
                 "BaseHet-FastALU");
}

TEST(CpuConfigs, BaseCmosMatchesTable3)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseCmos);
    EXPECT_EQ(b.numCores, 4u);
    EXPECT_DOUBLE_EQ(b.freqGhz, 2.0);
    EXPECT_EQ(b.sim.core.robSize, 160u);
    EXPECT_EQ(b.sim.core.iqSize, 64u);
    EXPECT_EQ(b.sim.core.lsqSize, 48u);
    EXPECT_EQ(b.sim.core.intRegs, 128u);
    EXPECT_EQ(b.sim.core.fpRegs, 80u);
    EXPECT_EQ(b.sim.core.fu.numAlus, 4u);
    EXPECT_EQ(b.sim.core.fu.numMulDiv, 2u);
    EXPECT_EQ(b.sim.core.fu.numLsu, 2u);
    EXPECT_EQ(b.sim.core.fu.numFpu, 2u);
    EXPECT_EQ(b.sim.core.fu.timings.aluLat, 1u);
    EXPECT_EQ(b.sim.core.fu.timings.mulLat, 2u);
    EXPECT_EQ(b.sim.core.fu.timings.divLat, 4u);
    EXPECT_EQ(b.sim.core.fu.timings.fpAddLat, 2u);
    EXPECT_EQ(b.sim.core.fu.timings.fpMulLat, 4u);
    EXPECT_EQ(b.sim.core.fu.timings.fpDivLat, 8u);
    EXPECT_EQ(b.sim.mem.lat.il1Rt, 2u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 2u);
    EXPECT_EQ(b.sim.mem.lat.l2Rt, 8u);
    EXPECT_EQ(b.sim.mem.lat.l3Rt, 32u);
    EXPECT_EQ(b.sim.mem.lat.dramRt, 100u); // 50 ns at 2 GHz
    EXPECT_FALSE(b.sim.mem.asymDl1);
    EXPECT_FALSE(b.sim.core.steerDependents);
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        EXPECT_EQ(b.units[i].dev, DeviceClass::Cmos);
}

TEST(CpuConfigs, BaseTfetHalvesFrequency)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseTfet);
    EXPECT_DOUBLE_EQ(b.freqGhz, 1.0);
    // Per-cycle latencies match BaseCMOS (no deeper pipelining).
    EXPECT_EQ(b.sim.core.fu.timings.aluLat, 1u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 2u);
    // Memory stays configured in design-point cycles.
    EXPECT_EQ(b.sim.mem.lat.dramRt, 100u);
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        EXPECT_EQ(b.units[i].dev, DeviceClass::Tfet);
}

TEST(CpuConfigs, BaseHetTable3TfetLatencies)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseHet);
    EXPECT_DOUBLE_EQ(b.freqGhz, 2.0);
    EXPECT_EQ(b.sim.core.fu.timings.aluLat, 2u);
    EXPECT_EQ(b.sim.core.fu.timings.mulLat, 4u);
    EXPECT_EQ(b.sim.core.fu.timings.divLat, 8u);
    EXPECT_EQ(b.sim.core.fu.timings.fpAddLat, 4u);
    EXPECT_EQ(b.sim.core.fu.timings.fpMulLat, 8u);
    EXPECT_EQ(b.sim.core.fu.timings.fpDivLat, 16u);
    EXPECT_EQ(b.sim.core.fu.timings.fpDivIssueInterval, 16u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 4u);
    EXPECT_EQ(b.sim.mem.lat.l2Rt, 12u);
    EXPECT_EQ(b.sim.mem.lat.l3Rt, 40u);
    EXPECT_EQ(b.sim.mem.lat.il1Rt, 2u); // IL1 stays CMOS

    EXPECT_EQ(cpuDev(b, CpuUnit::Alu), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::MulDiv), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::Fpu), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::Dl1), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::L2), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::L3), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::Frontend), DeviceClass::Cmos);
    EXPECT_EQ(cpuDev(b, CpuUnit::Il1), DeviceClass::Cmos);
    EXPECT_EQ(cpuDev(b, CpuUnit::IntRf), DeviceClass::Cmos);
}

TEST(CpuConfigs, AdvHetAddsAllMechanisms)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::AdvHet);
    EXPECT_EQ(b.numCores, 4u);
    // Larger ROB and FP RF (Table IV).
    EXPECT_EQ(b.sim.core.robSize, 192u);
    EXPECT_EQ(b.sim.core.fpRegs, 128u);
    // Dual-speed ALU: 1 CMOS + 3 TFET, with dispatch steering.
    EXPECT_TRUE(b.sim.core.fu.dualSpeedAlu);
    EXPECT_EQ(b.sim.core.fu.numFastAlus, 1u);
    EXPECT_EQ(b.sim.core.fu.fastAluLat, 1u);
    EXPECT_TRUE(b.sim.core.steerDependents);
    // Asymmetric DL1: 1-cycle fast way, 5-cycle slow ways.
    EXPECT_TRUE(b.sim.mem.asymDl1);
    EXPECT_EQ(b.sim.mem.lat.dl1FastRt, 1u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 5u);
    // Energy model: CMOS fast way + ALU cluster split.
    EXPECT_EQ(cpuDev(b, CpuUnit::Dl1Fast), DeviceClass::Cmos);
    EXPECT_EQ(cpuDev(b, CpuUnit::Dl1), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::AluFast), DeviceClass::Cmos);
    EXPECT_NEAR(b.units[static_cast<int>(CpuUnit::Alu)].leakOnlyScale,
                0.75, 1e-12);
    EXPECT_NEAR(
        b.units[static_cast<int>(CpuUnit::Rob)].sizeScale,
        192.0 / 160.0, 1e-12);
    EXPECT_NEAR(
        b.units[static_cast<int>(CpuUnit::FpRf)].sizeScale,
        128.0 / 80.0, 1e-12);
}

TEST(CpuConfigs, AdvHet2XDoublesCores)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::AdvHet2X);
    EXPECT_EQ(b.numCores, 8u);
    EXPECT_EQ(b.sim.mem.numCores, 8u);
    EXPECT_TRUE(b.sim.mem.asymDl1);
}

TEST(CpuConfigs, BaseCmosEnhIsCmosAsym)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseCmosEnh);
    EXPECT_EQ(b.sim.core.robSize, 192u);
    EXPECT_EQ(b.sim.core.fpRegs, 128u);
    EXPECT_TRUE(b.sim.mem.asymDl1);
    EXPECT_EQ(b.sim.mem.lat.dl1FastRt, 1u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 3u);
    EXPECT_EQ(cpuDev(b, CpuUnit::Dl1), DeviceClass::Cmos);
    EXPECT_FALSE(b.sim.core.fu.dualSpeedAlu);
}

TEST(CpuConfigs, BaseL3OnlyL3Tfet)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseL3);
    EXPECT_EQ(b.sim.mem.lat.l3Rt, 40u);
    EXPECT_EQ(b.sim.mem.lat.l2Rt, 8u);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 2u);
    EXPECT_EQ(cpuDev(b, CpuUnit::L3), DeviceClass::Tfet);
    EXPECT_EQ(cpuDev(b, CpuUnit::L2), DeviceClass::Cmos);
    EXPECT_EQ(b.sim.core.robSize, 192u); // includes Enh sizing
}

TEST(CpuConfigs, BaseHighVtLatenciesFromTable4)
{
    const CpuConfigBundle b = makeCpuConfig(CpuConfig::BaseHighVt);
    // Int add/mul/div 2/3/6; FP add/mul/div 3/6/12.
    EXPECT_EQ(b.sim.core.fu.timings.aluLat, 2u);
    EXPECT_EQ(b.sim.core.fu.timings.mulLat, 3u);
    EXPECT_EQ(b.sim.core.fu.timings.divLat, 6u);
    EXPECT_EQ(b.sim.core.fu.timings.fpAddLat, 3u);
    EXPECT_EQ(b.sim.core.fu.timings.fpMulLat, 6u);
    EXPECT_EQ(b.sim.core.fu.timings.fpDivLat, 12u);
    // Caches stay untouched.
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 2u);
    EXPECT_EQ(cpuDev(b, CpuUnit::Alu), DeviceClass::HighVt);
    EXPECT_EQ(cpuDev(b, CpuUnit::Fpu), DeviceClass::HighVt);
    EXPECT_EQ(cpuDev(b, CpuUnit::Dl1), DeviceClass::Cmos);
}

TEST(CpuConfigs, BaseHetFastAluRestoresCmosAlus)
{
    const CpuConfigBundle b =
        makeCpuConfig(CpuConfig::BaseHetFastAlu);
    EXPECT_EQ(b.sim.core.fu.timings.aluLat, 1u);
    EXPECT_EQ(b.sim.core.fu.timings.mulLat, 2u);
    EXPECT_EQ(cpuDev(b, CpuUnit::Alu), DeviceClass::Cmos);
    EXPECT_EQ(cpuDev(b, CpuUnit::MulDiv), DeviceClass::Cmos);
    // The rest of BaseHet stays TFET.
    EXPECT_EQ(cpuDev(b, CpuUnit::Fpu), DeviceClass::Tfet);
    EXPECT_EQ(b.sim.mem.lat.dl1Rt, 4u);
}

TEST(CpuConfigs, BaseHetEnhAndSplitLayering)
{
    const CpuConfigBundle enh = makeCpuConfig(CpuConfig::BaseHetEnh);
    EXPECT_EQ(enh.sim.core.robSize, 192u);
    EXPECT_FALSE(enh.sim.core.fu.dualSpeedAlu);
    EXPECT_FALSE(enh.sim.mem.asymDl1);

    const CpuConfigBundle split =
        makeCpuConfig(CpuConfig::BaseHetSplit);
    EXPECT_EQ(split.sim.core.robSize, 192u);
    EXPECT_TRUE(split.sim.core.fu.dualSpeedAlu);
    EXPECT_FALSE(split.sim.mem.asymDl1);
}

TEST(CpuConfigs, DvfsFrequencyPropagates)
{
    const CpuConfigBundle b =
        makeCpuConfig(CpuConfig::BaseCmos, 2.5);
    EXPECT_DOUBLE_EQ(b.freqGhz, 2.5);
    EXPECT_EQ(b.sim.mem.lat.dramRt, 125u); // 50 ns at 2.5 GHz
}

TEST(CpuConfigs, FigureConfigLists)
{
    EXPECT_EQ(figure7Configs().size(), 6u);
    EXPECT_EQ(figure7Configs().front(), CpuConfig::BaseCmos);
    EXPECT_EQ(figure7Configs().back(), CpuConfig::AdvHet2X);
    EXPECT_EQ(figure13Configs().size(), 8u);
    EXPECT_EQ(figure13Configs().front(), CpuConfig::BaseCmos);
    EXPECT_EQ(figure10Configs().size(), 5u);
}

TEST(GpuConfigs, BaseCmosIncludesRfCache)
{
    const GpuConfigBundle b = makeGpuConfig(GpuConfig::BaseCmos);
    EXPECT_EQ(b.numCus, 8u);
    EXPECT_DOUBLE_EQ(b.freqGhz, 1.0);
    EXPECT_TRUE(b.sim.cu.timings.useRfCache);
    EXPECT_EQ(b.sim.cu.timings.fmaLat, 3u);
    EXPECT_EQ(b.sim.cu.timings.rfLat, 1u);
}

TEST(GpuConfigs, BaseTfetHalvesFrequencyNoCache)
{
    const GpuConfigBundle b = makeGpuConfig(GpuConfig::BaseTfet);
    EXPECT_DOUBLE_EQ(b.freqGhz, 0.5);
    EXPECT_FALSE(b.sim.cu.timings.useRfCache);
    EXPECT_EQ(b.sim.cu.timings.fmaLat, 3u);
    for (int i = 0; i < power::kNumGpuUnits; ++i)
        EXPECT_EQ(b.units[i].dev, DeviceClass::Tfet);
}

TEST(GpuConfigs, BaseHetTfetUnits)
{
    const GpuConfigBundle b = makeGpuConfig(GpuConfig::BaseHet);
    EXPECT_EQ(b.sim.cu.timings.fmaLat, 6u);
    EXPECT_EQ(b.sim.cu.timings.rfLat, 2u);
    EXPECT_FALSE(b.sim.cu.timings.useRfCache);
    EXPECT_EQ(gpuDev(b, GpuUnit::SimdFma), DeviceClass::Tfet);
    EXPECT_EQ(gpuDev(b, GpuUnit::VectorRf), DeviceClass::Tfet);
    EXPECT_EQ(gpuDev(b, GpuUnit::FetchIssue), DeviceClass::Cmos);
    EXPECT_EQ(gpuDev(b, GpuUnit::ClockTree), DeviceClass::Cmos);
}

TEST(GpuConfigs, AdvHetAddsRfCache)
{
    const GpuConfigBundle b = makeGpuConfig(GpuConfig::AdvHet);
    EXPECT_TRUE(b.sim.cu.timings.useRfCache);
    EXPECT_EQ(b.sim.cu.rfCacheEntries, 6u);
    EXPECT_EQ(b.numCus, 8u);
}

TEST(GpuConfigs, AdvHet2XDoublesCus)
{
    const GpuConfigBundle b = makeGpuConfig(GpuConfig::AdvHet2X);
    EXPECT_EQ(b.numCus, 16u);
    EXPECT_EQ(b.sim.numCus, 16u);
    EXPECT_TRUE(b.sim.cu.timings.useRfCache);
}

TEST(TableIvEnergyPins, EveryCpuConfigOnFft)
{
    // fft at scale 0.02 on all 11 CPU configurations, in CpuConfig
    // order: cycles, committed ops and every unit's energy bits,
    // recorded before Table IV was built by the design synthesizer.
    const EnergyPin kPins[kNumCpuConfigs] = {
        {10661, 15990, 0x93b707406b79f9acull},  // BaseCMOS
        {10669, 15990, 0xe8a9fbb08798f73full},  // BaseCMOS-Enh
        {10661, 15990, 0xc81af05f05bc92cfull},  // BaseTFET
        {12082, 15990, 0x6596c5b6961be34dull},  // BaseHet
        {11513, 15990, 0x1e5430b8f0aae604ull},  // AdvHet
        {11209, 15990, 0x381f40ce91f6dffdull},  // BaseL3
        {11052, 15990, 0x3ac40dfed85c8c91ull},  // BaseHighVt
        {11983, 15990, 0x6dbc99306c433775ull},  // BaseHet-FastALU
        {12074, 15990, 0x5b40d657ca4db099ull},  // BaseHet-Enh
        {11891, 15990, 0x46fbcaa3f346eed4ull},  // BaseHet-Split
        {8525, 15990, 0x65b6efd6e33d7af5ull},   // AdvHet-2X
    };
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());
    ExperimentOptions opts;
    opts.scale = 0.02;
    for (int i = 0; i < kNumCpuConfigs; ++i) {
        const auto cfg = static_cast<CpuConfig>(i);
        SCOPED_TRACE(cpuConfigName(cfg));
        obs::RunReport rep;
        runCpuExperiment(cfg, *app.value(), opts, &rep);
        expectPinned(rep, kPins[i]);
    }
}

TEST(TableIvEnergyPins, EveryGpuConfigOnMatrixmul)
{
    // matrixmul at scale 0.05 on all 5 GPU configurations, in
    // GpuConfig order, recorded like the CPU pins.
    const EnergyPin kPins[kNumGpuConfigs] = {
        {3404, 3750, 0x1ff435d48c906255ull}, // BaseCMOS
        {3404, 3750, 0xaa0de2c73a6268c7ull}, // BaseTFET
        {4298, 3750, 0xee5cc457e665ca49ull}, // BaseHet
        {3776, 3750, 0x581a9c8c0a898029ull}, // AdvHet
        {2062, 3750, 0xa7f77472757c4126ull}, // AdvHet-2X
    };
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());
    ExperimentOptions opts;
    opts.scale = 0.05;
    for (int i = 0; i < kNumGpuConfigs; ++i) {
        const auto cfg = static_cast<GpuConfig>(i);
        SCOPED_TRACE(gpuConfigName(cfg));
        obs::RunReport rep;
        runGpuExperiment(cfg, *kernel.value(), opts, &rep);
        expectPinned(rep, kPins[i]);
    }
}
