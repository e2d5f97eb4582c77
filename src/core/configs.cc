#include "core/configs.hh"

#include <cstdio>
#include <iterator>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::core
{

using power::CpuUnit;
using power::DeviceClass;
using power::GpuUnit;

namespace
{

using enum power::DeviceClass;

/** One Table IV configuration: its figure name and its design. */
template <typename Design>
struct TableIvRow
{
    const char *name;
    Design design;
};

/** Table IV's CPU configurations, in CpuConfig order. */
constexpr TableIvRow<CpuHybridDesign> kCpuTableIv[] = {
    {"BaseCMOS", {}},
    {"BaseCMOS-Enh",
     {.robSize = kEnhRob, .fpRf = kEnhFpRf, .asymDl1 = true}},
    {"BaseTFET", {.halfClock = true}},
    {"BaseHet", {.alu = Tfet, .fpu = Tfet, .dl1 = Tfet, .l2 = Tfet,
                 .l3 = Tfet}},
    {"AdvHet", {.alu = Tfet, .fpu = Tfet, .dl1 = Tfet, .l2 = Tfet,
                .l3 = Tfet, .robSize = kEnhRob, .fpRf = kEnhFpRf,
                .asymDl1 = true, .dualSpeedAlu = true}},
    {"BaseL3", {.l3 = Tfet, .robSize = kEnhRob, .fpRf = kEnhFpRf}},
    {"BaseHighVt", {.alu = HighVt, .fpu = HighVt}},
    {"BaseHet-FastALU", {.fpu = Tfet, .dl1 = Tfet, .l2 = Tfet,
                         .l3 = Tfet}},
    {"BaseHet-Enh", {.alu = Tfet, .fpu = Tfet, .dl1 = Tfet, .l2 = Tfet,
                     .l3 = Tfet, .robSize = kEnhRob, .fpRf = kEnhFpRf}},
    {"BaseHet-Split", {.alu = Tfet, .fpu = Tfet, .dl1 = Tfet,
                       .l2 = Tfet, .l3 = Tfet, .robSize = kEnhRob,
                       .fpRf = kEnhFpRf, .dualSpeedAlu = true}},
    {"AdvHet-2X", {.alu = Tfet, .fpu = Tfet, .dl1 = Tfet, .l2 = Tfet,
                   .l3 = Tfet, .robSize = kEnhRob, .fpRf = kEnhFpRf,
                   .asymDl1 = true, .dualSpeedAlu = true,
                   .numCores = 8}},
};
static_assert(std::size(kCpuTableIv) == kNumCpuConfigs);

/** Table IV's GPU configurations, in GpuConfig order. For fairness
 *  the baseline includes the register-file cache too. */
constexpr TableIvRow<GpuHybridDesign> kGpuTableIv[] = {
    {"BaseCMOS", {.rfCache = true}},
    {"BaseTFET", {.halfClock = true}},
    {"BaseHet", {.simdFpu = Tfet, .vectorRf = Tfet}},
    {"AdvHet", {.simdFpu = Tfet, .vectorRf = Tfet, .rfCache = true}},
    {"AdvHet-2X", {.simdFpu = Tfet, .vectorRf = Tfet, .rfCache = true,
                   .numCus = 16}},
};
static_assert(std::size(kGpuTableIv) == kNumGpuConfigs);

/** The row of `cfg`, or nullptr when `cfg` is out of range. */
template <typename Config, typename Design, size_t N>
const TableIvRow<Design> *
rowOf(const TableIvRow<Design> (&table)[N], Config cfg)
{
    const auto i = static_cast<size_t>(cfg);
    return i < N ? &table[i] : nullptr;
}

/** The configuration of the row named `name`; NotFound lists every
 *  valid name. */
template <typename Config, typename Design, size_t N>
Result<Config>
configFromName(const TableIvRow<Design> (&table)[N],
               const std::string &name, const char *chip)
{
    std::string known;
    for (size_t i = 0; i < N; ++i) {
        if (name == table[i].name)
            return static_cast<Config>(i);
        if (!known.empty())
            known += ", ";
        known += table[i].name;
    }
    return Status::error(ErrorCode::NotFound,
                         "unknown %s config '%s' (valid: %s)", chip,
                         name.c_str(), known.c_str());
}

char
deviceLetter(DeviceClass dev)
{
    switch (dev) {
      case DeviceClass::Cmos:
        return 'C';
      case DeviceClass::Tfet:
        return 'T';
      case DeviceClass::HighVt:
        return 'H';
      case DeviceClass::InAsCmos:
        return 'I';
      case DeviceClass::HomJTfet:
        return 'J';
      default:
        return '?';
    }
}

void
setCpuUnit(power::CpuUnitConfigs &u, CpuUnit unit, DeviceClass dev)
{
    u[static_cast<int>(unit)].dev = dev;
}

} // namespace

const char *
cpuConfigName(CpuConfig c)
{
    const auto *row = rowOf(kCpuTableIv, c);
    return row != nullptr ? row->name : "?";
}

const char *
gpuConfigName(GpuConfig c)
{
    const auto *row = rowOf(kGpuTableIv, c);
    return row != nullptr ? row->name : "?";
}

Result<CpuConfig>
cpuConfigFromName(const std::string &name)
{
    return configFromName<CpuConfig>(kCpuTableIv, name, "CPU");
}

Result<GpuConfig>
gpuConfigFromName(const std::string &name)
{
    return configFromName<GpuConfig>(kGpuTableIv, name, "GPU");
}

std::string
designName(const CpuHybridDesign &d)
{
    char buf[96];
    if (d.halfClock) {
        std::snprintf(buf, sizeof(buf), "cpu(allTFET/2 c%u)",
                      d.numCores);
        return buf;
    }
    // The scratchpad token appears only when the unit exists, so
    // every pre-scratchpad design keeps its name (and hash).
    char spad[16] = "";
    if (d.scratchpad)
        std::snprintf(spad, sizeof(spad), " spad=%c",
                      deviceLetter(d.spadDev));
    std::snprintf(buf, sizeof(buf),
                  "cpu(alu=%c fpu=%c dl1=%c l2=%c l3=%c rob=%u "
                  "fprf=%u%s%s%s c%u)",
                  deviceLetter(d.alu), deviceLetter(d.fpu),
                  deviceLetter(d.dl1), deviceLetter(d.l2),
                  deviceLetter(d.l3), d.robSize, d.fpRf, spad,
                  d.asymDl1 ? " asym" : "",
                  d.dualSpeedAlu ? " split" : "", d.numCores);
    return buf;
}

std::string
designName(const GpuHybridDesign &d)
{
    char buf[64];
    if (d.halfClock) {
        std::snprintf(buf, sizeof(buf), "gpu(allTFET/2 cu%u)",
                      d.numCus);
        return buf;
    }
    std::snprintf(buf, sizeof(buf), "gpu(fma=%c vrf=%c%s cu%u)",
                  deviceLetter(d.simdFpu), deviceLetter(d.vectorRf),
                  d.rfCache ? " rfc" : "", d.numCus);
    return buf;
}

uint64_t
designHash(const CpuHybridDesign &d)
{
    return fnv1a(designName(d));
}

uint64_t
designHash(const GpuHybridDesign &d)
{
    return fnv1a(designName(d));
}

CpuHybridDesign
cpuHybridFromConfig(CpuConfig cfg)
{
    const auto *row = rowOf(kCpuTableIv, cfg);
    if (row == nullptr)
        panic("unknown CPU config %d", static_cast<int>(cfg));
    return row->design;
}

GpuHybridDesign
gpuHybridFromConfig(GpuConfig cfg)
{
    const auto *row = rowOf(kGpuTableIv, cfg);
    if (row == nullptr)
        panic("unknown GPU config %d", static_cast<int>(cfg));
    return row->design;
}

Result<CpuConfigBundle>
synthesizeCpuBundle(const CpuHybridDesign &d, double freq_ghz)
{
    CpuConfigBundle b;
    b.freqGhz = freq_ghz;
    b.numCores = d.numCores;
    // Fast-way, fast-ALU, and scratchpad units only leak when
    // configured in.
    b.units[static_cast<int>(CpuUnit::Dl1Fast)].leakOnlyScale = 0.0;
    b.units[static_cast<int>(CpuUnit::AluFast)].leakOnlyScale = 0.0;
    b.units[static_cast<int>(CpuUnit::Scratchpad)].leakOnlyScale =
        0.0;

    if (d.halfClock) {
        // The all-TFET chip needs no deeper pipelining: it halves the
        // clock instead, so per-cycle latencies match BaseCMOS.
        // Mixing it with per-unit choices is contradictory.
        CpuHybridDesign pure;
        pure.halfClock = true;
        pure.numCores = d.numCores;
        if (!(d == pure))
            return Status::error(
                ErrorCode::InvalidArgument,
                "halfClock excludes per-unit choices in '%s'",
                designName(d).c_str());
        b.freqGhz = freq_ghz / 2.0;
        for (auto &u : b.units)
            u.dev = DeviceClass::Tfet;
    } else {
        cpu::FuTimings &t = b.sim.core.fu.timings;
        switch (d.alu) {
          case DeviceClass::Cmos:
            break;
          case DeviceClass::Tfet:
            // Table III: TFET units pipeline 2x deeper at the common
            // clock, doubling their cycle latency.
            t.aluLat = 2;
            t.mulLat = 4;
            t.divLat = 8;
            t.divIssueInterval = 8;
            setCpuUnit(b.units, CpuUnit::Alu, DeviceClass::Tfet);
            setCpuUnit(b.units, CpuUnit::MulDiv, DeviceClass::Tfet);
            break;
          case DeviceClass::HighVt:
            // All-high-V_t logic: 1.4-1.6x slower, 10x less leaky.
            t.aluLat = 2;
            t.mulLat = 3;
            t.divLat = 6;
            t.divIssueInterval = 6;
            setCpuUnit(b.units, CpuUnit::Alu, DeviceClass::HighVt);
            setCpuUnit(b.units, CpuUnit::MulDiv,
                       DeviceClass::HighVt);
            break;
          default:
            return Status::error(ErrorCode::InvalidArgument,
                                 "unsupported ALU device in '%s'",
                                 designName(d).c_str());
        }
        switch (d.fpu) {
          case DeviceClass::Cmos:
            break;
          case DeviceClass::Tfet:
            t.fpAddLat = 4;
            t.fpMulLat = 8;
            t.fpDivLat = 16;
            t.fpDivIssueInterval = 16;
            setCpuUnit(b.units, CpuUnit::Fpu, DeviceClass::Tfet);
            break;
          case DeviceClass::HighVt:
            t.fpAddLat = 3;
            t.fpMulLat = 6;
            t.fpDivLat = 12;
            t.fpDivIssueInterval = 12;
            setCpuUnit(b.units, CpuUnit::Fpu, DeviceClass::HighVt);
            break;
          default:
            return Status::error(ErrorCode::InvalidArgument,
                                 "unsupported FPU device in '%s'",
                                 designName(d).c_str());
        }
        // Arrays: Table I characterizes high-V_t for logic only.
        for (DeviceClass dev : {d.dl1, d.l2, d.l3}) {
            if (dev != DeviceClass::Cmos && dev != DeviceClass::Tfet)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "caches must be CMOS or TFET in '%s'",
                    designName(d).c_str());
        }
        if (d.dl1 == DeviceClass::Tfet) {
            b.sim.mem.lat.dl1Rt = 4;
            setCpuUnit(b.units, CpuUnit::Dl1, DeviceClass::Tfet);
        }
        if (d.l2 == DeviceClass::Tfet) {
            b.sim.mem.lat.l2Rt = 12;
            setCpuUnit(b.units, CpuUnit::L2, DeviceClass::Tfet);
        }
        if (d.l3 == DeviceClass::Tfet) {
            b.sim.mem.lat.l3Rt = 40;
            setCpuUnit(b.units, CpuUnit::L3, DeviceClass::Tfet);
        }

        if (d.robSize != kBaseRob && d.robSize != kEnhRob)
            return Status::error(ErrorCode::InvalidArgument,
                                 "ROB must be %u or %u in '%s'",
                                 kBaseRob, kEnhRob,
                                 designName(d).c_str());
        if (d.fpRf != kBaseFpRf && d.fpRf != kEnhFpRf)
            return Status::error(ErrorCode::InvalidArgument,
                                 "FP RF must be %u or %u in '%s'",
                                 kBaseFpRf, kEnhFpRf,
                                 designName(d).c_str());
        b.sim.core.robSize = d.robSize;
        b.sim.core.fpRegs = d.fpRf;
        b.units[static_cast<int>(CpuUnit::Rob)].sizeScale =
            static_cast<double>(d.robSize) / kBaseRob;
        b.units[static_cast<int>(CpuUnit::FpRf)].sizeScale =
            static_cast<double>(d.fpRf) / kBaseFpRf;

        if (d.dualSpeedAlu) {
            if (d.alu != DeviceClass::Tfet)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "dual-speed ALU needs a TFET cluster in '%s'",
                    designName(d).c_str());
            // 1 CMOS + 3 TFET ALUs with dispatch-stage steering.
            b.sim.core.fu.dualSpeedAlu = true;
            b.sim.core.fu.numFastAlus = 1;
            b.sim.core.fu.fastAluLat = 1;
            b.sim.core.steerDependents = true;
            auto &alu = b.units[static_cast<int>(CpuUnit::Alu)];
            auto &fast = b.units[static_cast<int>(CpuUnit::AluFast)];
            alu.leakOnlyScale = 0.75; // 3 of 4 ALUs
            fast.dev = DeviceClass::Cmos;
            fast.leakOnlyScale = 0.25; // the CMOS ALU
        }

        if (d.scratchpad) {
            if (d.spadDev != DeviceClass::Cmos &&
                d.spadDev != DeviceClass::Tfet)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "scratchpad must be CMOS or TFET in '%s'",
                    designName(d).c_str());
            b.sim.mem.spad.enabled = true;
            b.sim.mem.spad.sizeKb = 16;
            // TFET array: 2x deeper pipelining at the common clock.
            b.sim.mem.spad.latency =
                d.spadDev == DeviceClass::Tfet ? 4 : 2;
            auto &sp = b.units[static_cast<int>(CpuUnit::Scratchpad)];
            sp.dev = d.spadDev;
            sp.leakOnlyScale = 1.0;
        } else if (d.spadDev != DeviceClass::Cmos) {
            // A device choice for a unit that does not exist would
            // alias the canonical name of the scratchpad-less design.
            return Status::error(
                ErrorCode::InvalidArgument,
                "spadDev set but scratchpad disabled in '%s'",
                designName(d).c_str());
        }

        if (d.asymDl1) {
            // Way 0 becomes a CMOS 4 KB direct-mapped fast array (the
            // Dl1Fast catalog entry models its size); slow-way round
            // trip depends on the array's device.
            b.sim.mem.asymDl1 = true;
            b.sim.mem.lat.dl1FastRt = 1;
            b.sim.mem.lat.dl1Rt =
                d.dl1 == DeviceClass::Tfet ? 5 : 3;
            auto &fast =
                b.units[static_cast<int>(CpuUnit::Dl1Fast)];
            auto &slow = b.units[static_cast<int>(CpuUnit::Dl1)];
            fast.dev = DeviceClass::Cmos;
            slow.dev = d.dl1;
            slow.leakOnlyScale = 7.0 / 8.0; // 7 of 8 ways remain
            fast.leakOnlyScale = 1.0;
        }
    }

    b.sim.mem.numCores = b.numCores;
    b.sim.freqGhz = b.freqGhz;
    // Memory latency is configured in cycles at the *design-point*
    // frequency (Multi2Sim style): the all-TFET chip at half clock
    // keeps the same cycle latency, reproducing the paper's "~2x
    // slower" BaseTFET result. 50 ns is Table III's DRAM round trip.
    b.sim.mem.lat.dramRt =
        static_cast<uint32_t>(50.0 * freq_ghz + 0.5);
    // Surface hierarchy-consistency violations (e.g. non-monotone
    // level round trips) as a Status instead of tripping the
    // MemHierarchy constructor assertion at simulation time.
    const Status hv = mem::validateHierarchyParams(b.sim.mem);
    if (!hv.ok())
        return hv;
    return b;
}

Result<GpuConfigBundle>
synthesizeGpuBundle(const GpuHybridDesign &d, double freq_ghz)
{
    GpuConfigBundle b;
    b.freqGhz = freq_ghz;
    b.numCus = d.numCus;
    b.units[static_cast<int>(GpuUnit::RfCache)].leakOnlyScale = 0.0;
    b.units[static_cast<int>(GpuUnit::VectorRfFast)].leakOnlyScale =
        0.0;

    if (d.halfClock) {
        GpuHybridDesign pure;
        pure.halfClock = true;
        pure.numCus = d.numCus;
        if (!(d == pure))
            return Status::error(
                ErrorCode::InvalidArgument,
                "halfClock excludes per-unit choices in '%s'",
                designName(d).c_str());
        b.freqGhz = freq_ghz / 2.0;
        for (auto &u : b.units)
            u.dev = DeviceClass::Tfet;
    } else {
        for (DeviceClass dev : {d.simdFpu, d.vectorRf}) {
            if (dev != DeviceClass::Cmos && dev != DeviceClass::Tfet)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "GPU units must be CMOS or TFET in '%s'",
                    designName(d).c_str());
        }
        if (d.simdFpu == DeviceClass::Tfet) {
            b.units[static_cast<int>(GpuUnit::SimdFma)].dev =
                DeviceClass::Tfet;
            b.sim.cu.timings.fmaLat = 6;
        }
        if (d.vectorRf == DeviceClass::Tfet) {
            b.units[static_cast<int>(GpuUnit::VectorRf)].dev =
                DeviceClass::Tfet;
            b.sim.cu.timings.rfLat = 2;
        }
        if (d.rfCache) {
            b.sim.cu.timings.useRfCache = true;
            b.units[static_cast<int>(GpuUnit::RfCache)]
                .leakOnlyScale = 1.0;
        }
    }

    b.sim.numCus = b.numCus;
    b.sim.freqGhz = b.freqGhz;
    // Memory latency in design-point cycles, as on the CPU.
    b.sim.dramRt = static_cast<uint32_t>(100.0 * freq_ghz + 0.5);
    return b;
}

CpuConfigBundle
makeCpuConfig(CpuConfig cfg, double freq_ghz)
{
    return synthesizeCpuBundle(cpuHybridFromConfig(cfg), freq_ghz).value();
}

GpuConfigBundle
makeGpuConfig(GpuConfig cfg, double freq_ghz)
{
    return synthesizeGpuBundle(gpuHybridFromConfig(cfg), freq_ghz).value();
}

const std::vector<CpuConfig> &
figure7Configs()
{
    static const std::vector<CpuConfig> v = {
        CpuConfig::BaseCmos, CpuConfig::BaseCmosEnh,
        CpuConfig::BaseTfet, CpuConfig::BaseHet, CpuConfig::AdvHet,
        CpuConfig::AdvHet2X,
    };
    return v;
}

const std::vector<CpuConfig> &
figure13Configs()
{
    static const std::vector<CpuConfig> v = {
        CpuConfig::BaseCmos, CpuConfig::BaseL3,
        CpuConfig::BaseHighVt, CpuConfig::BaseHetFastAlu,
        CpuConfig::BaseHet, CpuConfig::BaseHetEnh,
        CpuConfig::BaseHetSplit, CpuConfig::AdvHet,
    };
    return v;
}

const std::vector<GpuConfig> &
figure10Configs()
{
    static const std::vector<GpuConfig> v = {
        GpuConfig::BaseCmos, GpuConfig::BaseTfet, GpuConfig::BaseHet,
        GpuConfig::AdvHet, GpuConfig::AdvHet2X,
    };
    return v;
}

} // namespace hetsim::core
