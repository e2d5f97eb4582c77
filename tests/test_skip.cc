/**
 * @file
 * Bit-identity tests for event-horizon cycle skipping.
 *
 * The skip loop's contract is that it is invisible in every report:
 * the full --report-json document (every counter, occupancy integral,
 * stall breakdown, energy number) must be byte-identical whether the
 * runner jumps over stall ranges or ticks through them one cycle at a
 * time. These tests enforce that contract end to end for every CPU
 * and GPU configuration and workload, and for a DSE sweep, and check
 * that skipping actually happens (a loop that never skips would pass
 * identity trivially).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/file.hh"
#include "core/configs.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

#include "temp_file.hh"

using namespace hetsim;
using namespace hetsim::core;
using hetsim::test::TempFile;

namespace
{

ExperimentOptions
smallOpts(bool no_skip)
{
    ExperimentOptions opts;
    opts.scale = 0.03;
    opts.noSkip = no_skip;
    return opts;
}

std::string
cpuReportJson(CpuConfig cfg, const std::string &app, bool no_skip)
{
    ExperimentOptions opts = smallOpts(no_skip);
    opts.scale = 0.01;
    obs::RunReport rep;
    runCpuExperiment(cfg, workload::cpuApp(app), opts, &rep);
    return rep.toJson();
}

std::string
gpuReportJson(GpuConfig cfg, const char *kernel, bool no_skip)
{
    obs::RunReport rep;
    runGpuExperiment(cfg, workload::gpuKernel(kernel),
                     smallOpts(no_skip), &rep);
    return rep.toJson();
}

std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

std::vector<CpuConfig>
allCpuConfigs()
{
    std::vector<CpuConfig> cfgs;
    for (int i = 0; i < kNumCpuConfigs; ++i)
        cfgs.push_back(static_cast<CpuConfig>(i));
    return cfgs;
}

/** The paper's 14 applications, then the contention
 *  microbenchmarks. */
std::vector<std::string>
cpuAppNames()
{
    std::vector<std::string> names;
    for (const workload::AppProfile &a : workload::cpuApps())
        names.push_back(a.name);
    for (const workload::AppProfile &a : workload::contentionApps())
        names.push_back(a.name);
    return names;
}

/** A display name as a test-name fragment ("AdvHet-2X" and
 *  "water-sp" are not valid test names). */
std::string
testName(std::string name)
{
    name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
    return name;
}

std::vector<std::string>
gpuKernelNames()
{
    std::vector<std::string> names;
    for (const workload::KernelProfile &k : workload::gpuKernels())
        names.push_back(k.name);
    return names;
}

/** Run a multicore directly so the test can see skippedCycles. */
cpu::MulticoreResult
runMulticore(CpuConfig cfg, const char *app, bool skip)
{
    CpuConfigBundle bundle = makeCpuConfig(cfg);
    bundle.sim.skipEnabled = skip;
    auto traces = workload::makeCpuWorkload(workload::cpuApp(app),
                                            bundle.numCores, 1, 0.03);
    std::vector<cpu::TraceSource *> ptrs;
    ptrs.reserve(traces.size());
    for (auto &t : traces)
        ptrs.push_back(t.get());
    cpu::Multicore mc(bundle.sim, ptrs);
    return mc.run();
}

} // namespace

using CpuIdentityCase = std::tuple<CpuConfig, std::string>;

class CpuSkipIdentity : public ::testing::TestWithParam<CpuIdentityCase>
{
};

/** Every CPU configuration on every application and contention
 *  microbenchmark: memory-bound and compute apps, lock, barrier and
 *  false-sharing traffic, and configs whose cores tick on different
 *  grids (AdvHet-2X). Each report carries every cache's statistics,
 *  so each cache geometry is compared too. */
TEST_P(CpuSkipIdentity, ReportsBitIdentical)
{
    const auto &[cfg, app] = GetParam();
    EXPECT_EQ(cpuReportJson(cfg, app, false),
              cpuReportJson(cfg, app, true));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAndApps, CpuSkipIdentity,
    ::testing::Combine(::testing::ValuesIn(allCpuConfigs()),
                       ::testing::ValuesIn(cpuAppNames())),
    [](const ::testing::TestParamInfo<CpuIdentityCase> &info) {
        return testName(cpuConfigName(std::get<0>(info.param))) + "_" +
               testName(std::get<1>(info.param));
    });

TEST(Skip, CpuRunActuallySkips)
{
    const cpu::MulticoreResult on =
        runMulticore(CpuConfig::BaseTfet, "canneal", true);
    const cpu::MulticoreResult off =
        runMulticore(CpuConfig::BaseTfet, "canneal", false);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_EQ(off.skippedCycles, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.committedOps, off.committedOps);
    EXPECT_EQ(on.barrierReleases, off.barrierReleases);
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        EXPECT_EQ(on.activity[i], off.activity[i]) << "unit " << i;
}

using GpuIdentityCase = std::tuple<GpuConfig, std::string>;

class GpuSkipIdentity : public ::testing::TestWithParam<GpuIdentityCase>
{
};

/** Every GPU configuration on every kernel: the scheduler decides per
 *  CU which cycles it ticks, so each pairing of CU count, clock, RF
 *  timing and kernel shape gets its own byte-compare. */
TEST_P(GpuSkipIdentity, ReportsBitIdentical)
{
    const auto &[cfg, kernel] = GetParam();
    EXPECT_EQ(gpuReportJson(cfg, kernel.c_str(), false),
              gpuReportJson(cfg, kernel.c_str(), true));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAndKernels, GpuSkipIdentity,
    ::testing::Combine(::testing::ValuesIn(figure10Configs()),
                       ::testing::ValuesIn(gpuKernelNames())),
    [](const ::testing::TestParamInfo<GpuIdentityCase> &info) {
        return testName(gpuConfigName(std::get<0>(info.param))) + "_" +
               std::get<1>(info.param);
    });

TEST(Skip, GpuRunActuallySkips)
{
    GpuConfigBundle bundle = makeGpuConfig(GpuConfig::BaseTfet);
    workload::SyntheticKernel k(workload::gpuKernel("reduction"), 1,
                                0.05);
    bundle.sim.skipEnabled = true;
    gpu::Gpu g(bundle.sim);
    const gpu::GpuResult res = g.run(k);
    EXPECT_GT(res.skippedCycles, 0u);
}

TEST(Skip, GpuTicksOnlyCusThatCanAct)
{
    // A loop that still ticked every CU every cycle would pass every
    // identity test above, so count the ticks. nbody is the densest
    // kernel (72% SIMD ops): its CUs have work resident nearly every
    // cycle, yet most of those cycles they wait on a port or operand.
    const GpuConfigBundle bundle = makeGpuConfig(GpuConfig::AdvHet);
    auto run = [&](bool skip) {
        gpu::GpuParams params = bundle.sim;
        params.skipEnabled = skip;
        workload::SyntheticKernel k(workload::gpuKernel("nbody"), 1,
                                    0.05);
        gpu::Gpu g(params);
        return g.run(k);
    };
    const gpu::GpuResult on = run(true);
    const gpu::GpuResult off = run(false);
    const uint64_t cu_cycles = uint64_t{bundle.numCus} * off.cycles;
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(off.cuTicks, cu_cycles);
    EXPECT_LT(on.cuTicks, cu_cycles / 3);
}

TEST(Skip, GpuIdleCusDoNotPinTheHorizon)
{
    // One workgroup on a many-CU chip: every other CU sits idle for
    // the whole run. Idle CUs report kNoEvent, so the stalls of the
    // single busy CU are still skippable; their ClockTree activity is
    // credited for the jumped range, keeping results identical.
    gpu::GpuParams p;
    p.numCus = 8;
    workload::KernelProfile prof = workload::gpuKernel("reduction");

    auto run = [&](bool skip) {
        workload::SyntheticKernel k(prof, 1, 0.05);
        gpu::GpuParams params = p;
        params.skipEnabled = skip;
        gpu::Gpu g(params);
        return g.run(k);
    };
    const gpu::GpuResult on = run(true);
    const gpu::GpuResult off = run(false);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.issuedOps, off.issuedOps);
    for (int i = 0; i < power::kNumGpuUnits; ++i)
        EXPECT_EQ(on.activity[i], off.activity[i]) << "unit " << i;
}

TEST(Skip, DseReportBitIdentical)
{
    std::vector<CpuHybridDesign> designs = {
        cpuHybridFromConfig(CpuConfig::BaseCmos),
        cpuHybridFromConfig(CpuConfig::BaseHet),
        cpuHybridFromConfig(CpuConfig::AdvHet),
    };
    const workload::AppProfile &app = workload::cpuApp("fft");

    auto report = [&](bool no_skip, const std::string &path) {
        DseOptions opts;
        opts.exp = smallOpts(no_skip);
        opts.jobs = 2;
        ThreadPool pool(opts.jobs);
        DseCache cache;
        const auto points =
            evaluateCpuDesigns(designs, app, opts, pool, cache);
        ASSERT_EQ(points.size(), designs.size());
        ASSERT_TRUE(
            writeDseReportJson(points, app.name, opts.objective, path)
                .ok());
    };
    const TempFile a("dse_skip.json");
    const TempFile b("dse_noskip.json");
    report(false, a.path());
    report(true, b.path());
    EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}
