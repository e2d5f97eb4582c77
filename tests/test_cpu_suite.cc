/**
 * @file
 * The CPU and GPU figure suites against serial references.
 *
 * bench::runCpuSuite runs its config x app cells on the thread pool,
 * and the cells of one app replay one recording of its workload.
 * bench::runGpuSuite runs its config x kernel cells on the pool too.
 * Each reference is the plain loop its suite replaces:
 * runCpuExperiment or runGpuExperiment per cell, one after another,
 * the CPU cells each streaming from the generators. Every cell must
 * match it exactly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"
#include "core/configs.hh"

namespace hetsim
{
namespace
{

TEST(CpuSuite, PooledCellsMatchASerialStreamingLoop)
{
    core::ExperimentOptions opts;
    opts.scale = 0.01;
    const std::vector<core::CpuConfig> &configs = core::figure7Configs();
    // AdvHet-2X's 8-core cells do not share the others' 4-thread
    // recording: they stream inside the pool.
    ASSERT_EQ(configs.back(), core::CpuConfig::AdvHet2X);
    ASSERT_EQ(core::cpuHybridFromConfig(configs.back()).numCores, 8u);

    const bench::CpuSuite suite = bench::runCpuSuite(configs, opts);
    ASSERT_EQ(suite.apps.size(), 14u);
    ASSERT_EQ(suite.outcomes.size(), configs.size() * suite.apps.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        for (size_t a = 0; a < suite.apps.size(); ++a) {
            const core::CpuOutcome ref =
                core::runCpuExperiment(configs[c], suite.apps[a], opts);
            const core::CpuOutcome &got = suite.at(c, a);
            SCOPED_TRACE(ref.config + "/" + ref.app);
            EXPECT_EQ(got.config, ref.config);
            EXPECT_EQ(got.app, ref.app);
            EXPECT_EQ(got.cycles, ref.cycles);
            EXPECT_EQ(got.committedOps, ref.committedOps);
            EXPECT_EQ(std::bit_cast<uint64_t>(got.metrics.seconds),
                      std::bit_cast<uint64_t>(ref.metrics.seconds));
            EXPECT_EQ(std::bit_cast<uint64_t>(got.metrics.energyJ),
                      std::bit_cast<uint64_t>(ref.metrics.energyJ));
        }
    }
}

TEST(GpuSuite, PooledCellsMatchASerialLoop)
{
    core::ExperimentOptions opts;
    opts.scale = 0.05;
    const std::vector<core::GpuConfig> &configs =
        core::figure10Configs();

    const bench::GpuSuite suite = bench::runGpuSuite(configs, opts);
    ASSERT_EQ(suite.outcomes.size(),
              configs.size() * suite.kernels.size());
    ASSERT_EQ(suite.outcomes.size(), 50u);
    for (size_t c = 0; c < configs.size(); ++c) {
        for (size_t k = 0; k < suite.kernels.size(); ++k) {
            const core::GpuOutcome ref = core::runGpuExperiment(
                configs[c], suite.kernels[k], opts);
            const core::GpuOutcome &got = suite.at(c, k);
            SCOPED_TRACE(ref.config + "/" + ref.kernel);
            EXPECT_EQ(got.config, ref.config);
            EXPECT_EQ(got.kernel, ref.kernel);
            EXPECT_EQ(got.cycles, ref.cycles);
            EXPECT_EQ(got.issuedOps, ref.issuedOps);
            EXPECT_EQ(std::bit_cast<uint64_t>(got.metrics.seconds),
                      std::bit_cast<uint64_t>(ref.metrics.seconds));
            EXPECT_EQ(std::bit_cast<uint64_t>(got.metrics.energyJ),
                      std::bit_cast<uint64_t>(ref.metrics.energyJ));
        }
    }
}

} // namespace
} // namespace hetsim
