/**
 * @file
 * End-to-end integration tests: small-scale experiment runs must
 * reproduce the paper's qualitative result shapes (who wins, rough
 * factors, orderings). These are the repository's regression guard
 * for the headline claims; the bench binaries print the full-scale
 * versions.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

ExperimentOptions
quickOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.15;
    return opts;
}

struct CpuPair
{
    CpuOutcome base;
    CpuOutcome run;

    double time() const
    {
        return run.metrics.seconds / base.metrics.seconds;
    }
    double energy() const
    {
        return run.metrics.energyJ / base.metrics.energyJ;
    }
};

CpuPair
runPair(CpuConfig cfg, const char *app)
{
    const auto &profile = workload::cpuApp(app);
    return {runCpuExperiment(CpuConfig::BaseCmos, profile,
                             quickOpts()),
            runCpuExperiment(cfg, profile, quickOpts())};
}

} // namespace

TEST(Integration, BaseTfetIsTwiceAsSlow)
{
    const CpuPair p = runPair(CpuConfig::BaseTfet, "water-sp");
    EXPECT_NEAR(p.time(), 2.0, 0.05);
}

TEST(Integration, BaseTfetEnergyNearQuarter)
{
    const CpuPair p = runPair(CpuConfig::BaseTfet, "water-sp");
    EXPECT_GT(p.energy(), 0.18);
    EXPECT_LT(p.energy(), 0.32);
}

TEST(Integration, BaseHetSlowerButMuchCheaper)
{
    const CpuPair p = runPair(CpuConfig::BaseHet, "lu");
    EXPECT_GT(p.time(), 1.10);
    EXPECT_LT(p.time(), 1.60);
    EXPECT_GT(p.energy(), 0.45);
    EXPECT_LT(p.energy(), 0.80);
}

TEST(Integration, AdvHetRecoversBaseHetLoss)
{
    const auto &app = workload::cpuApp("water-sp");
    const CpuOutcome base =
        runCpuExperiment(CpuConfig::BaseCmos, app, quickOpts());
    const CpuOutcome het =
        runCpuExperiment(CpuConfig::BaseHet, app, quickOpts());
    const CpuOutcome adv =
        runCpuExperiment(CpuConfig::AdvHet, app, quickOpts());
    EXPECT_LT(adv.metrics.seconds, het.metrics.seconds);
    EXPECT_GT(adv.metrics.seconds, base.metrics.seconds);
    // Large energy savings remain.
    EXPECT_LT(adv.metrics.energyJ, 0.8 * base.metrics.energyJ);
}

TEST(Integration, AdvHet2XBeatsBaseCmosOnBothAxes)
{
    const CpuPair p = runPair(CpuConfig::AdvHet2X, "fft");
    EXPECT_LT(p.time(), 1.0);
    EXPECT_LT(p.energy(), 1.0);
}

TEST(Integration, AdvHetCoreUsesHalfThePower)
{
    // The premise of the iso-power AdvHet-2X construction.
    const CpuPair p = runPair(CpuConfig::AdvHet, "barnes");
    const double power_ratio =
        p.run.metrics.powerW() / p.base.metrics.powerW();
    EXPECT_LT(power_ratio, 0.70);
}

TEST(Integration, BaseHighVtLessCostEffective)
{
    const CpuPair p = runPair(CpuConfig::BaseHighVt, "fmm");
    // Slightly slower, and not a meaningful energy win: strictly
    // worse ED^2 than BaseCMOS (Section VII-C).
    EXPECT_GT(p.time(), 1.0);
    const double ed2 = p.energy() * p.time() * p.time();
    EXPECT_GT(ed2, 1.0);
}

TEST(Integration, BaseL3SavesEnergyAtSimilarSpeed)
{
    const CpuPair p = runPair(CpuConfig::BaseL3, "cholesky");
    EXPECT_LT(p.time(), 1.10);
    EXPECT_LT(p.energy(), 0.95);
}

TEST(Integration, EnergyBreakdownConsistent)
{
    const auto &app = workload::cpuApp("radix");
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::AdvHet, app, quickOpts());
    EXPECT_NEAR(out.metrics.energyJ, out.energy.totalJ(), 1e-15);
    double groups = 0.0;
    for (int g = 0; g < power::kNumEnergyGroups; ++g)
        groups += out.energy.groupDynamicJ[g] +
            out.energy.groupLeakageJ[g];
    EXPECT_NEAR(groups, out.energy.totalJ(), 1e-12);
}

TEST(Integration, DvfsBoostCostsEnergy)
{
    const auto &app = workload::cpuApp("water-nsq");
    ExperimentOptions boost = quickOpts();
    boost.freqGhz = 2.5;
    const CpuOutcome nominal =
        runCpuExperiment(CpuConfig::AdvHet, app, quickOpts());
    const CpuOutcome boosted =
        runCpuExperiment(CpuConfig::AdvHet, app, boost);
    EXPECT_LT(boosted.metrics.seconds, nominal.metrics.seconds);
    EXPECT_GT(boosted.metrics.energyJ, nominal.metrics.energyJ);
}

TEST(Integration, VariationGuardbandsCostEnergy)
{
    const auto &app = workload::cpuApp("water-nsq");
    ExperimentOptions gb = quickOpts();
    gb.variationGuardband = true;
    const CpuOutcome nominal =
        runCpuExperiment(CpuConfig::BaseCmos, app, quickOpts());
    const CpuOutcome banded =
        runCpuExperiment(CpuConfig::BaseCmos, app, gb);
    EXPECT_GT(banded.metrics.energyJ, 1.2 * nominal.metrics.energyJ);
    EXPECT_EQ(banded.cycles, nominal.cycles); // same timing
}

// ------------------------------ GPU -------------------------------

TEST(Integration, GpuBaseTfetTwiceAsSlowQuarterEnergy)
{
    const auto &k = workload::gpuKernel("matrixmul");
    const GpuOutcome base =
        runGpuExperiment(GpuConfig::BaseCmos, k, quickOpts());
    const GpuOutcome tfet =
        runGpuExperiment(GpuConfig::BaseTfet, k, quickOpts());
    EXPECT_NEAR(tfet.metrics.seconds / base.metrics.seconds, 2.0,
                0.05);
    EXPECT_LT(tfet.metrics.energyJ, 0.35 * base.metrics.energyJ);
}

TEST(Integration, GpuAdvHetFasterThanBaseHet)
{
    const auto &k = workload::gpuKernel("nbody");
    const GpuOutcome het =
        runGpuExperiment(GpuConfig::BaseHet, k, quickOpts());
    const GpuOutcome adv =
        runGpuExperiment(GpuConfig::AdvHet, k, quickOpts());
    EXPECT_LT(adv.metrics.seconds, het.metrics.seconds);
    EXPECT_LT(adv.metrics.energyJ, het.metrics.energyJ);
}

TEST(Integration, GpuHetSavesEnergy)
{
    const auto &k = workload::gpuKernel("blackscholes");
    const GpuOutcome base =
        runGpuExperiment(GpuConfig::BaseCmos, k, quickOpts());
    const GpuOutcome het =
        runGpuExperiment(GpuConfig::BaseHet, k, quickOpts());
    EXPECT_GT(het.metrics.seconds, base.metrics.seconds);
    EXPECT_LT(het.metrics.energyJ, 0.85 * base.metrics.energyJ);
}

TEST(Integration, GpuAdvHet2XFasterAndCheaper)
{
    const auto &k = workload::gpuKernel("reduction");
    const GpuOutcome base =
        runGpuExperiment(GpuConfig::BaseCmos, k, quickOpts());
    const GpuOutcome twox =
        runGpuExperiment(GpuConfig::AdvHet2X, k, quickOpts());
    EXPECT_LT(twox.metrics.seconds, base.metrics.seconds);
    EXPECT_LT(twox.metrics.energyJ, base.metrics.energyJ);
}
