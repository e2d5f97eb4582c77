/**
 * @file
 * Tests for the lockstep multicore runner: barrier protocol, activity
 * aggregation, scaling behaviour, and coherence under real traces.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>

#include "core/configs.hh"
#include "core/experiment.hh"
#include "cpu/multicore.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/vector_trace.hh"

using namespace hetsim;
using namespace hetsim::cpu;
using hetsim::core::CpuConfig;
using workload::VectorTrace;

namespace
{

MicroOp
aluOp(int16_t dst, uint64_t pc)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dst = dst;
    op.pc = pc;
    return op;
}

MicroOp
barrierOp()
{
    MicroOp op;
    op.cls = OpClass::Barrier;
    return op;
}

MulticoreParams
params(uint32_t cores)
{
    MulticoreParams p;
    p.mem.numCores = cores;
    p.maxCycles = 1 << 22;
    return p;
}

} // namespace

TEST(Multicore, RunsSingleCoreToCompletion)
{
    VectorTrace t;
    for (int i = 0; i < 50; ++i)
        t.add(aluOp(1 + (i % 8), 0x1000 + 4 * i));
    Multicore mc(params(1), {&t});
    const MulticoreResult res = mc.run();
    EXPECT_EQ(res.committedOps, 50u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.seconds, 0.0);
}

TEST(Multicore, BarriersSynchronizeUnevenThreads)
{
    // Thread 0 does much more work before the barrier; thread 1 must
    // wait, and both finish.
    VectorTrace t0, t1;
    for (int i = 0; i < 500; ++i)
        t0.add(aluOp(1 + (i % 8), 0x1000 + 4 * i));
    t0.add(barrierOp());
    t0.add(aluOp(1, 0x5000));

    t1.add(aluOp(1, 0x1000));
    t1.add(barrierOp());
    t1.add(aluOp(2, 0x5000));

    Multicore mc(params(2), {&t0, &t1});
    const MulticoreResult res = mc.run();
    EXPECT_EQ(res.committedOps, 503u);
    EXPECT_EQ(res.barrierReleases, 1u);
}

TEST(Multicore, MultipleBarrierRounds)
{
    VectorTrace t0, t1;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 20; ++i) {
            t0.add(aluOp(1 + (i % 8), 0x1000 + 4 * i));
            t1.add(aluOp(1 + (i % 8), 0x2000 + 4 * i));
        }
        t0.add(barrierOp());
        t1.add(barrierOp());
    }
    Multicore mc(params(2), {&t0, &t1});
    const MulticoreResult res = mc.run();
    EXPECT_EQ(res.barrierReleases, 5u);
    EXPECT_EQ(res.committedOps, 200u);
}

TEST(Multicore, FinishedCoreDoesNotBlockBarriers)
{
    // Thread 1 ends before thread 0's barriers; the runner must still
    // release thread 0 (it is the only unfinished core).
    VectorTrace t0, t1;
    t0.add(aluOp(1, 0x1000));
    t0.add(barrierOp());
    t0.add(aluOp(2, 0x1004));
    t1.add(aluOp(1, 0x2000));

    Multicore mc(params(2), {&t0, &t1});
    const MulticoreResult res = mc.run();
    EXPECT_EQ(res.committedOps, 3u);
}

TEST(Multicore, SecondsFollowFrequency)
{
    VectorTrace t;
    for (int i = 0; i < 100; ++i)
        t.add(aluOp(1 + (i % 8), 0x1000 + 4 * i));
    MulticoreParams p = params(1);
    p.freqGhz = 2.0;
    Multicore mc2(p, {&t});
    const MulticoreResult r2 = mc2.run();
    EXPECT_NEAR(r2.seconds, r2.cycles / 2e9, 1e-15);
}

TEST(Multicore, ActivityCountsCoverCommittedOps)
{
    const auto &app = workload::cpuApp("water-sp");
    auto traces = workload::makeCpuWorkload(app, 2, 1, 0.02);
    std::vector<TraceSource *> ptrs{traces[0].get(),
                                    traces[1].get()};
    MulticoreParams p = params(2);
    Multicore mc(p, ptrs);
    const MulticoreResult res = mc.run();

    using power::CpuUnit;
    auto count = [&](CpuUnit u) {
        return res.activity[static_cast<int>(u)];
    };
    // Every committed op passed through rename once and the ROB
    // twice (dispatch + commit).
    EXPECT_EQ(count(CpuUnit::Rename), res.committedOps);
    EXPECT_EQ(count(CpuUnit::Rob), 2 * res.committedOps);
    EXPECT_EQ(count(CpuUnit::IssueQueue), res.committedOps);
    // Execution-unit events partition the op classes.
    EXPECT_GT(count(CpuUnit::Alu), 0u);
    EXPECT_GT(count(CpuUnit::Fpu), 0u);
    EXPECT_GT(count(CpuUnit::Lsq), 0u);
    const uint64_t exec = count(CpuUnit::Alu) +
        count(CpuUnit::MulDiv) + count(CpuUnit::Fpu) +
        count(CpuUnit::Lsq);
    EXPECT_EQ(exec, res.committedOps);
    // Cache activity was collected.
    EXPECT_GT(count(CpuUnit::Il1), 0u);
    EXPECT_GT(count(CpuUnit::Dl1), 0u);
    EXPECT_GT(count(CpuUnit::L2), 0u);
    EXPECT_GT(count(CpuUnit::L3), 0u);
}

TEST(Multicore, EightCoresFasterThanFour)
{
    const auto &app = workload::cpuApp("fft");
    auto t4 = workload::makeCpuWorkload(app, 4, 1, 0.1);
    auto t8 = workload::makeCpuWorkload(app, 8, 1, 0.1);
    std::vector<TraceSource *> p4, p8;
    for (auto &t : t4)
        p4.push_back(t.get());
    for (auto &t : t8)
        p8.push_back(t.get());

    Multicore mc4(params(4), p4);
    Multicore mc8(params(8), p8);
    const uint64_t c4 = mc4.run().cycles;
    const uint64_t c8 = mc8.run().cycles;
    EXPECT_LT(c8, c4);           // more cores help...
    EXPECT_GT(c8 * 2, c4);       // ...but not superlinearly.
}

TEST(Multicore, CoherenceInvariantsAfterRealWorkload)
{
    const auto &app = workload::cpuApp("canneal");
    auto traces = workload::makeCpuWorkload(app, 4, 1, 0.02);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    Multicore mc(params(4), ptrs);
    mc.run();
    EXPECT_TRUE(mc.hierarchy().checkInclusion());
    EXPECT_TRUE(mc.hierarchy().checkDirectoryConsistent());
}

TEST(Multicore, DeterministicAcrossRuns)
{
    auto run_once = [] {
        const auto &app = workload::cpuApp("lu");
        auto traces = workload::makeCpuWorkload(app, 2, 7, 0.02);
        std::vector<TraceSource *> ptrs{traces[0].get(),
                                        traces[1].get()};
        Multicore mc(params(2), ptrs);
        return mc.run().cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(MulticoreDeath, TraceCountMismatch)
{
    VectorTrace t;
    EXPECT_EXIT(
        {
            Multicore mc(params(2), {&t});
            (void)mc;
        },
        ::testing::KilledBySignal(SIGABRT), "one trace per core");
}

namespace
{

/** Core counters pinned per run, summed over the chip's cores. */
constexpr const char *kPinnedCounters[] = {
    "ticks", "rob_full_stalls", "iq_full_stalls", "lsq_full_stalls",
    "forwarded_loads", "partial_forward_replays", "mispredict_redirects",
    "rob_occ_cycles", "iq_occ_cycles", "lsq_occ_cycles",
};

/** Cycles, committed ops, then kPinnedCounters. */
using PinnedValues = std::array<uint64_t, 2 + std::size(kPinnedCounters)>;

PinnedValues
measurePinned(CpuConfig config, const char *app)
{
    core::ExperimentOptions opts;
    opts.scale = 0.02;
    obs::RunReport rep;
    const core::CpuOutcome out =
        core::runCpuExperiment(config, workload::cpuApp(app), opts, &rep);
    PinnedValues v{};
    v[0] = out.cycles;
    v[1] = out.committedOps;
    for (const obs::GroupSnapshot &g : rep.groups) {
        // Core groups are "core.<id>"; "core.<id>.fu_pool" etc. are not.
        if (g.name.rfind("core.", 0) != 0 ||
            g.name.find('.', 5) != std::string::npos)
            continue;
        for (const auto &[name, value] : g.counters) {
            for (size_t i = 0; i < std::size(kPinnedCounters); ++i) {
                if (name == kPinnedCounters[i])
                    v[2 + i] += value;
            }
        }
    }
    return v;
}

} // namespace

TEST(CpuModelPins, IntegerResultsMatchRecordedValues)
{
    // Exact integer results of the CPU model on four configurations
    // (AdvHet has the 192-entry ROB, AdvHet-2X eight cores) and four
    // apps (lock_heavy takes the SyncController path), recorded with
    // the std::deque-based core. Integers only, so the pins do not
    // depend on floating-point platform details.
    const struct
    {
        CpuConfig config;
        const char *app;
        PinnedValues want;
    } kPins[] = {
        {CpuConfig::BaseCmos, "fft",
         {10661, 15990, 42640, 0, 14962, 3438, 457, 0, 100, 2352773,
          1432224, 994599}},
        {CpuConfig::BaseCmos, "canneal",
         {41063, 15996, 164248, 0, 495, 0, 14, 0, 877, 3016325, 2249873,
          1154874}},
        {CpuConfig::BaseCmos, "radix",
         {27692, 16000, 110764, 0, 43588, 1449, 78, 0, 169, 4209357,
          3703320, 1888935}},
        {CpuConfig::BaseCmos, "lock_heavy",
         {16390, 8000, 65556, 0, 0, 0, 51, 0, 492, 747734, 402326,
          371160}},
        {CpuConfig::BaseHet, "fft",
         {12082, 15990, 48324, 0, 18692, 3524, 492, 0, 100, 2708578,
          1704271, 1143542}},
        {CpuConfig::BaseHet, "canneal",
         {45890, 15996, 183556, 0, 563, 0, 23, 0, 877, 3357175, 2521941,
          1282537}},
        {CpuConfig::BaseHet, "radix",
         {31334, 16000, 125332, 0, 51689, 1377, 106, 0, 169, 4867624,
          4321025, 2177767}},
        {CpuConfig::BaseHet, "lock_heavy",
         {18288, 8000, 73148, 0, 0, 0, 55, 0, 492, 835507, 455523,
          412014}},
        {CpuConfig::AdvHet, "fft",
         {11513, 15990, 46048, 0, 17255, 4679, 555, 0, 100, 2615684,
          1588384, 1102907}},
        {CpuConfig::AdvHet, "canneal",
         {44086, 15996, 176340, 0, 544, 0, 22, 0, 877, 3265862, 2434211,
          1246761}},
        {CpuConfig::AdvHet, "radix",
         {29949, 16000, 119792, 0, 48298, 1624, 110, 0, 169, 4615223,
          4073046, 2064648}},
        {CpuConfig::AdvHet, "lock_heavy",
         {17639, 8000, 70552, 0, 0, 0, 57, 0, 492, 817242, 438584,
          404426}},
        {CpuConfig::AdvHet2X, "fft",
         {8525, 15990, 68192, 0, 11260, 3347, 518, 0, 200, 2401469,
          1396397, 1018520}},
        {CpuConfig::AdvHet2X, "canneal",
         {35522, 15984, 284168, 0, 114, 0, 17, 0, 945, 3668017, 2775608,
          1412735}},
        {CpuConfig::AdvHet2X, "radix",
         {22465, 16000, 179712, 0, 50179, 1053, 78, 0, 237, 4944418,
          4394302, 2244904}},
        {CpuConfig::AdvHet2X, "lock_heavy",
         {11560, 8000, 92472, 0, 0, 0, 63, 0, 510, 860382, 484008,
          421240}},
    };
    for (const auto &pin : kPins) {
        SCOPED_TRACE(std::string(core::cpuConfigName(pin.config)) + "/" +
                     pin.app);
        EXPECT_EQ(measurePinned(pin.config, pin.app), pin.want);
    }
}
