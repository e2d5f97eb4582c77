/**
 * @file
 * Shared-memory contention subsystem tests: the shared-address
 * workload generator (trace v3), the SyncController lock/event timing
 * model, the scratchpad path through the hierarchy, and the
 * end-to-end invariants — contention drives real coherence and wait
 * counters into the report, and the report stays byte-identical
 * across event-horizon skipping, --no-skip, and preempt/resume.
 */

#include <csignal>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "cpu/sync.hh"
#include "mem/hierarchy.hh"
#include "mem/scratchpad.hh"
#include "workload/cpu_profiles.hh"
#include "workload/shared_gen.hh"
#include "workload/trace_file.hh"

namespace hetsim
{
namespace
{

using core::CpuConfig;
using core::CpuOutcome;
using core::ExperimentOptions;
using core::runCpuExperiment;
using cpu::MicroOp;
using cpu::OpClass;
using cpu::SyncController;
using workload::AppProfile;
using workload::SharedCpuTrace;

/** Drain a generator into a vector (with a runaway guard). */
std::vector<MicroOp>
drain(cpu::TraceSource &src)
{
    std::vector<MicroOp> ops;
    MicroOp op;
    while (src.next(op)) {
        ops.push_back(op);
        if (ops.size() > 5'000'000) {
            ADD_FAILURE() << "generator never finished";
            break;
        }
    }
    return ops;
}

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.cls == b.cls && a.src1 == b.src1 && a.src2 == b.src2 &&
        a.dst == b.dst && a.pc == b.pc && a.addr == b.addr &&
        a.target == b.target && a.taken == b.taken &&
        a.accessSize == b.accessSize;
}

/** Find a counter in a report; -1 when the group or name is absent
 *  (so expectations print a useful value instead of crashing). */
int64_t
counterValue(const obs::RunReport &rep, const std::string &group,
             const std::string &name)
{
    for (const obs::GroupSnapshot &g : rep.groups) {
        if (g.name != group)
            continue;
        for (const auto &[n, v] : g.counters)
            if (n == name)
                return static_cast<int64_t>(v);
    }
    return -1;
}

/** Sample count of a distribution; -1 when absent. */
int64_t
distCount(const obs::RunReport &rep, const std::string &group,
          const std::string &name)
{
    for (const obs::GroupSnapshot &g : rep.groups) {
        if (g.name != group)
            continue;
        for (const obs::DistributionSnapshot &d : g.distributions)
            if (d.name == name)
                return static_cast<int64_t>(d.count);
    }
    return -1;
}

// ---------------------------------------------------------------------
// Workload generator (trace v3).
// ---------------------------------------------------------------------

TEST(SharedGen, ByteIdenticalPerSeedAndDivergentAcrossSeeds)
{
    const AppProfile &app = workload::cpuApp("lock_heavy");
    ASSERT_TRUE(app.sharing.enabled);

    SharedCpuTrace a(app, 1, 4, 7, 0.02);
    SharedCpuTrace b(app, 1, 4, 7, 0.02);
    const std::vector<MicroOp> sa = drain(a);
    const std::vector<MicroOp> sb = drain(b);
    ASSERT_GT(sa.size(), 0u);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        ASSERT_TRUE(sameOp(sa[i], sb[i])) << "op " << i << " differs";

    SharedCpuTrace c(app, 1, 4, 8, 0.02);
    const std::vector<MicroOp> sc = drain(c);
    bool differs = sc.size() != sa.size();
    for (size_t i = 0; !differs && i < sa.size(); ++i)
        differs = !sameOp(sa[i], sc[i]);
    EXPECT_TRUE(differs) << "seed change did not change the stream";
}

TEST(SharedGen, LockRecordsAreBalancedAndNeverNested)
{
    const AppProfile &app = workload::cpuApp("lock_heavy");
    ASSERT_GT(app.sharing.locks, 0u);

    SharedCpuTrace gen(app, 0, 4, 1, 0.02);
    uint64_t acquires = 0, releases = 0;
    int depth = 0;
    uint64_t held = 0;
    MicroOp op;
    while (gen.next(op)) {
        if (op.cls == OpClass::LockAcquire) {
            ++acquires;
            ++depth;
            held = op.addr;
            EXPECT_GE(op.addr, workload::kLockVarBase);
        } else if (op.cls == OpClass::LockRelease) {
            ++releases;
            --depth;
            EXPECT_EQ(op.addr, held) << "release of a different lock";
        } else if (op.cls == OpClass::Barrier ||
                   op.cls == OpClass::WaitEvt) {
            // Deadlock freedom: no blocking op inside a critical
            // section.
            EXPECT_EQ(depth, 0) << "blocking op while holding a lock";
        }
        ASSERT_GE(depth, 0);
        ASSERT_LE(depth, 1) << "critical sections must not nest";
    }
    EXPECT_GT(acquires, 0u);
    EXPECT_EQ(acquires, releases);
    EXPECT_EQ(depth, 0);
}

TEST(SharedGen, EveryThreadEmitsTheSameBarrierCount)
{
    const AppProfile &app = workload::cpuApp("barrier_sync");
    ASSERT_GT(app.sharing.barrierPeriodOps, 0u);

    uint64_t expect = 0;
    for (uint32_t tid = 0; tid < 4; ++tid) {
        SharedCpuTrace gen(app, tid, 4, 1, 0.02);
        const uint64_t announced = gen.totalBarriers();
        uint64_t emitted = 0, locks = 0;
        MicroOp op;
        while (gen.next(op)) {
            if (op.cls == OpClass::Barrier)
                ++emitted;
            if (op.cls == OpClass::LockAcquire)
                ++locks;
        }
        EXPECT_EQ(emitted, announced) << "thread " << tid;
        // Periodic barriers disable locks (a barrier inside a
        // critical section could park a lock holder).
        EXPECT_EQ(locks, 0u) << "thread " << tid;
        if (tid == 0)
            expect = announced;
        else
            EXPECT_EQ(announced, expect) << "thread " << tid;
    }
    EXPECT_GT(expect, 0u);
}

TEST(SharedGen, SyncRecordsSurviveTraceFileRoundTrip)
{
    const AppProfile &app = workload::cpuApp("prodcons");
    ASSERT_TRUE(app.sharing.prodCons);

    SharedCpuTrace gen(app, 1, 4, 3, 0.02);
    const std::vector<MicroOp> ref = drain(gen);
    uint64_t sync_ops = 0;
    for (const MicroOp &op : ref)
        if (cpu::isSyncClass(op.cls))
            ++sync_ops;
    ASSERT_GT(sync_ops, 0u) << "prodcons emitted no sync records";

    char tmpl[] = "/tmp/hetsim_sync_trace_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/t.hstr";

    SharedCpuTrace again(app, 1, 4, 3, 0.02);
    Result<uint64_t> wrote = workload::recordTrace(again, path);
    ASSERT_TRUE(wrote.ok()) << wrote.status().toString();
    EXPECT_EQ(*wrote, ref.size());

    auto replay = workload::FileTrace::open(path);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ((*replay)->version(), workload::kTraceVersion);
    const std::vector<MicroOp> back = drain(**replay);
    EXPECT_TRUE((*replay)->status().ok());
    ASSERT_EQ(back.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(sameOp(ref[i], back[i])) << "record " << i;

    const std::string cmd = "rm -rf " + std::string(tmpl);
    (void)::system(cmd.c_str());
}

// ---------------------------------------------------------------------
// SyncController timing model.
// ---------------------------------------------------------------------

MicroOp
syncOp(OpClass cls, uint64_t addr)
{
    MicroOp op;
    op.cls = cls;
    op.addr = addr;
    return op;
}

TEST(SyncControllerTest, UncontendedAcquireParksForItsOwnAccessesOnly)
{
    mem::MemHierarchy h(mem::HierarchyParams{});
    SyncController sc(4, &h);
    const uint64_t lock = workload::lockVarAddr(0);

    sc.execute(0, syncOp(OpClass::LockAcquire, lock), 100);
    EXPECT_FALSE(sc.idle());
    const mem::Cycle wake = sc.wakeCycle(0);
    ASSERT_NE(wake, mem::kNoEvent);
    EXPECT_GT(wake, 100u);
    EXPECT_FALSE(sc.tryUnpark(0, wake - 1));
    EXPECT_TRUE(sc.tryUnpark(0, wake));

    sc.execute(0, syncOp(OpClass::LockRelease, lock), 200);
    EXPECT_TRUE(sc.tryUnpark(0, sc.wakeCycle(0)));
    EXPECT_TRUE(sc.idle());

    const obs::GroupSnapshot s = obs::snapshotGroup(sc.stats());
    for (const auto &[n, v] : s.counters) {
        if (n == "lock_acquires") {
            EXPECT_EQ(v, 1u);
        } else if (n == "lock_acquires_blocked") {
            EXPECT_EQ(v, 0u);
        } else if (n == "lock_releases") {
            EXPECT_EQ(v, 1u);
        }
    }
}

TEST(SyncControllerTest, ContendedLockHandsOffInFifoOrder)
{
    mem::MemHierarchy h(mem::HierarchyParams{});
    SyncController sc(4, &h);
    const uint64_t lock = workload::lockVarAddr(1);

    sc.execute(0, syncOp(OpClass::LockAcquire, lock), 100);
    ASSERT_TRUE(sc.tryUnpark(0, sc.wakeCycle(0)));

    // Two spinners queue behind the holder; their wake cycle is
    // unknowable until the release.
    sc.execute(1, syncOp(OpClass::LockAcquire, lock), 200);
    sc.execute(2, syncOp(OpClass::LockAcquire, lock), 210);
    EXPECT_EQ(sc.wakeCycle(1), mem::kNoEvent);
    EXPECT_EQ(sc.wakeCycle(2), mem::kNoEvent);
    EXPECT_FALSE(sc.tryUnpark(1, 10'000));
    EXPECT_FALSE(sc.tryUnpark(2, 10'000));

    // Release hands off to the *oldest* waiter; the other keeps
    // spinning.
    sc.execute(0, syncOp(OpClass::LockRelease, lock), 300);
    ASSERT_TRUE(sc.tryUnpark(0, sc.wakeCycle(0)));
    const mem::Cycle w1 = sc.wakeCycle(1);
    ASSERT_NE(w1, mem::kNoEvent);
    EXPECT_GT(w1, 300u);
    EXPECT_EQ(sc.wakeCycle(2), mem::kNoEvent);
    ASSERT_TRUE(sc.tryUnpark(1, w1));

    sc.execute(1, syncOp(OpClass::LockRelease, lock), 400);
    ASSERT_TRUE(sc.tryUnpark(1, sc.wakeCycle(1)));
    const mem::Cycle w2 = sc.wakeCycle(2);
    ASSERT_NE(w2, mem::kNoEvent);
    ASSERT_TRUE(sc.tryUnpark(2, w2));
    EXPECT_FALSE(sc.idle()); // Core 2 still holds the lock.

    sc.execute(2, syncOp(OpClass::LockRelease, lock), 500);
    ASSERT_TRUE(sc.tryUnpark(2, sc.wakeCycle(2)));
    EXPECT_TRUE(sc.idle());

    const obs::GroupSnapshot s = obs::snapshotGroup(sc.stats());
    for (const auto &[n, v] : s.counters) {
        if (n == "lock_acquires") {
            EXPECT_EQ(v, 3u);
        } else if (n == "lock_acquires_blocked") {
            EXPECT_EQ(v, 2u);
        } else if (n == "lock_releases") {
            EXPECT_EQ(v, 3u);
        }
    }
    for (const obs::DistributionSnapshot &d : s.distributions)
        if (d.name == "lock_wait_cycles") {
            EXPECT_EQ(d.count, 3u);
            // The blocked waiters' residency dominates their own
            // access latency, so the max must reflect real waiting.
            EXPECT_GT(d.max, 50.0);
        }
}

TEST(SyncControllerTest, EventSemaphoreCountsSignalsAndBlocksWaiters)
{
    mem::MemHierarchy h(mem::HierarchyParams{});
    SyncController sc(4, &h);
    const uint64_t evt = workload::eventVarAddr(0);

    // Signal before wait: the wait consumes the pending count and
    // never blocks.
    sc.execute(0, syncOp(OpClass::SignalEvt, evt), 100);
    ASSERT_TRUE(sc.tryUnpark(0, sc.wakeCycle(0)));
    sc.execute(1, syncOp(OpClass::WaitEvt, evt), 200);
    ASSERT_NE(sc.wakeCycle(1), mem::kNoEvent);
    ASSERT_TRUE(sc.tryUnpark(1, sc.wakeCycle(1)));

    // Wait before signal: blocks until the signal arrives.
    sc.execute(2, syncOp(OpClass::WaitEvt, evt), 300);
    EXPECT_EQ(sc.wakeCycle(2), mem::kNoEvent);
    EXPECT_FALSE(sc.idle());
    sc.execute(3, syncOp(OpClass::SignalEvt, evt), 400);
    ASSERT_TRUE(sc.tryUnpark(3, sc.wakeCycle(3)));
    const mem::Cycle w2 = sc.wakeCycle(2);
    ASSERT_NE(w2, mem::kNoEvent);
    EXPECT_GT(w2, 400u);
    ASSERT_TRUE(sc.tryUnpark(2, w2));
    EXPECT_TRUE(sc.idle());

    const obs::GroupSnapshot s = obs::snapshotGroup(sc.stats());
    for (const auto &[n, v] : s.counters) {
        if (n == "signals") {
            EXPECT_EQ(v, 2u);
        } else if (n == "waits") {
            EXPECT_EQ(v, 2u);
        } else if (n == "waits_blocked") {
            EXPECT_EQ(v, 1u);
        }
    }
}

// ---------------------------------------------------------------------
// Scratchpad path through the hierarchy.
// ---------------------------------------------------------------------

TEST(ScratchpadTest, InWindowAccessesBypassTheCacheHierarchy)
{
    mem::HierarchyParams p;
    p.spad.enabled = true;
    p.spad.sizeKb = 16;
    p.spad.latency = 2;
    mem::MemHierarchy h(p);
    ASSERT_NE(h.scratchpad(), nullptr);

    const mem::Addr in = mem::kScratchpadBase + 64;
    const mem::AccessResult r =
        h.access(0, in, mem::AccessType::Load, 0);
    EXPECT_EQ(r.source, mem::AccessSource::Scratchpad);
    EXPECT_EQ(r.latency, 2u);
    EXPECT_EQ(h.scratchpad()->coreAccesses(0), 1u);

    // Past the backed capacity the same window falls through to the
    // cached path (software still runs, it just pays cache latency).
    const mem::Addr past = mem::kScratchpadBase + 16 * 1024;
    const mem::AccessResult r2 =
        h.access(0, past, mem::AccessType::Load, 10);
    EXPECT_NE(r2.source, mem::AccessSource::Scratchpad);

    // Another core's window is not this core's scratchpad.
    const mem::Addr other =
        mem::kScratchpadBase + mem::kScratchpadStride + 64;
    const mem::AccessResult r3 =
        h.access(0, other, mem::AccessType::Load, 20);
    EXPECT_NE(r3.source, mem::AccessSource::Scratchpad);
    EXPECT_EQ(h.scratchpad()->coreAccesses(0), 1u);

    // Without a scratchpad the window is ordinary cached memory.
    mem::MemHierarchy plain{mem::HierarchyParams{}};
    EXPECT_EQ(plain.scratchpad(), nullptr);
    const mem::AccessResult r4 =
        plain.access(0, in, mem::AccessType::Load, 0);
    EXPECT_NE(r4.source, mem::AccessSource::Scratchpad);
}

TEST(ScratchpadTest, HierarchyValidationRefusesBadConfigs)
{
    mem::HierarchyParams ok;
    EXPECT_TRUE(mem::validateHierarchyParams(ok).ok());

    mem::HierarchyParams inverted;
    inverted.lat.l3Rt = inverted.lat.l2Rt - 1;
    Status s = mem::validateHierarchyParams(inverted);
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);

    mem::HierarchyParams zero;
    zero.lat.dramRt = 0;
    EXPECT_EQ(mem::validateHierarchyParams(zero).code(),
              ErrorCode::InvalidArgument);

    mem::HierarchyParams per_core = ok;
    per_core.perCoreLat.assign(per_core.numCores, ok.lat);
    per_core.perCoreLat[1].l2Rt = per_core.perCoreLat[1].l3Rt + 10;
    EXPECT_EQ(mem::validateHierarchyParams(per_core).code(),
              ErrorCode::InvalidArgument);

    mem::HierarchyParams bad_spad;
    bad_spad.spad.enabled = true;
    bad_spad.spad.latency = 0;
    EXPECT_EQ(mem::validateHierarchyParams(bad_spad).code(),
              ErrorCode::InvalidArgument);

    mem::HierarchyParams cores;
    cores.numCores = 0;
    EXPECT_EQ(mem::validateHierarchyParams(cores).code(),
              ErrorCode::InvalidArgument);
}

TEST(ScratchpadTest, DseSpaceEnumeratesScratchpadDesigns)
{
    const std::vector<core::CpuHybridDesign> designs =
        core::enumerateCpuDesigns();
    size_t spad_cmos = 0, spad_tfet = 0;
    for (const core::CpuHybridDesign &d : designs) {
        if (!d.scratchpad) {
            // Canonical form: the device axis collapses while the
            // unit is absent (keeps design hashing unambiguous).
            EXPECT_EQ(d.spadDev, power::DeviceClass::Cmos);
            EXPECT_EQ(core::designName(d).find(" spad="),
                      std::string::npos);
            continue;
        }
        const std::string name = core::designName(d);
        if (d.spadDev == power::DeviceClass::Tfet) {
            ++spad_tfet;
            EXPECT_NE(name.find(" spad=T"), std::string::npos);
        } else {
            ++spad_cmos;
            EXPECT_NE(name.find(" spad=C"), std::string::npos);
        }
    }
    EXPECT_GT(spad_cmos, 0u);
    EXPECT_GT(spad_tfet, 0u);
    EXPECT_EQ(spad_cmos, spad_tfet);
}

// ---------------------------------------------------------------------
// End-to-end contention invariants.
// ---------------------------------------------------------------------

ExperimentOptions
contentionOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.05;
    opts.coresOverride = 4;
    return opts;
}

TEST(ContentionEndToEnd, LockContentionDrivesCoherenceAndWaitStats)
{
    obs::RunReport rep;
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::BaseCmos,
                         workload::cpuApp("lock_heavy"),
                         contentionOpts(), &rep);
    EXPECT_GT(out.cycles, 0u);
    EXPECT_FALSE(out.timedOut);

    EXPECT_GT(counterValue(rep, "sync", "lock_acquires"), 0);
    EXPECT_GT(counterValue(rep, "sync", "lock_acquires_blocked"), 0);
    EXPECT_EQ(counterValue(rep, "sync", "lock_acquires"),
              counterValue(rep, "sync", "lock_releases"));
    EXPECT_GT(distCount(rep, "sync", "lock_wait_cycles"), 0);
    EXPECT_GT(distCount(rep, "sync", "barrier_wait_cycles"), 0);

    // Real MESI traffic: spinners' cached lock-line copies are
    // invalidated by the releaser's upgrade store.
    int64_t invals = 0;
    for (uint32_t c = 0; c < 4; ++c) {
        const int64_t v = counterValue(
            rep, "hierarchy",
            "core" + std::to_string(c) + "_invalidations_received");
        ASSERT_GE(v, 0) << "missing per-core invalidation counter";
        invals += v;
    }
    EXPECT_GT(invals, 0);
    EXPECT_GT(counterValue(rep, "hierarchy", "true_sharing_misses"),
              0);
}

TEST(ContentionEndToEnd, FalseSharingWorkloadIsClassifiedAsSuch)
{
    obs::RunReport rep;
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::BaseCmos,
                         workload::cpuApp("false_share"),
                         contentionOpts(), &rep);
    EXPECT_GT(out.cycles, 0u);
    EXPECT_GT(counterValue(rep, "hierarchy", "false_sharing_misses"),
              0);
}

TEST(ContentionEndToEnd, SkipAndNoSkipReportsAreByteIdentical)
{
    obs::RunReport skip, no_skip;
    ExperimentOptions opts = contentionOpts();
    const CpuOutcome a = runCpuExperiment(
        CpuConfig::BaseHet, workload::cpuApp("lock_heavy"), opts,
        &skip);
    opts.noSkip = true;
    const CpuOutcome b = runCpuExperiment(
        CpuConfig::BaseHet, workload::cpuApp("lock_heavy"), opts,
        &no_skip);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(skip.toJson(), no_skip.toJson());
}

volatile sig_atomic_t g_sync_preempt = 0;

using ResumeCase = std::tuple<const char *, CpuConfig>;

class ContentionPreemptResume
    : public ::testing::TestWithParam<ResumeCase>
{
};

/** Preempt at every periodic drain and resume from each checkpoint
 *  until the run completes: the final report must be byte-identical
 *  to the uninterrupted run at the same cadence. The contended apps
 *  save lock/barrier/park state mid-workload, and their coherence
 *  invalidations and AdvHet fast-way swaps leave stale tags in
 *  invalid lines, which the checkpoint does not carry. */
TEST_P(ContentionPreemptResume, ResumingAtEveryDrainIsByteIdentical)
{
    const auto &[app_name, cfg] = GetParam();
    const AppProfile &app = workload::cpuApp(app_name);
    char tmpl[] = "/tmp/hetsim_sync_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;

    ExperimentOptions opts = contentionOpts();
    opts.checkpointPath = dir + "/ref" + core::kCheckpointSuffix;
    opts.checkpointEveryCycles = 2000;
    obs::RunReport ref_rep;
    const CpuOutcome ref = runCpuExperiment(cfg, app, opts, &ref_rep);
    ASSERT_FALSE(ref.preempted);

    // With the flag kept set, each call restores the last checkpoint,
    // runs to the next drain, saves there and stops.
    opts.checkpointPath = dir + "/run" + core::kCheckpointSuffix;
    g_sync_preempt = 1;
    opts.preempt = &g_sync_preempt;
    const uint64_t max_segments =
        ref.cycles / opts.checkpointEveryCycles + 2;
    obs::RunReport rep;
    CpuOutcome out;
    uint64_t segments = 0, last_cut = 0;
    do {
        rep = obs::RunReport();
        out = runCpuExperiment(cfg, app, opts, &rep);
        ++segments;
        if (out.preempted) {
            EXPECT_GT(out.cycles, last_cut) << "segment " << segments;
            last_cut = out.cycles;
        }
    } while (out.preempted && segments < max_segments);
    g_sync_preempt = 0;

    ASSERT_FALSE(out.preempted) << "unfinished after " << segments
                                << " segments";
    EXPECT_GT(segments, 2u);
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(rep.toJson(), ref_rep.toJson());

    const std::string cmd = "rm -rf " + dir;
    (void)::system(cmd.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ContendedApps, ContentionPreemptResume,
    ::testing::Combine(::testing::Values("barrier_sync", "false_share",
                                         "lock_heavy", "fft"),
                       ::testing::Values(CpuConfig::BaseHet,
                                         CpuConfig::AdvHet)),
    [](const ::testing::TestParamInfo<ResumeCase> &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               core::cpuConfigName(std::get<1>(info.param));
    });

TEST(ContentionEndToEnd, ScratchpadWorkloadReportsScratchpadTraffic)
{
    // The stock configs carry no scratchpad; the spad_stream
    // workload still runs (in-window accesses fall through to the
    // caches) and the report simply has no scratchpad group.
    obs::RunReport rep;
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::BaseCmos,
                         workload::cpuApp("spad_stream"),
                         contentionOpts(), &rep);
    EXPECT_GT(out.cycles, 0u);
    EXPECT_EQ(counterValue(rep, "scratchpad", "reads"), -1);

    // A design with the scratchpad axis on serves the same workload
    // from the array: traffic lands in the scratchpad group and the
    // unit shows up with activity in the energy accounting.
    core::CpuHybridDesign d;
    d.scratchpad = true;
    d.spadDev = power::DeviceClass::Tfet;
    Result<core::CpuConfigBundle> bundle =
        core::synthesizeCpuBundle(d);
    ASSERT_TRUE(bundle.ok()) << bundle.status().toString();

    obs::RunReport spad_rep;
    const CpuOutcome spad_out = core::runCpuBundle(
        *bundle, core::designName(d), workload::cpuApp("spad_stream"),
        contentionOpts(), &spad_rep);
    EXPECT_GT(spad_out.cycles, 0u);
    EXPECT_GT(counterValue(spad_rep, "scratchpad", "reads"), 0);

    uint64_t spad_activity = 0;
    for (const obs::UnitEnergy &u : spad_rep.units)
        if (u.name == "scratchpad")
            spad_activity += u.activity;
    EXPECT_GT(spad_activity, 0u);
}

} // namespace
} // namespace hetsim
