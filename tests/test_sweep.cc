/**
 * @file
 * Tests for the crash-isolating batch sweep runner, including the
 * headline robustness scenarios: a full config sweep with one
 * poisoned trace and one runaway cell completes, reporting exactly
 * those two cells as failed/timed-out; and a SIGKILLed sweep resumed
 * from its durable journal produces a byte-identical report.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/configs.hh"
#include "core/result_store.hh"
#include "core/sweep.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/fault_inject.hh"
#include "workload/trace_file.hh"

#include "temp_file.hh"

using namespace hetsim;
using namespace hetsim::core;
using hetsim::test::TempFile;

namespace
{

std::vector<CpuConfig>
allCpuConfigs()
{
    std::vector<CpuConfig> cfgs;
    for (int i = 0; i < kNumCpuConfigs; ++i)
        cfgs.push_back(static_cast<CpuConfig>(i));
    return cfgs;
}

/** Record a valid trace into `file`, then corrupt its magic in
 *  place; the file's path. */
const std::string &
makeCorruptTrace(const TempFile &file)
{
    workload::SyntheticCpuTrace src(workload::cpuApp("fft"), 0, 1,
                                    3, 0.02);
    EXPECT_TRUE(workload::recordTrace(src, file.path(), 100).ok());
    const uint32_t junk = 0xdeadbeef;
    EXPECT_TRUE(
        workload::overwriteBytes(file.path(), 0, &junk, 4).ok());
    return file.path();
}

} // namespace

TEST(ParseWorkloadSpec, Forms)
{
    auto bare = parseWorkloadSpec("fft");
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.value().kind, SweepCell::Kind::CpuApp);
    EXPECT_EQ(bare.value().workload, "fft");
    EXPECT_EQ(bare.value().scaleOverride, 0.0);

    auto app = parseWorkloadSpec("app:lu@scale=2.5");
    ASSERT_TRUE(app.ok());
    EXPECT_EQ(app.value().kind, SweepCell::Kind::CpuApp);
    EXPECT_EQ(app.value().workload, "lu");
    EXPECT_DOUBLE_EQ(app.value().scaleOverride, 2.5);

    auto trace = parseWorkloadSpec("trace:/tmp/x.trace");
    ASSERT_TRUE(trace.ok());
    EXPECT_EQ(trace.value().kind, SweepCell::Kind::CpuTrace);
    EXPECT_EQ(trace.value().workload, "/tmp/x.trace");

    auto kernel = parseWorkloadSpec("kernel:dct@scale=0.5");
    ASSERT_TRUE(kernel.ok());
    EXPECT_EQ(kernel.value().kind, SweepCell::Kind::GpuKernel);
    EXPECT_EQ(kernel.value().workload, "dct");
    EXPECT_DOUBLE_EQ(kernel.value().scaleOverride, 0.5);
}

TEST(ParseWorkloadSpec, Errors)
{
    for (const char *bad :
         {"", "app:", "trace:", "kernel:@scale=2", "fft@speed=9",
          "fft@scale=", "fft@scale=zero", "fft@scale=-1"}) {
        auto r = parseWorkloadSpec(bad);
        ASSERT_FALSE(r.ok()) << "spec '" << bad << "'";
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument)
            << "spec '" << bad << "'";
    }
}

TEST(CrossCpuCells, CrossesAndRejectsGpuSpecs)
{
    auto cells = crossCpuCells(
        {CpuConfig::BaseCmos, CpuConfig::AdvHet}, {"fft", "lu"});
    ASSERT_TRUE(cells.ok());
    ASSERT_EQ(cells.value().size(), 4u);
    EXPECT_EQ(cells.value()[0].cpuCfg, CpuConfig::BaseCmos);
    EXPECT_EQ(cells.value()[0].workload, "fft");
    EXPECT_EQ(cells.value()[3].cpuCfg, CpuConfig::AdvHet);
    EXPECT_EQ(cells.value()[3].workload, "lu");

    auto bad = crossCpuCells({CpuConfig::BaseCmos}, {"kernel:dct"});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidArgument);
}

/**
 * The issue's acceptance scenario: every CPU configuration runs a
 * good workload, plus one cell replaying a corrupted trace and one
 * cell whose cycle watchdog trips. The sweep completes and reports
 * exactly those two cells as failed/timed-out.
 */
TEST(Sweep, FullConfigSweepSurvivesPoisonedCells)
{
    const TempFile poisoned("sweep_poisoned.trace");
    const std::string &bad_trace = makeCorruptTrace(poisoned);

    std::vector<SweepCell> cells;
    for (CpuConfig cfg : allCpuConfigs())
        cells.push_back(cpuAppCell(cfg, "fft"));
    cells.push_back(cpuTraceCell(CpuConfig::BaseCmos, bad_trace));
    SweepCell runaway = cpuAppCell(CpuConfig::BaseCmos, "fft");
    runaway.watchdogCycles = 1000; // Trips well before completion.
    cells.push_back(runaway);

    SweepOptions opts;
    opts.exp.scale = 0.1;
    SweepReport report = runSweep(cells, opts);

    ASSERT_EQ(report.results.size(),
              static_cast<size_t>(kNumCpuConfigs) + 2);
    EXPECT_EQ(report.okCount(), static_cast<size_t>(kNumCpuConfigs));
    EXPECT_EQ(report.failedCount(), 1u);
    EXPECT_EQ(report.timedOutCount(), 1u);
    EXPECT_FALSE(report.allOk());

    // The failures are the cells we poisoned, not innocent ones.
    const CellResult &bad = report.results[kNumCpuConfigs];
    EXPECT_EQ(bad.outcome, CellOutcome::Failed);
    EXPECT_EQ(bad.status.code(), ErrorCode::BadMagic);
    const CellResult &slow = report.results[kNumCpuConfigs + 1];
    EXPECT_EQ(slow.outcome, CellOutcome::TimedOut);
    EXPECT_EQ(slow.status.code(), ErrorCode::Timeout);
    EXPECT_GE(slow.cycles, 1000u);

    for (int i = 0; i < kNumCpuConfigs; ++i) {
        EXPECT_EQ(report.results[i].outcome, CellOutcome::Ok)
            << cpuConfigName(static_cast<CpuConfig>(i));
        EXPECT_TRUE(report.results[i].status.ok());
        EXPECT_GT(report.results[i].cycles, 0u);
        EXPECT_GT(report.results[i].energyJ, 0.0);
    }

    // The summary printer works on the mixed report, CSV included.
    const TempFile csv("sweep_report.csv");
    EXPECT_TRUE(printSweepReport(report, csv.path()).ok());
    std::FILE *f = std::fopen(csv.path().c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_EQ(printSweepReport(report, "/nonexistent/x.csv").code(),
              ErrorCode::IoError);
}

TEST(Sweep, ChildCrashIsContained)
{
    // An out-of-range config makes the child panic (abort). With
    // isolation, the sweep records a Crashed failure for that cell
    // and keeps going.
    std::vector<SweepCell> cells;
    cells.push_back(cpuAppCell(CpuConfig::BaseCmos, "fft"));
    SweepCell crasher = cpuAppCell(CpuConfig::BaseCmos, "fft");
    crasher.cpuCfg = static_cast<CpuConfig>(99);
    cells.push_back(crasher);
    cells.push_back(cpuAppCell(CpuConfig::AdvHet, "fft"));

    SweepOptions opts;
    opts.exp.scale = 0.1;
    SweepReport report = runSweep(cells, opts);

    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::Ok);
    EXPECT_EQ(report.results[1].outcome, CellOutcome::Failed);
    EXPECT_EQ(report.results[1].status.code(), ErrorCode::Crashed);
    EXPECT_NE(report.results[1].status.message().find("signal"),
              std::string::npos);
    EXPECT_EQ(report.results[2].outcome, CellOutcome::Ok);
}

TEST(Sweep, WallClockWatchdogKillsRunawayCell)
{
    // A deliberately huge workload against a wall limit it cannot
    // meet: the parent kills the child and the sweep moves on. The
    // limit is generous so the small sibling cell passes it even on
    // a loaded test machine.
    std::vector<SweepCell> cells;
    cells.push_back(cpuAppCell(CpuConfig::BaseCmos, "fft", 5000.0));
    cells.push_back(cpuAppCell(CpuConfig::BaseCmos, "lu", 0.1));

    SweepOptions opts;
    opts.wallLimitMs = 1500.0;
    SweepReport report = runSweep(cells, opts);

    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::TimedOut);
    EXPECT_EQ(report.results[0].status.code(), ErrorCode::Timeout);
    EXPECT_NE(report.results[0].status.message().find("wall-clock"),
              std::string::npos);
    EXPECT_EQ(report.results[1].outcome, CellOutcome::Ok);
}

TEST(Sweep, NonIsolatedModeStillRecoversInputErrors)
{
    // Without forking there is no crash containment, but input
    // errors still come back as per-cell failures.
    std::vector<SweepCell> cells;
    cells.push_back(
        cpuTraceCell(CpuConfig::BaseCmos, "/nonexistent/x.trace"));
    cells.push_back(cpuAppCell(CpuConfig::BaseCmos, "nosuchapp"));
    cells.push_back(cpuAppCell(CpuConfig::BaseCmos, "fft", 0.1));

    SweepOptions opts;
    opts.isolate = false;
    SweepReport report = runSweep(cells, opts);

    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::Failed);
    EXPECT_EQ(report.results[0].status.code(), ErrorCode::IoError);
    EXPECT_EQ(report.results[1].outcome, CellOutcome::Failed);
    EXPECT_EQ(report.results[1].status.code(), ErrorCode::NotFound);
    EXPECT_NE(report.results[1].status.message().find("valid:"),
              std::string::npos);
    EXPECT_EQ(report.results[2].outcome, CellOutcome::Ok);
}

TEST(Sweep, GoodTraceCellReplays)
{
    const TempFile file("sweep_good.trace");
    const std::string &path = file.path();
    workload::SyntheticCpuTrace src(workload::cpuApp("lu"), 0, 1, 5,
                                    0.02);
    ASSERT_TRUE(workload::recordTrace(src, path, 2000).ok());

    SweepReport report =
        runSweep({cpuTraceCell(CpuConfig::BaseCmos, path)});
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::Ok);
    EXPECT_EQ(report.results[0].ops, 2000u);
    EXPECT_GT(report.results[0].cycles, 0u);
}

// Every chip takes the watchdog and --no-skip through one function.
// A sweep's trace cell used to copy the watchdog but not --no-skip, so
// `sweep --no-skip 1` ran trace cells with cycle skipping while their
// run key said skip=0.
TEST(Sweep, ChipOptionsReachCpuAndGpuChips)
{
    ExperimentOptions opts;
    opts.watchdogCycles = 1234;
    opts.noSkip = true;
    cpu::MulticoreParams cpu_sim;
    applyChipOptions(cpu_sim, opts);
    EXPECT_EQ(cpu_sim.watchdogCycles, 1234u);
    EXPECT_FALSE(cpu_sim.skipEnabled);
    gpu::GpuParams gpu_sim;
    applyChipOptions(gpu_sim, opts);
    EXPECT_EQ(gpu_sim.watchdogCycles, 1234u);
    EXPECT_FALSE(gpu_sim.skipEnabled);

    opts.noSkip = false;
    applyChipOptions(cpu_sim, opts);
    EXPECT_TRUE(cpu_sim.skipEnabled);
}

TEST(Sweep, NoSkipTraceCellMatchesTheSkippingOne)
{
    const TempFile file("sweep_noskip.trace");
    workload::SyntheticCpuTrace src(workload::cpuApp("canneal"), 0, 1,
                                    5, 0.05);
    ASSERT_TRUE(workload::recordTrace(src, file.path(), 3000).ok());
    SweepOptions opts;
    opts.isolate = false;
    const SweepReport skip =
        runSweep({cpuTraceCell(CpuConfig::BaseTfet, file.path())}, opts);
    opts.exp.noSkip = true;
    const SweepReport ref =
        runSweep({cpuTraceCell(CpuConfig::BaseTfet, file.path())}, opts);
    ASSERT_EQ(skip.results[0].outcome, CellOutcome::Ok);
    ASSERT_EQ(ref.results[0].outcome, CellOutcome::Ok);
    EXPECT_EQ(skip.results[0].cycles, ref.results[0].cycles);
    EXPECT_EQ(skip.results[0].ops, ref.results[0].ops);
    EXPECT_EQ(skip.results[0].seconds, ref.results[0].seconds);
}

TEST(Sweep, GpuKernelCell)
{
    SweepReport report = runSweep(
        {gpuKernelCell(GpuConfig::BaseCmos, "dct", 0.1),
         gpuKernelCell(GpuConfig::AdvHet, "nosuchkernel")});
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::Ok);
    EXPECT_GT(report.results[0].cycles, 0u);
    EXPECT_EQ(report.results[1].outcome, CellOutcome::Failed);
    EXPECT_EQ(report.results[1].status.code(), ErrorCode::NotFound);
}

TEST(Sweep, CycleWatchdogIsDeterministic)
{
    SweepCell cell = cpuAppCell(CpuConfig::BaseCmos, "fft");
    cell.watchdogCycles = 5000;
    SweepOptions opts;
    opts.exp.scale = 0.5;
    const SweepReport a = runSweep({cell}, opts);
    const SweepReport b = runSweep({cell}, opts);
    ASSERT_EQ(a.results.size(), 1u);
    EXPECT_EQ(a.results[0].outcome, CellOutcome::TimedOut);
    EXPECT_EQ(a.results[0].cycles, b.results[0].cycles);
    EXPECT_EQ(a.results[0].ops, b.results[0].ops);
}

namespace
{

std::string
makeStoreDir(const char *tag)
{
    std::string tmpl = testing::TempDir() + "hetsim_sweepstore_" +
        std::string(tag) + "_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    return tmpl;
}

void
removeDir(const std::string &dir)
{
    const std::string cmd = "rm -rf " + dir;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
}

/** Entries (*.hres) currently journaled in `dir`. */
size_t
countEntries(const std::string &dir)
{
    size_t n = 0;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return 0;
    while (struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".hres") == 0)
            ++n;
    }
    ::closedir(d);
    return n;
}

std::vector<SweepCell>
smallPlan()
{
    return {cpuAppCell(CpuConfig::BaseCmos, "fft", 0.05),
            cpuAppCell(CpuConfig::AdvHet, "fft", 0.05),
            cpuAppCell(CpuConfig::BaseCmos, "nosuchapp"),
            gpuKernelCell(GpuConfig::AdvHet, "dct", 0.05)};
}

} // namespace

TEST(SweepStoreKey, EncodesCellAndOptionIdentity)
{
    SweepOptions opts;
    const SweepCell a = cpuAppCell(CpuConfig::BaseCmos, "fft");
    EXPECT_EQ(cellStoreKey(a, opts), cellStoreKey(a, opts));

    // Anything that changes the result changes the key.
    EXPECT_NE(cellStoreKey(a, opts),
              cellStoreKey(cpuAppCell(CpuConfig::AdvHet, "fft"),
                           opts));
    EXPECT_NE(cellStoreKey(a, opts),
              cellStoreKey(cpuAppCell(CpuConfig::BaseCmos, "lu"),
                           opts));
    EXPECT_NE(
        cellStoreKey(a, opts),
        cellStoreKey(cpuAppCell(CpuConfig::BaseCmos, "fft", 2.0),
                     opts));
    SweepOptions seeded = opts;
    seeded.exp.seed = 7;
    EXPECT_NE(cellStoreKey(a, opts), cellStoreKey(a, seeded));
    SweepOptions watchdogged = opts;
    watchdogged.exp.watchdogCycles = 123;
    EXPECT_NE(cellStoreKey(a, opts), cellStoreKey(a, watchdogged));

    // Execution strategy (isolation, retries) does NOT change the
    // key: the simulated result is the same either way.
    SweepOptions inlined = opts;
    inlined.isolate = false;
    inlined.maxRetries = 3;
    EXPECT_EQ(cellStoreKey(a, opts), cellStoreKey(a, inlined));
}

TEST(SweepStoreKey, IsTheRunKeyOfTheSameComputation)
{
    SweepOptions opts;
    opts.exp.seed = 3;
    opts.exp.watchdogCycles = 500;
    ExperimentOptions exp = opts.exp;
    exp.scale = 0.5;
    EXPECT_EQ(cellStoreKey(cpuAppCell(CpuConfig::AdvHet, "fft", 0.5), opts),
              runKey(designHash(cpuHybridFromConfig(CpuConfig::AdvHet)),
                     "fft", exp));
    EXPECT_EQ(
        cellStoreKey(gpuKernelCell(GpuConfig::AdvHet, "dct", 0.5), opts),
        runKey(designHash(gpuHybridFromConfig(GpuConfig::AdvHet)), "dct",
               exp));
    SweepCell traced = cpuTraceCell(CpuConfig::BaseCmos, "x.trace");
    traced.watchdogCycles = 7;
    exp = opts.exp;
    exp.watchdogCycles = 7;
    EXPECT_EQ(cellStoreKey(traced, opts),
              runKey(designHash(cpuHybridFromConfig(CpuConfig::BaseCmos)),
                     "trace:x.trace", exp));

    // The parent keys every cell before it forks: an out-of-range
    // config must not panic there (ChildCrashIsContained runs one).
    SweepCell bad = cpuAppCell(CpuConfig::BaseCmos, "fft");
    bad.cpuCfg = static_cast<CpuConfig>(99);
    EXPECT_NE(cellStoreKey(bad, opts),
              cellStoreKey(cpuAppCell(CpuConfig::BaseCmos, "fft"), opts));
}

TEST(SweepStore, ResumeReplaysJournaledCellsByteIdentically)
{
    const std::string dir = makeStoreDir("resume");
    SweepOptions opts;
    opts.isolate = false; // In-process: fast unit-test cells.

    // Reference run: no store at all.
    const SweepReport plain = runSweep(smallPlan(), opts);
    const std::string plain_json = sweepReportToJson(plain);

    // Cold run journals every cell (including the deterministic
    // not-found failure).
    {
        auto store = core::ResultStore::open(dir);
        ASSERT_TRUE(store.ok());
        opts.store = &store.value();
        const SweepReport cold = runSweep(smallPlan(), opts);
        EXPECT_EQ(cold.fromStoreCount(), 0u);
        EXPECT_EQ(sweepReportToJson(cold), plain_json);
        EXPECT_EQ(countEntries(dir), smallPlan().size());
    }

    // Resumed run replays all cells from the journal: byte-identical
    // report, zero re-execution.
    {
        auto store = core::ResultStore::open(dir);
        ASSERT_TRUE(store.ok());
        opts.store = &store.value();
        opts.resume = true;
        const SweepReport warm = runSweep(smallPlan(), opts);
        EXPECT_EQ(warm.fromStoreCount(), smallPlan().size());
        EXPECT_EQ(sweepReportToJson(warm), plain_json);
        EXPECT_EQ(store.value().counters().hits,
                  smallPlan().size());
    }
    removeDir(dir);
}

TEST(SweepStore, CorruptJournalEntryIsQuarantinedAndRecomputed)
{
    const std::string dir = makeStoreDir("corrupt");
    SweepOptions opts;
    opts.isolate = false;

    auto store = core::ResultStore::open(dir);
    ASSERT_TRUE(store.ok());
    opts.store = &store.value();
    const SweepReport cold = runSweep(smallPlan(), opts);
    const std::string cold_json = sweepReportToJson(cold);

    // Flip one payload byte in one journaled entry.
    const std::string victim =
        store.value().entryPath(cellStoreKey(smallPlan()[0], opts));
    const uint64_t size = workload::fileSize(victim).valueOr(0);
    ASSERT_GT(size, 0u);
    ASSERT_TRUE(workload::flipBitInFile(victim, size - 3, 2).ok());

    opts.resume = true;
    const SweepReport resumed = runSweep(smallPlan(), opts);
    // The corrupt cell re-executed; the other three replayed. The
    // report is still byte-identical to the cold run.
    EXPECT_EQ(resumed.fromStoreCount(), smallPlan().size() - 1);
    EXPECT_EQ(sweepReportToJson(resumed), cold_json);
    EXPECT_EQ(store.value().counters().quarantined, 1u);
    // And the recompute re-journaled it: a third pass replays all.
    const SweepReport again = runSweep(smallPlan(), opts);
    EXPECT_EQ(again.fromStoreCount(), smallPlan().size());
    removeDir(dir);
}

TEST(SweepStore, TransientFailuresRetryAndAreNeverJournaled)
{
    const std::string dir = makeStoreDir("retry");
    auto store = core::ResultStore::open(dir);
    ASSERT_TRUE(store.ok());

    // A huge isolated cell against a tiny wall clock: every attempt
    // is SIGKILLed (a transient, wall-clock-dependent outcome).
    SweepOptions opts;
    opts.wallLimitMs = 30.0;
    opts.maxRetries = 2;
    opts.retryBackoffMs = 1.0;
    opts.store = &store.value();
    const SweepReport report =
        runSweep({cpuAppCell(CpuConfig::BaseCmos, "fft", 5000.0)},
                 opts);
    ASSERT_EQ(report.results.size(), 1u);
    const CellResult &res = report.results[0];
    EXPECT_EQ(res.outcome, CellOutcome::TimedOut);
    EXPECT_TRUE(res.transient);
    EXPECT_EQ(res.retries, 2u);
    EXPECT_EQ(report.totalRetries(), 2u);
    // Transient outcomes must not poison the journal: a resume would
    // otherwise replay this kill forever.
    EXPECT_EQ(countEntries(dir), 0u);
    EXPECT_EQ(store.value().counters().puts, 0u);
    removeDir(dir);
}

TEST(SweepStore, DeterministicFailuresAreNotRetried)
{
    SweepOptions opts;
    opts.isolate = false;
    opts.maxRetries = 5;
    opts.retryBackoffMs = 1.0;
    const SweepReport report = runSweep(
        {cpuAppCell(CpuConfig::BaseCmos, "nosuchapp")}, opts);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].outcome, CellOutcome::Failed);
    EXPECT_FALSE(report.results[0].transient);
    EXPECT_EQ(report.results[0].retries, 0u);
}

TEST(Sweep, InlineSoftWallClockDeadlineIsExplicit)
{
    // Satellite fix: the inline (no-fork) path used to silently drop
    // the wall-clock watchdog. Now an overrunning inline cell is
    // loudly marked TimedOut with a soft-deadline explanation.
    const std::string dir = makeStoreDir("soft");
    auto store = core::ResultStore::open(dir);
    ASSERT_TRUE(store.ok());
    SweepOptions opts;
    opts.isolate = false;
    opts.wallLimitMs = 1e-6; // Any real cell overruns this.
    opts.maxRetries = 2;
    opts.retryBackoffMs = 1.0;
    opts.store = &store.value();
    const SweepReport report = runSweep(
        {cpuAppCell(CpuConfig::BaseCmos, "fft", 0.05)}, opts);
    ASSERT_EQ(report.results.size(), 1u);
    const CellResult &res = report.results[0];
    EXPECT_EQ(res.outcome, CellOutcome::TimedOut);
    EXPECT_EQ(res.status.code(), ErrorCode::Timeout);
    EXPECT_NE(res.status.message().find("soft wall-clock deadline"),
              std::string::npos)
        << res.status.message();
    // Wall-clock overruns are timing-dependent: transient, so the
    // retry budget is spent and the journal stays clean.
    EXPECT_TRUE(res.transient);
    EXPECT_EQ(res.retries, 2u);
    EXPECT_EQ(store.value().counters().puts, 0u);
    // The cell ran to completion before being flagged.
    EXPECT_GT(res.cycles, 0u);
    removeDir(dir);
}

/**
 * The acceptance scenario: SIGKILL a sweep mid-run, resume it with
 * the same flags, and the final report is byte-identical to an
 * uninterrupted run — completed cells replay from the journal
 * instead of re-executing.
 */
TEST(SweepStore, KilledSweepResumesByteIdentically)
{
    const std::string dir = makeStoreDir("kill");

    // Reference: the uninterrupted run.
    SweepOptions opts;
    opts.isolate = false;
    std::vector<SweepCell> plan;
    for (const char *app : {"fft", "lu", "radix", "cholesky"})
        plan.push_back(
            cpuAppCell(CpuConfig::BaseCmos, app, 0.5));
    const std::string reference =
        sweepReportToJson(runSweep(plan, opts));

    // Victim: same sweep, journaling to the store, killed from
    // outside once at least one cell has committed.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        auto store = core::ResultStore::open(dir);
        if (!store.ok())
            _exit(2);
        SweepOptions child_opts;
        child_opts.isolate = false;
        child_opts.store = &store.value();
        runSweep(plan, child_opts);
        _exit(0); // Finished before the kill: also fine.
    }
    // Wait for the first journaled entry, then SIGKILL mid-sweep.
    for (int i = 0; i < 2000 && countEntries(dir) == 0; ++i)
        ::usleep(1000);
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);

    const size_t journaled = countEntries(dir);
    EXPECT_GE(journaled, 1u);

    // Resume with the same flags: replay the committed prefix,
    // execute the rest, produce identical bytes.
    auto store = core::ResultStore::open(dir);
    ASSERT_TRUE(store.ok());
    opts.store = &store.value();
    opts.resume = true;
    const SweepReport resumed = runSweep(plan, opts);
    EXPECT_EQ(sweepReportToJson(resumed), reference);
    EXPECT_GE(resumed.fromStoreCount(), journaled > plan.size()
                                            ? plan.size()
                                            : journaled);
    EXPECT_EQ(store.value().counters().quarantined, 0u);
    removeDir(dir);
}

namespace
{

volatile sig_atomic_t g_sweep_preempt = 0;

void
sweepPreemptHandler(int)
{
    g_sweep_preempt = 1;
}

} // namespace

/**
 * --jobs N: the scheduler keeps results in plan order and each cell
 * computes the same deterministic result in its own forked child as
 * it does in-process, so the isolated jobs=1 and jobs=4 reports are
 * byte-identical to the in-process one — including the poisoned
 * cell, which fails identically in all three.
 */
TEST(SweepJobs, ParallelReportIsByteIdenticalToSerial)
{
    std::vector<SweepCell> plan = smallPlan();
    plan.push_back(cpuAppCell(CpuConfig::BaseTfet, "lu", 0.05));
    plan.push_back(cpuAppCell(CpuConfig::BaseHetEnh, "radix", 0.05));

    SweepOptions in_process;
    in_process.isolate = false;
    const std::string reference =
        sweepReportToJson(runSweep(plan, in_process));

    for (const unsigned jobs : {1u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        const SweepReport report = runSweep(plan, opts);
        ASSERT_EQ(report.results.size(), plan.size());
        EXPECT_EQ(sweepReportToJson(report), reference)
            << "jobs " << jobs;
    }
}

/**
 * A preemption request reaching a sweep is forwarded as SIGTERM to
 * *every* in-flight forked cell, and each drains to its own mid-run
 * checkpoint and reports preempted instead of dying; cells not yet
 * launched report that they never ran. The forked cells inherit the
 * SIGTERM handler installed here, exactly as they inherit the CLI's
 * handler in production. The request comes from a one-shot SIGALRM,
 * not a thread: forking while another thread runs can hand a child a
 * lock (a sanitizer's, say) that no thread of the child will ever
 * release. The parameter is the job count.
 */
class SweepPreemption : public testing::TestWithParam<unsigned>
{
};

TEST_P(SweepPreemption, ForwardsSigtermToAllInflightCells)
{
    const unsigned jobs = GetParam();
    const std::string dir = makeStoreDir("jobsterm");
    auto store = core::ResultStore::open(dir);
    ASSERT_TRUE(store.ok());

    // Long cells: every one launched is still running when the
    // preemption lands.
    const std::vector<SweepCell> plan = {
        cpuAppCell(CpuConfig::BaseCmos, "fft", 50.0),
        cpuAppCell(CpuConfig::BaseCmos, "lu", 50.0),
        cpuAppCell(CpuConfig::BaseCmos, "radix", 50.0),
        cpuAppCell(CpuConfig::BaseCmos, "cholesky", 50.0),
    };

    SweepOptions opts;
    opts.jobs = jobs;
    opts.store = &store.value();
    opts.checkpointDir = dir;
    opts.exp.checkpointEveryCycles = 20000;
    g_sweep_preempt = 0;
    opts.exp.preempt = &g_sweep_preempt;
    using SigHandler = void (*)(int);
    const SigHandler prev = ::signal(SIGTERM, sweepPreemptHandler);
    const SigHandler prev_alarm = ::signal(SIGALRM, sweepPreemptHandler);
    itimerval timer{};
    timer.it_value.tv_usec = 300 * 1000;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);

    const SweepReport report = runSweep(plan, opts);
    const itimerval disarm{};
    ::setitimer(ITIMER_REAL, &disarm, nullptr);
    ::signal(SIGALRM, prev_alarm);
    ::signal(SIGTERM, prev);

    ASSERT_EQ(report.results.size(), plan.size());
    EXPECT_TRUE(report.preempted());
    size_t checkpointed = 0;
    for (const CellResult &res : report.results) {
        EXPECT_TRUE(res.preempted);
        EXPECT_EQ(res.status.code(), ErrorCode::Preempted);
        if (res.status.message().find("mid-run checkpoint") !=
            std::string::npos) {
            ++checkpointed;
            // The drain happened mid-run: progress was made and
            // preserved, not discarded by the SIGTERM.
            EXPECT_GT(res.cycles, 0u);
        } else {
            EXPECT_EQ(res.status.message(),
                      "sweep preempted before this cell ran");
        }
    }
    if (jobs == 1) {
        // One cell in flight: it alone drains, and the rest never
        // ran.
        EXPECT_EQ(checkpointed, 1u);
        EXPECT_GT(report.results[0].cycles, 0u);
    } else {
        // jobs=3 had three cells in flight concurrently; every one
        // must have received the forwarded SIGTERM and drained (the
        // fourth never started).
        EXPECT_GE(checkpointed, 2u);
    }
    // Preempted outcomes never reach the durable journal.
    EXPECT_EQ(countEntries(dir), 0u);
    removeDir(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Jobs, SweepPreemption, testing::Values(1u, 3u),
    [](const testing::TestParamInfo<unsigned> &info) {
        return "jobs" + std::to_string(info.param);
    });
