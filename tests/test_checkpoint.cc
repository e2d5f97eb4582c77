/**
 * @file
 * Tests for the checkpoint/restore subsystem: the on-disk format
 * (atomic rotation, verify-on-read, quarantine, .prev fallback, key
 * fencing), `store fsck`/`gc` triage, and the headline robustness
 * invariant — a run preempted at any point and resumed from its last
 * checkpoint emits a report byte-identical to the same invocation run
 * uninterrupted.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/serialize.hh"
#include "core/checkpoint.hh"
#include "core/configs.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/fault_inject.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"
#include "workload/trace_file.hh"
#include "checkpoint_sections.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

/** 48-byte on-disk header (see checkpoint.cc): magic, schema, trace
 *  version, key/payload lengths, cycle, two checksums. Corruption
 *  tests target these offsets. */
constexpr uint64_t kHeaderSize = 48;
constexpr uint64_t kOffSchema = 4;
constexpr uint64_t kOffTraceVersion = 8;

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Fresh checkpoint directory per test. */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/hetsim_ckpt_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        path_ = dir_ + "/run" + kCheckpointSuffix;
    }

    void
    TearDown() override
    {
        std::string cmd = "rm -rf " + dir_;
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }

    std::string dir_;
    std::string path_; ///< Primary checkpoint file for most tests.
};

/** Experiment fixture: small-scale runs with a checkpoint cadence
 *  short enough that several periodic saves fire per run. */
class CheckpointExperimentTest : public CheckpointTest
{
  protected:
    ExperimentOptions
    baseOpts() const
    {
        ExperimentOptions opts;
        opts.scale = 0.1;
        opts.checkpointPath = path_;
        opts.checkpointEveryCycles = 1500;
        return opts;
    }
};

} // namespace

TEST_F(CheckpointTest, SaveLoadRoundTrip)
{
    const std::string key = "cpu|BaseCMOS|fft|seed=1";
    const std::string payload("opaque\0section\0bytes", 20);
    ASSERT_TRUE(saveCheckpoint(path_, key, 4242, payload).ok());
    ASSERT_TRUE(fileExists(path_));

    Result<LoadedCheckpoint> got = loadCheckpoint(path_, key);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got->key, key);
    EXPECT_EQ(got->payload, payload);
    EXPECT_EQ(got->cycle, 4242u);
    EXPECT_EQ(got->path, path_);
}

TEST_F(CheckpointTest, SaveLeavesNoTempFilesBehind)
{
    ASSERT_TRUE(saveCheckpoint(path_, "k", 1, "p1").ok());
    ASSERT_TRUE(saveCheckpoint(path_, "k", 2, "p2").ok());

    std::string find = "ls " + dir_ + " | grep -c tmp";
    std::FILE *p = ::popen(find.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[32] = {0};
    ASSERT_NE(std::fgets(buf, sizeof(buf), p), nullptr);
    ::pclose(p);
    EXPECT_EQ(std::atoi(buf), 0);
}

TEST_F(CheckpointTest, RotationKeepsPreviousAsFallback)
{
    ASSERT_TRUE(saveCheckpoint(path_, "k", 100, "older").ok());
    ASSERT_TRUE(saveCheckpoint(path_, "k", 200, "newer").ok());
    EXPECT_TRUE(fileExists(path_ + kCheckpointPrevSuffix));

    // Healthy primary wins.
    Result<LoadedCheckpoint> got = loadCheckpoint(path_, "k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->cycle, 200u);

    // Corrupt primary: the reader falls back to the rotation, so a
    // bit flip costs one checkpoint interval, not the run.
    const uint64_t size = workload::fileSize(path_).valueOr(0);
    ASSERT_GT(size, 0u);
    ASSERT_TRUE(workload::flipBitInFile(path_, size - 1, 2).ok());
    got = loadCheckpoint(path_, "k");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got->cycle, 100u);
    EXPECT_EQ(got->payload, "older");
    // The corrupt primary was sidelined, never to be read again.
    EXPECT_FALSE(fileExists(path_));
    EXPECT_TRUE(fileExists(path_ + ".quarantined"));
}

/**
 * The corruption matrix: every class of on-disk damage is detected
 * before a single payload byte is interpreted, the file is sidelined
 * as .quarantined, and the caller is told to cold-start (NotFound).
 */
TEST_F(CheckpointTest, EveryCorruptionClassIsQuarantined)
{
    struct Case
    {
        const char *name;
        void (*corrupt)(const std::string &path);
    };
    const Case cases[] = {
        {"truncated header",
         [](const std::string &p) {
             ASSERT_TRUE(workload::truncateFile(p, 12).ok());
         }},
        {"bad magic",
         [](const std::string &p) {
             ASSERT_TRUE(workload::flipBitInFile(p, 0, 5).ok());
         }},
        {"schema version mismatch",
         [](const std::string &p) {
             const uint32_t v = 0xffffffffu;
             ASSERT_TRUE(
                 workload::overwriteBytes(p, kOffSchema, &v, 4)
                     .ok());
         }},
        {"trace version fence",
         [](const std::string &p) {
             const uint32_t v = 0xfffffffeu;
             ASSERT_TRUE(
                 workload::overwriteBytes(p, kOffTraceVersion, &v, 4)
                     .ok());
         }},
        {"size mismatch (payload cut)",
         [](const std::string &p) {
             const uint64_t size = workload::fileSize(p).valueOr(0);
             ASSERT_GT(size, 4u);
             ASSERT_TRUE(workload::truncateFile(p, size - 4).ok());
         }},
        {"key checksum mismatch",
         [](const std::string &p) {
             ASSERT_TRUE(
                 workload::flipBitInFile(p, kHeaderSize, 1).ok());
         }},
        {"payload checksum mismatch",
         [](const std::string &p) {
             const uint64_t size = workload::fileSize(p).valueOr(0);
             ASSERT_GT(size, 1u);
             ASSERT_TRUE(
                 workload::flipBitInFile(p, size - 1, 7).ok());
         }},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path =
            dir_ + "/" + c.name[0] + std::string("-case") +
            kCheckpointSuffix;
        ASSERT_TRUE(
            saveCheckpoint(path, "the-key", 7, "the-payload").ok());
        ::unlink((path + kCheckpointPrevSuffix).c_str());

        c.corrupt(path);

        Result<LoadedCheckpoint> got =
            loadCheckpoint(path, "the-key");
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
        EXPECT_FALSE(fileExists(path));
        EXPECT_TRUE(fileExists(path + ".quarantined"));
        ::unlink((path + ".quarantined").c_str());
    }
}

TEST_F(CheckpointTest, ForeignKeyRefusedWithoutQuarantine)
{
    // A healthy checkpoint for a different run must never be
    // restored (silent result corruption) — but its bytes are fine,
    // so it is left in place for its rightful owner.
    ASSERT_TRUE(saveCheckpoint(path_, "run-A", 9, "state-A").ok());
    Result<LoadedCheckpoint> got = loadCheckpoint(path_, "run-B");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    EXPECT_TRUE(fileExists(path_));
    EXPECT_FALSE(fileExists(path_ + ".quarantined"));
    // The rightful key still restores.
    EXPECT_TRUE(loadCheckpoint(path_, "run-A").ok());
}

TEST_F(CheckpointTest, RemoveDeletesPrimaryAndRotation)
{
    ASSERT_TRUE(saveCheckpoint(path_, "k", 1, "a").ok());
    ASSERT_TRUE(saveCheckpoint(path_, "k", 2, "b").ok());
    ASSERT_TRUE(fileExists(path_));
    ASSERT_TRUE(fileExists(path_ + kCheckpointPrevSuffix));
    removeCheckpoint(path_);
    EXPECT_FALSE(fileExists(path_));
    EXPECT_FALSE(fileExists(path_ + kCheckpointPrevSuffix));
}

TEST_F(CheckpointTest, OrphanTempIsNeverReadAndFsckTriagesIt)
{
    // Simulate a SIGKILL mid-write: a partial O_EXCL temp next to no
    // completed checkpoint. The reader must not see it.
    const std::string orphan = path_ + ".tmp.12345.1";
    std::FILE *f = std::fopen(orphan.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("partial garbage", f);
    std::fclose(f);

    Result<LoadedCheckpoint> got = loadCheckpoint(path_, "k");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::NotFound);
    EXPECT_TRUE(fileExists(orphan)); // Untouched by the reader.

    // `store fsck` reports it; `store gc` prunes it.
    Result<StoreFsckReport> fsck = fsckStore(dir_);
    ASSERT_TRUE(fsck.ok()) << fsck.status().toString();
    EXPECT_EQ(fsck->orphanTemps, 1u);
    EXPECT_EQ(fsck->pruned, 0u);
    ASSERT_TRUE(fileExists(orphan));

    Result<StoreFsckReport> gc =
        fsckStore(dir_, workload::kTraceVersion, true);
    ASSERT_TRUE(gc.ok());
    EXPECT_EQ(gc->orphanTemps, 1u);
    EXPECT_EQ(gc->pruned, 1u);
    EXPECT_FALSE(fileExists(orphan));
}

TEST_F(CheckpointTest, FsckCountsEveryFileClassAndGcPrunes)
{
    // Populate one directory with every file class fsck knows:
    // healthy entries, a corrupt entry, an orphan temp, and a live
    // mid-run checkpoint with its rotation.
    Result<ResultStore> store_r = ResultStore::open(dir_);
    ASSERT_TRUE(store_r.ok());
    ResultStore &store = store_r.value();
    ASSERT_TRUE(store.put("good-1", "payload-1").ok());
    ASSERT_TRUE(store.put("good-2", "payload-2").ok());
    ASSERT_TRUE(store.put("doomed", "payload-3").ok());
    const std::string doomed = store.entryPath("doomed");
    const uint64_t size = workload::fileSize(doomed).valueOr(0);
    ASSERT_GT(size, 1u);
    ASSERT_TRUE(workload::flipBitInFile(doomed, size - 1, 0).ok());

    const std::string orphan = dir_ + "/cell-feed.hckp.tmp.99.1";
    std::FILE *f = std::fopen(orphan.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("torn write", f);
    std::fclose(f);

    const std::string ckpt = dir_ + "/cell-cafe" + kCheckpointSuffix;
    ASSERT_TRUE(saveCheckpoint(ckpt, "cell", 10, "s1").ok());
    ASSERT_TRUE(saveCheckpoint(ckpt, "cell", 20, "s2").ok());

    // First pass: triage. The corrupt entry is quarantined (exactly
    // what a get() would do), live checkpoints are left alone.
    Result<StoreFsckReport> fsck = fsckStore(dir_);
    ASSERT_TRUE(fsck.ok()) << fsck.status().toString();
    EXPECT_EQ(fsck->okEntries, 2u);
    EXPECT_EQ(fsck->corruptEntries, 1u);
    EXPECT_EQ(fsck->quarantined, 1u);
    EXPECT_EQ(fsck->orphanTemps, 1u);
    EXPECT_EQ(fsck->checkpoints, 2u); // .hckp + .prev
    EXPECT_EQ(fsck->okCheckpoints, 2u);
    EXPECT_EQ(fsck->corruptCheckpoints, 0u);
    EXPECT_EQ(fsck->pruned, 0u);
    EXPECT_FALSE(fileExists(doomed));
    EXPECT_TRUE(fileExists(doomed + ".quarantined"));

    // gc: quarantined entries and orphan temps go; healthy entries
    // and resumable checkpoints stay.
    Result<StoreFsckReport> gc =
        fsckStore(dir_, workload::kTraceVersion, true);
    ASSERT_TRUE(gc.ok());
    EXPECT_EQ(gc->okEntries, 2u);
    EXPECT_EQ(gc->corruptEntries, 0u);
    EXPECT_EQ(gc->quarantined, 1u);
    EXPECT_EQ(gc->orphanTemps, 1u);
    EXPECT_EQ(gc->pruned, 2u);
    EXPECT_FALSE(fileExists(doomed + ".quarantined"));
    EXPECT_FALSE(fileExists(orphan));
    EXPECT_TRUE(fileExists(ckpt));
    EXPECT_TRUE(fileExists(ckpt + kCheckpointPrevSuffix));

    // Third pass: clean bill of health.
    Result<StoreFsckReport> clean = fsckStore(dir_);
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(clean->okEntries, 2u);
    EXPECT_EQ(clean->corruptEntries, 0u);
    EXPECT_EQ(clean->quarantined, 0u);
    EXPECT_EQ(clean->orphanTemps, 0u);
    EXPECT_EQ(clean->checkpoints, 2u);

    // Store reads still verify after the sweep-up.
    EXPECT_EQ(store.get("good-1").value(), "payload-1");
    EXPECT_EQ(store.get("good-2").value(), "payload-2");
}

TEST_F(CheckpointTest, FsckVerifiesCheckpointsReportOnly)
{
    // A healthy checkpoint and a bit-flipped one (with a healthy
    // rotation). fsck verifies every checkpoint's header and
    // checksums but never renames or removes one: the corrupt
    // primary is reported and left in place — its .prev fallback
    // still restores the run, and the owning run quarantines on
    // load, so a maintenance pass must not race it.
    const std::string good = dir_ + "/cell-aaaa" + kCheckpointSuffix;
    ASSERT_TRUE(saveCheckpoint(good, "run-a", 5, "state-a").ok());

    const std::string bad = dir_ + "/cell-bbbb" + kCheckpointSuffix;
    ASSERT_TRUE(saveCheckpoint(bad, "run-b", 5, "s1").ok());
    ASSERT_TRUE(saveCheckpoint(bad, "run-b", 9, "s2").ok());
    const uint64_t size = workload::fileSize(bad).valueOr(0);
    ASSERT_GT(size, 1u);
    ASSERT_TRUE(workload::flipBitInFile(bad, size - 1, 3).ok());

    // Direct verification is report-only and key-blind.
    EXPECT_TRUE(verifyCheckpointFile(good).ok());
    const Status v = verifyCheckpointFile(bad);
    EXPECT_EQ(v.code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(fileExists(bad)); // Not quarantined by verify.

    Result<StoreFsckReport> fsck = fsckStore(dir_);
    ASSERT_TRUE(fsck.ok()) << fsck.status().toString();
    EXPECT_EQ(fsck->checkpoints, 3u); // good + bad + bad.prev
    EXPECT_EQ(fsck->okCheckpoints, 2u);
    EXPECT_EQ(fsck->corruptCheckpoints, 1u);
    EXPECT_EQ(fsck->pruned, 0u);
    EXPECT_TRUE(fileExists(good));
    EXPECT_TRUE(fileExists(bad));
    EXPECT_TRUE(fileExists(bad + kCheckpointPrevSuffix));
    EXPECT_FALSE(fileExists(bad + ".quarantined"));

    // gc prunes nothing either: live checkpoints are never touched,
    // corrupt or not.
    Result<StoreFsckReport> gc =
        fsckStore(dir_, workload::kTraceVersion, true);
    ASSERT_TRUE(gc.ok());
    EXPECT_EQ(gc->corruptCheckpoints, 1u);
    EXPECT_EQ(gc->pruned, 0u);
    EXPECT_TRUE(fileExists(bad));
    EXPECT_TRUE(fileExists(bad + kCheckpointPrevSuffix));

    // The owning run still restores through the .prev fallback.
    Result<LoadedCheckpoint> got = loadCheckpoint(bad, "run-b");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(got->payload, "s1");
    EXPECT_EQ(got->cycle, 5u);
}

namespace
{

/** Preemption flag the experiment polls; tests flip it to simulate a
 *  SIGTERM landing mid-run. */
volatile sig_atomic_t g_test_preempt = 0;

} // namespace

/**
 * The headline invariant, CPU side: preempt a run (here: the flag is
 * already set, so it drains at the first opportunity), restore from
 * the saved checkpoint, and the completed run's report is
 * byte-identical to the same invocation run uninterrupted.
 */
TEST_F(CheckpointExperimentTest, CpuPreemptResumeIsByteIdentical)
{
    const auto &app = workload::cpuApp("fft");

    // Reference: same cadence (the cadence shapes drain cycles, so it
    // participates in the identity key), never interrupted.
    ExperimentOptions ref_opts = baseOpts();
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseHet, app, ref_opts, &ref_report);
    EXPECT_FALSE(ref.preempted);
    // A finished run never resumes from stale state.
    EXPECT_FALSE(fileExists(ref_opts.checkpointPath));

    // Preempted segment: drains, saves, reports preempted.
    ExperimentOptions opts = baseOpts();
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const CpuOutcome cut =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    EXPECT_TRUE(cut.preempted);
    EXPECT_LT(cut.cycles, ref.cycles);
    EXPECT_TRUE(fileExists(path_));

    // Resume: restores mid-run state and finishes the remainder.
    g_test_preempt = 0;
    obs::RunReport resumed_report;
    const CpuOutcome resumed = runCpuExperiment(
        CpuConfig::BaseHet, app, opts, &resumed_report);
    EXPECT_FALSE(resumed.preempted);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed_report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_));
}

/** The same invariant with the preemption landing at an arbitrary
 *  wall-clock point mid-run, possibly across several segments. */
TEST_F(CheckpointExperimentTest, CpuRepeatedMidRunPreemptionResumes)
{
    const auto &app = workload::cpuApp("lu");

    ExperimentOptions ref_opts = baseOpts();
    ref_opts.scale = 0.15;
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseCmos, app, ref_opts, &ref_report);
    ASSERT_FALSE(ref.preempted);

    ExperimentOptions opts = baseOpts();
    opts.scale = 0.15;
    opts.preempt = &g_test_preempt;
    obs::RunReport report;
    CpuOutcome out;
    int segments = 0;
    for (; segments < 64; ++segments) {
        g_test_preempt = 0;
        std::thread preempter([] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            g_test_preempt = 1;
        });
        report = obs::RunReport();
        out = runCpuExperiment(CpuConfig::BaseCmos, app, opts,
                               &report);
        preempter.join();
        if (!out.preempted)
            break;
        EXPECT_TRUE(fileExists(path_));
    }
    g_test_preempt = 0;
    ASSERT_FALSE(out.preempted) << "never completed in 64 segments";
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_));
}

/** The headline invariant, GPU side. */
TEST_F(CheckpointExperimentTest, GpuPreemptResumeIsByteIdentical)
{
    const auto &kernel = workload::gpuKernel("matrixmul");

    ExperimentOptions ref_opts = baseOpts();
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const GpuOutcome ref = runGpuExperiment(
        GpuConfig::BaseHet, kernel, ref_opts, &ref_report);
    EXPECT_FALSE(ref.preempted);
    EXPECT_FALSE(fileExists(ref_opts.checkpointPath));

    ExperimentOptions opts = baseOpts();
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const GpuOutcome cut =
        runGpuExperiment(GpuConfig::BaseHet, kernel, opts);
    EXPECT_TRUE(cut.preempted);
    EXPECT_LT(cut.cycles, ref.cycles);
    EXPECT_TRUE(fileExists(path_));

    g_test_preempt = 0;
    obs::RunReport resumed_report;
    const GpuOutcome resumed = runGpuExperiment(
        GpuConfig::BaseHet, kernel, opts, &resumed_report);
    EXPECT_FALSE(resumed.preempted);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed_report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_));
}

using GpuResumeCase = std::tuple<GpuConfig, const char *>;

class GpuPreemptResume
    : public CheckpointExperimentTest,
      public ::testing::WithParamInterface<GpuResumeCase>
{
};

/** Preempt at every periodic drain and resume from each checkpoint
 *  until the run completes: the final report must be byte-identical
 *  to the uninterrupted run at the same cadence. Every segment starts
 *  from restored, idle CUs, so the run loop must rebuild each CU's
 *  wake cycle from that state; the barrier-heavy kernels drain with
 *  wavefronts parked at barriers along the way. */
TEST_P(GpuPreemptResume, ResumingAtEveryDrainIsByteIdentical)
{
    const auto &[cfg, kernel_name] = GetParam();
    const auto &kernel = workload::gpuKernel(kernel_name);

    ExperimentOptions ref_opts = baseOpts();
    ref_opts.checkpointEveryCycles = 1000;
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const GpuOutcome ref =
        runGpuExperiment(cfg, kernel, ref_opts, &ref_report);
    ASSERT_FALSE(ref.preempted);

    // With the flag kept set, each call restores the last checkpoint,
    // runs to the next drain, saves there and stops.
    ExperimentOptions opts = baseOpts();
    opts.checkpointEveryCycles = 1000;
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const uint64_t max_segments =
        ref.cycles / opts.checkpointEveryCycles + 2;
    obs::RunReport report;
    GpuOutcome out;
    uint64_t segments = 0, last_cut = 0;
    do {
        report = obs::RunReport();
        out = runGpuExperiment(cfg, kernel, opts, &report);
        ++segments;
        if (out.preempted) {
            EXPECT_GT(out.cycles, last_cut) << "segment " << segments;
            last_cut = out.cycles;
        }
    } while (out.preempted && segments < max_segments);
    g_test_preempt = 0;

    ASSERT_FALSE(out.preempted) << "unfinished after " << segments
                                << " segments";
    EXPECT_GT(segments, 2u);
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_));
}

INSTANTIATE_TEST_SUITE_P(
    BarrierKernels, GpuPreemptResume,
    ::testing::Combine(::testing::Values(GpuConfig::BaseHet,
                                         GpuConfig::AdvHet2X),
                       ::testing::Values("matrixmul", "bitonicsort")),
    [](const ::testing::TestParamInfo<GpuResumeCase> &info) {
        // "AdvHet-2X" is not a valid test name.
        std::string name = gpuConfigName(std::get<0>(info.param));
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name + "_" + std::get<1>(info.param);
    });

// ------------------- Checkpoint bytes after a resume ----------------

namespace
{

/** A hook that appends every periodic payload to `payloads`. */
CheckpointHook
collectPayloads(std::vector<std::string> &payloads, uint64_t every)
{
    CheckpointHook hook;
    hook.everyCycles = every;
    hook.save = [&payloads](uint64_t, const std::string &payload) {
        payloads.push_back(payload);
    };
    return hook;
}

/** The periodic payloads of a run of `app` on `bundle`, from a fresh
 *  chip or one restored from `from`. */
std::vector<std::string>
cpuPayloads(const CpuConfigBundle &bundle, const workload::AppProfile &app,
            double scale, uint64_t every, const std::string *from)
{
    auto traces = workload::makeCpuWorkload(app, bundle.numCores, 1, scale);
    std::vector<cpu::TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    cpu::Multicore mc(bundle.sim, ptrs);
    if (from != nullptr) {
        Deserializer des(*from);
        EXPECT_TRUE(mc.restoreState(des)) << des.status().toString();
    }
    std::vector<std::string> payloads;
    mc.setCheckpointHook(collectPayloads(payloads, every));
    mc.run();
    return payloads;
}

std::vector<std::string>
gpuPayloads(const GpuConfigBundle &bundle,
            const workload::KernelProfile &kernel, double scale,
            uint64_t every, const std::string *from)
{
    workload::SyntheticKernel k(kernel, 1, scale);
    gpu::Gpu gpu(bundle.sim);
    if (from != nullptr) {
        Deserializer des(*from);
        EXPECT_TRUE(gpu.restoreState(des)) << des.status().toString();
    }
    std::vector<std::string> payloads;
    gpu.setCheckpointHook(collectPayloads(payloads, every));
    gpu.run(k);
    return payloads;
}

/** Resume from each of `twin`'s payloads but the last: the resumed
 *  run must write exactly the twin's later payloads. */
void
expectResumesWriteTwinBytes(
    const std::vector<std::string> &twin,
    const std::function<std::vector<std::string>(const std::string &)>
        &resume)
{
    ASSERT_GE(twin.size(), 3u);
    for (size_t k = 0; k + 1 < twin.size(); ++k) {
        const std::vector<std::string> later = resume(twin[k]);
        ASSERT_EQ(later.size(), twin.size() - k - 1) << "from " << k;
        for (size_t j = 0; j < later.size(); ++j) {
            EXPECT_TRUE(later[j] == twin[k + 1 + j])
                << "resumed from " << k << ", save " << k + 1 + j;
        }
    }
}

} // namespace

/** A run resumed from any periodic checkpoint writes its later
 *  checkpoints byte-identical to its uninterrupted twin's. A restored
 *  cache ranks its invalid ways afresh, and a restored chip holds no
 *  state that was not saved, so this holds only if every saved byte,
 *  the caches' recency ranks included, depends on the simulated
 *  machine alone. AdvHet lock_heavy brings MESI invalidations and the
 *  asymmetric DL1's promotions and demotions. */
TEST(ResumedCheckpoints, CpuResumeWritesTheTwinsBytes)
{
    const CpuConfigBundle bundle = makeCpuConfig(CpuConfig::AdvHet);
    const auto &app = workload::cpuApp("lock_heavy");
    const double scale = 0.05; // about 42k cycles
    const uint64_t every = 5000;
    expectResumesWriteTwinBytes(
        cpuPayloads(bundle, app, scale, every, nullptr),
        [&](const std::string &from) {
            return cpuPayloads(bundle, app, scale, every, &from);
        });
}

TEST(ResumedCheckpoints, GpuResumeWritesTheTwinsBytes)
{
    const GpuConfigBundle bundle = makeGpuConfig(GpuConfig::AdvHet);
    const auto &kernel = workload::gpuKernel("reduction");
    const double scale = 0.2; // about 26k cycles
    const uint64_t every = 3000;
    expectResumesWriteTwinBytes(
        gpuPayloads(bundle, kernel, scale, every, nullptr),
        [&](const std::string &from) {
            return gpuPayloads(bundle, kernel, scale, every, &from);
        });
}

// ------------------- Recorded workloads -----------------------------

using ReplayCase = std::tuple<CpuConfig, const char *>;

namespace
{

/** Test-name form of a case ("AdvHet-2X" is not a valid name). */
std::string
caseName(const ::testing::TestParamInfo<ReplayCase> &info)
{
    std::string name = cpuConfigName(std::get<0>(info.param));
    name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
    return name + "_" + std::get<1>(info.param);
}

} // namespace

class CpuReplay : public CheckpointExperimentTest,
                  public ::testing::WithParamInterface<ReplayCase>
{
  protected:
    /** Run the case's Table IV config on its app. */
    CpuOutcome
    run(const ExperimentOptions &opts, obs::RunReport *report,
        const workload::CpuRecording *recording) const
    {
        const CpuConfig cfg = std::get<0>(GetParam());
        return runCpuBundle(makeCpuConfig(cfg, opts.freqGhz),
                            cpuConfigName(cfg),
                            designHash(cpuHybridFromConfig(cfg)), app(),
                            opts, report, nullptr, recording);
    }

    const workload::AppProfile &
    app() const
    {
        return workload::cpuApp(std::get<1>(GetParam()));
    }

    uint32_t
    cores() const
    {
        return cpuHybridFromConfig(std::get<0>(GetParam())).numCores;
    }
};

/** A run that replays a recording of its workload is the run that
 *  streams it from the generators: same report bytes. */
TEST_P(CpuReplay, ReplayMatchesStreaming)
{
    ExperimentOptions opts;
    opts.scale = 0.01;
    const workload::CpuRecording rec(app(), cores(), opts.seed,
                                     opts.scale);
    obs::RunReport streamed, replayed;
    run(opts, &streamed, nullptr);
    run(opts, &replayed, &rec);
    EXPECT_EQ(replayed.toJson(), streamed.toJson());
}

/** The same with the run preempted at every periodic drain: each
 *  segment opens fresh cursors over the recording and re-seeks them
 *  to the checkpoint, and the final report matches the uninterrupted
 *  streaming run at the same cadence. */
TEST_P(CpuReplay, ResumingAtEveryDrainIsByteIdentical)
{
    ExperimentOptions ref_opts = baseOpts();
    ref_opts.scale = 0.01;
    ref_opts.checkpointEveryCycles = 1000;
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = run(ref_opts, &ref_report, nullptr);
    ASSERT_FALSE(ref.preempted);

    ExperimentOptions opts = ref_opts;
    opts.checkpointPath = path_;
    const workload::CpuRecording rec(app(), cores(), opts.seed,
                                     opts.scale);
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const uint64_t max_segments =
        ref.cycles / opts.checkpointEveryCycles + 2;
    obs::RunReport report;
    CpuOutcome out;
    uint64_t segments = 0;
    do {
        report = obs::RunReport();
        out = run(opts, &report, &rec);
        ++segments;
    } while (out.preempted && segments < max_segments);
    g_test_preempt = 0;

    ASSERT_FALSE(out.preempted) << "unfinished after " << segments
                                << " segments";
    EXPECT_GT(segments, 2u);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_));
}

/** A recording whose thread count is not the run's core count (here
 *  through coresOverride) is not replayed: the run streams, and its
 *  report is the streaming run's. */
TEST_P(CpuReplay, MismatchedCoresStream)
{
    ExperimentOptions opts;
    opts.scale = 0.01;
    opts.coresOverride = cores() / 2;
    const workload::CpuRecording rec(app(), cores(), opts.seed,
                                     opts.scale);
    obs::RunReport streamed, with_rec;
    run(opts, &streamed, nullptr);
    run(opts, &with_rec, &rec);
    EXPECT_EQ(with_rec.toJson(), streamed.toJson());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, CpuReplay,
    ::testing::Combine(::testing::Values(CpuConfig::BaseCmos,
                                         CpuConfig::AdvHet,
                                         CpuConfig::AdvHet2X),
                       ::testing::Values("fft", "canneal",
                                         "lock_heavy")),
    caseName);

/** A recording of another workload is a caller bug, not a silent
 *  wrong answer. */
TEST(CpuReplayDeath, ForeignRecordingPanics)
{
    ExperimentOptions opts;
    opts.scale = 0.01;
    const workload::CpuRecording rec(workload::cpuApp("lu"), 4,
                                     opts.seed, opts.scale);
    EXPECT_DEATH(runCpuExperiment(CpuConfig::BaseCmos,
                                  workload::cpuApp("fft"), opts,
                                  nullptr, nullptr, &rec),
                 "recording is not this run's workload \\(fft");
}

/** A corrupt checkpoint must cost the saved progress, never the run:
 *  quarantine, cold start, and the report is still byte-identical. */
TEST_F(CheckpointExperimentTest, CorruptCheckpointColdStartsCleanly)
{
    const auto &app = workload::cpuApp("fft");

    ExperimentOptions ref_opts = baseOpts();
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseCmos, app, ref_opts, &ref_report);
    ASSERT_FALSE(ref.preempted);

    // Leave a preempted checkpoint behind, then smash it.
    ExperimentOptions opts = baseOpts();
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const CpuOutcome cut =
        runCpuExperiment(CpuConfig::BaseCmos, app, opts);
    g_test_preempt = 0;
    ASSERT_TRUE(cut.preempted);
    ASSERT_TRUE(fileExists(path_));
    ASSERT_TRUE(workload::flipBitInFile(path_, kHeaderSize + 2, 4)
                    .ok());
    // No .prev here (first save); wipe any rotation to force the
    // cold-start path rather than the fallback path.
    ::unlink((path_ + kCheckpointPrevSuffix).c_str());

    obs::RunReport report;
    const CpuOutcome out = runCpuExperiment(
        CpuConfig::BaseCmos, app, opts, &report);
    EXPECT_FALSE(out.preempted);
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
    EXPECT_TRUE(fileExists(path_ + ".quarantined"));
}

namespace
{

/**
 * Leave a BaseHet lock_heavy checkpoint (scale 0.05, 4 cores) at the
 * run's second drain, apply `edit` to its directory section payload
 * (re-checksummed, so only the hierarchy's own restore checks can
 * reject it), and check that the run refuses it: it cold-starts (its
 * next preempted segment stops at the first drain again) and still
 * finishes byte-identical to the uninterrupted run. `opts` names the
 * checkpoint path and cadence; `ref_path` is the uninterrupted run's.
 */
void
expectDirectoryEditColdStarts(ExperimentOptions opts,
                              const std::string &ref_path,
                              const std::function<void(std::string &)> &edit)
{
    const auto &app = workload::cpuApp("lock_heavy");
    opts.scale = 0.05;
    opts.coresOverride = 4;
    const std::string path = opts.checkpointPath;
    const std::string key = runKey(
        designHash(cpuHybridFromConfig(CpuConfig::BaseHet)), app.name,
        opts);

    ExperimentOptions ref_opts = opts;
    ref_opts.checkpointPath = ref_path;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseHet, app, ref_opts, &ref_report);
    ASSERT_FALSE(ref.preempted);

    // Two preempted segments leave a checkpoint at the second drain.
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const CpuOutcome first =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    const CpuOutcome second =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    g_test_preempt = 0;
    ASSERT_TRUE(first.preempted);
    ASSERT_TRUE(second.preempted);
    ASSERT_GT(second.cycles, first.cycles);

    Result<LoadedCheckpoint> ckpt = loadCheckpoint(path, key);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().toString();
    std::string payload = ckpt->payload;
    ASSERT_TRUE(test::rewriteSection(payload, "directory", edit));
    ASSERT_TRUE(saveCheckpoint(path, key, ckpt->cycle, payload).ok());
    ::unlink((path + kCheckpointPrevSuffix).c_str());

    g_test_preempt = 1;
    const CpuOutcome again =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    g_test_preempt = 0;
    EXPECT_TRUE(again.preempted);
    EXPECT_EQ(again.cycles, first.cycles);

    obs::RunReport report;
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::BaseHet, app, opts, &report);
    EXPECT_FALSE(out.preempted);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
}

} // namespace

/** A directory entry naming a core the chip lacks is refused. */
TEST_F(CheckpointExperimentTest, InconsistentDirectoryColdStarts)
{
    expectDirectoryEditColdStarts(
        baseOpts(), dir_ + "/ref" + kCheckpointSuffix,
        [](std::string &dir) {
            ASSERT_GT(test::readLe(dir, 0, 8), 0u);
            test::setDirEntry(dir, 0, 1u << 4, 4); // core 4 of 0..3
        });
}

/** A directory entry whose sharers are every core that does not hold
 *  the line (each bit in range, no owner) is refused: the restored
 *  L2s contradict it. */
TEST_F(CheckpointExperimentTest, DirectorySharerMismatchColdStarts)
{
    expectDirectoryEditColdStarts(
        baseOpts(), dir_ + "/ref" + kCheckpointSuffix,
        [](std::string &dir) {
            ASSERT_GT(test::readLe(dir, 0, 8), 0u);
            const uint32_t holders = test::dirSharers(dir, 0);
            test::setDirEntry(dir, 0, ~holders & 0xFu, -1);
        });
}

/** A directory entry count other than the L3's resident line count is
 *  refused (the entries carry no addresses, so a count that does not
 *  match cannot be paired with the L3's lines). */
TEST_F(CheckpointExperimentTest, DirectoryCountMismatchColdStarts)
{
    expectDirectoryEditColdStarts(
        baseOpts(), dir_ + "/ref" + kCheckpointSuffix,
        [](std::string &dir) {
            const uint64_t n = test::readLe(dir, 0, 8);
            ASSERT_GT(n, 0u);
            test::writeLe(dir, 0, 8, n - 1);
        });
}

/** A checkpoint that passes every checksum but stages a micro-op whose
 *  registers lie outside the core's scoreboard is refused at restore:
 *  the run cold-starts (its preempted segment stops at the first drain
 *  again) and still finishes byte-identical to the uninterrupted run. */
TEST_F(CheckpointExperimentTest, CorruptStagedMicroOpColdStarts)
{
    const auto &app = workload::cpuApp("fft");
    ExperimentOptions opts = baseOpts();
    const std::string key = runKey(
        designHash(cpuHybridFromConfig(CpuConfig::BaseHet)), app.name,
        opts);

    ExperimentOptions ref_opts = opts;
    ref_opts.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseHet, app, ref_opts, &ref_report);
    ASSERT_FALSE(ref.preempted);

    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const CpuOutcome cut =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    g_test_preempt = 0;
    ASSERT_TRUE(cut.preempted);

    Result<LoadedCheckpoint> ckpt =
        loadCheckpoint(path_, key);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().toString();
    std::string payload = ckpt->payload;
    ASSERT_TRUE(test::rewriteSection(
        payload, "core", [](std::string &core) {
            // u32 core id, u64 fetch-queue length, per queued op a
            // 33-byte micro-op and a mispredict flag, the staged
            // flag, then the staged micro-op: class u8, src1 u16,
            // src2 u16, dst u16, ...
            const size_t staged =
                4 + 8 + test::readLe(core, 4, 8) * (33 + 1) + 1;
            ASSERT_LT(staged + 7, core.size());
            test::writeLe(core, staged + 1, 2, 20000); // src1
            test::writeLe(core, staged + 5, 2, 20000); // dst
        }));
    ASSERT_TRUE(saveCheckpoint(path_, key, ckpt->cycle, payload).ok());
    ::unlink((path_ + kCheckpointPrevSuffix).c_str());

    g_test_preempt = 1;
    const CpuOutcome again =
        runCpuExperiment(CpuConfig::BaseHet, app, opts);
    g_test_preempt = 0;
    EXPECT_TRUE(again.preempted);
    EXPECT_EQ(again.cycles, cut.cycles);

    obs::RunReport report;
    const CpuOutcome out =
        runCpuExperiment(CpuConfig::BaseHet, app, opts, &report);
    EXPECT_FALSE(out.preempted);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
}

/** A checkpoint saved under one identity must not leak into another
 *  invocation (different seed → different key → cold start). */
TEST_F(CheckpointExperimentTest, DifferentSeedRefusesCheckpoint)
{
    const auto &app = workload::cpuApp("fft");

    ExperimentOptions opts = baseOpts();
    g_test_preempt = 1;
    opts.preempt = &g_test_preempt;
    const CpuOutcome cut =
        runCpuExperiment(CpuConfig::BaseCmos, app, opts);
    g_test_preempt = 0;
    ASSERT_TRUE(cut.preempted);
    ASSERT_TRUE(fileExists(path_));

    // Same path, different seed: the foreign checkpoint is refused
    // (not quarantined), the run cold-starts and completes.
    ExperimentOptions other = baseOpts();
    other.seed = 99;
    ExperimentOptions other_ref = other;
    other_ref.checkpointPath = dir_ + "/ref" + kCheckpointSuffix;
    obs::RunReport ref_report;
    const CpuOutcome ref = runCpuExperiment(
        CpuConfig::BaseCmos, app, other_ref, &ref_report);

    obs::RunReport report;
    const CpuOutcome out = runCpuExperiment(
        CpuConfig::BaseCmos, app, other, &report);
    EXPECT_FALSE(out.preempted);
    EXPECT_EQ(report.toJson(), ref_report.toJson());
    EXPECT_FALSE(fileExists(path_ + ".quarantined"));
}
