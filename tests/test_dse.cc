/**
 * @file
 * Unit tests for the design-space exploration subsystem: hybrid-design
 * naming/hashing, synthesis rejections, config-name round trips,
 * enumeration, the run key and the run-record codec, memoized
 * thread-pool evaluation (bit-identical across job counts) and its
 * durable store tier, greedy search, and Pareto-front extraction.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cmath>
#include <csignal>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/configs.hh"
#include "core/dse.hh"
#include "core/result_store.hh"
#include "workload/cpu_profiles.hh"
#include "workload/fault_inject.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::core;

TEST(ConfigNames, CpuRoundTripsForAllEnumValues)
{
    for (int i = 0; i < kNumCpuConfigs; ++i) {
        const auto cfg = static_cast<CpuConfig>(i);
        const auto back = cpuConfigFromName(cpuConfigName(cfg));
        ASSERT_TRUE(back.ok()) << cpuConfigName(cfg);
        EXPECT_EQ(back.value(), cfg);
    }
}

TEST(ConfigNames, GpuRoundTripsForAllEnumValues)
{
    for (int i = 0; i < kNumGpuConfigs; ++i) {
        const auto cfg = static_cast<GpuConfig>(i);
        const auto back = gpuConfigFromName(gpuConfigName(cfg));
        ASSERT_TRUE(back.ok()) << gpuConfigName(cfg);
        EXPECT_EQ(back.value(), cfg);
    }
}

TEST(HybridDesign, NamesAndHashesAreStableAndCollisionFree)
{
    // Names are the canonical identity: distinct designs get distinct
    // names, and the FNV-1a hash over the name is collision-free over
    // the whole enumerated space (CPU + GPU).
    std::set<std::string> names;
    std::set<uint64_t> hashes;
    const auto cpus = enumerateCpuDesigns();
    for (const auto &d : cpus) {
        EXPECT_TRUE(names.insert(designName(d)).second)
            << designName(d);
        EXPECT_TRUE(hashes.insert(designHash(d)).second)
            << designName(d);
        EXPECT_EQ(designHash(d), designHash(d));
    }
    for (const auto &d : enumerateGpuDesigns()) {
        EXPECT_TRUE(names.insert(designName(d)).second)
            << designName(d);
        EXPECT_TRUE(hashes.insert(designHash(d)).second)
            << designName(d);
    }
}

TEST(HybridDesign, SynthesisRejectsInexpressibleDesigns)
{
    CpuHybridDesign half;
    half.halfClock = true;
    half.alu = power::DeviceClass::Tfet; // Mixed with per-unit choice.
    EXPECT_FALSE(synthesizeCpuBundle(half).ok());

    CpuHybridDesign hivt_array;
    hivt_array.dl1 = power::DeviceClass::HighVt;
    EXPECT_FALSE(synthesizeCpuBundle(hivt_array).ok());

    CpuHybridDesign split_cmos;
    split_cmos.dualSpeedAlu = true; // Requires a TFET ALU cluster.
    EXPECT_FALSE(synthesizeCpuBundle(split_cmos).ok());

    CpuHybridDesign odd_rob;
    odd_rob.robSize = 100;
    EXPECT_FALSE(synthesizeCpuBundle(odd_rob).ok());

    GpuHybridDesign ghalf;
    ghalf.halfClock = true;
    ghalf.rfCache = true;
    EXPECT_FALSE(synthesizeGpuBundle(ghalf).ok());
}

TEST(Enumeration, CpuSpaceIsLargeValidAndDeterministic)
{
    const auto designs = enumerateCpuDesigns();
    EXPECT_GE(designs.size(), 64u);
    for (const auto &d : designs)
        EXPECT_TRUE(synthesizeCpuBundle(d).ok()) << designName(d);
    EXPECT_EQ(designs, enumerateCpuDesigns()); // Stable order.

    // Every Table IV CPU configuration (at its default core count) is
    // a point of the full space.
    std::set<uint64_t> hashes;
    for (const auto &d : designs)
        hashes.insert(designHash(d));
    for (int i = 0; i < kNumCpuConfigs; ++i) {
        const auto cfg = static_cast<CpuConfig>(i);
        if (cfg == CpuConfig::AdvHet2X)
            continue; // 8-core variant; the space fixes numCores=4.
        EXPECT_TRUE(hashes.count(
            designHash(cpuHybridFromConfig(cfg))))
            << cpuConfigName(cfg);
    }
}

TEST(Enumeration, GpuSpaceHas17Points)
{
    const auto designs = enumerateGpuDesigns();
    EXPECT_EQ(designs.size(), 17u);
    for (const auto &d : designs)
        EXPECT_TRUE(synthesizeGpuBundle(d).ok()) << designName(d);
}

TEST(RunKey, KeysEveryResultInputExactly)
{
    const ExperimentOptions base;
    const std::string key = runKey(1, "fft", base);
    EXPECT_EQ(runKey(1, "fft", base), key);

    // One input changed at a time: each names a new computation.
    std::vector<std::string> keys = {key, runKey(2, "fft", base),
                                     runKey(1, "fmm", base)};
    const auto with = [&](void (*change)(ExperimentOptions &)) {
        ExperimentOptions o = base;
        change(o);
        keys.push_back(runKey(1, "fft", o));
    };
    with([](ExperimentOptions &o) { o.seed = 2; });
    with([](ExperimentOptions &o) { o.scale = 0.5; });
    with([](ExperimentOptions &o) { o.scale = std::nextafter(1.0, 2.0); });
    with([](ExperimentOptions &o) { o.freqGhz = 2.0000000001; });
    with([](ExperimentOptions &o) { o.freqGhz = std::nextafter(2.0, 3.0); });
    with([](ExperimentOptions &o) { o.variationGuardband = true; });
    with([](ExperimentOptions &o) { o.coresOverride = 2; });
    with([](ExperimentOptions &o) { o.watchdogCycles = 1000; });
    with([](ExperimentOptions &o) { o.noSkip = true; });
    with([](ExperimentOptions &o) { o.checkpointEveryCycles = 2000; });
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size());

    // Where a run checkpoints and who may preempt it are not keyed.
    static volatile sig_atomic_t flag = 0;
    ExperimentOptions placed = base;
    placed.checkpointPath = "elsewhere.hckp";
    placed.preempt = &flag;
    EXPECT_EQ(runKey(1, "fft", placed), key);
}

TEST(RunRecord, DecodingRejectsEveryDamagedEncoding)
{
    RunRecord rec;
    rec.status = Status::error(ErrorCode::Timeout,
                               "cycle watchdog fired at 5000 cycles");
    rec.cycles = 5000;
    rec.ops = 1234;
    rec.seconds = 2.5e-6;
    rec.energyJ = 1.0 / 3.0;
    rec.reportJson = "{\"cycles\": 5000}\n";
    const std::string bytes = encodeRunRecord(rec);

    const Result<RunRecord> back = decodeRunRecord(bytes);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->status.code(), ErrorCode::Timeout);
    EXPECT_EQ(back->status.message(), rec.status.message());
    EXPECT_EQ(back->cycles, rec.cycles);
    EXPECT_EQ(back->ops, rec.ops);
    EXPECT_EQ(back->seconds, rec.seconds);
    EXPECT_EQ(back->energyJ, rec.energyJ);
    EXPECT_EQ(back->reportJson, rec.reportJson);

    // The sweep settles a child as soon as its buffer decodes, so no
    // strict prefix may decode.
    for (size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(decodeRunRecord(bytes.substr(0, n)).ok())
            << "prefix of " << n << " bytes";
    for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
        std::string flipped = bytes;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        EXPECT_FALSE(decodeRunRecord(flipped).ok()) << "bit " << bit;
    }
    EXPECT_FALSE(decodeRunRecord(bytes + '\0').ok());

    RunRecord unknown = rec;
    unknown.status = Status::error(
        static_cast<ErrorCode>(static_cast<int>(ErrorCode::Preempted) + 1),
        "no such code");
    EXPECT_FALSE(decodeRunRecord(encodeRunRecord(unknown)).ok());
}

TEST(Evaluate, ResultsAreBitIdenticalAcrossJobCounts)
{
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());

    // A small but non-trivial slice of the space.
    auto designs = enumerateCpuDesigns();
    designs.resize(12);

    DseOptions opts;
    opts.exp.scale = 0.01;

    ThreadPool serial_pool(1);
    DseCache serial_cache;
    const auto serial = evaluateCpuDesigns(designs, *app.value(), opts,
                                           serial_pool, serial_cache);

    ThreadPool wide_pool(8);
    DseCache wide_cache;
    const auto parallel = evaluateCpuDesigns(designs, *app.value(),
                                             opts, wide_pool,
                                             wide_cache);

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), designs.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].hash, parallel[i].hash);
        EXPECT_EQ(serial[i].seconds, parallel[i].seconds);   // Exact.
        EXPECT_EQ(serial[i].energyJ, parallel[i].energyJ);   // Exact.
        EXPECT_EQ(serial[i].areaMm2, parallel[i].areaMm2);
    }
}

TEST(Evaluate, SecondPassIsServedFromTheCache)
{
    const auto app = workload::findCpuApp("lu");
    ASSERT_TRUE(app.ok());

    auto designs = enumerateCpuDesigns();
    designs.resize(6);

    DseOptions opts;
    opts.exp.scale = 0.01;
    ThreadPool pool(4);
    DseCache cache;

    const auto first =
        evaluateCpuDesigns(designs, *app.value(), opts, pool, cache);
    EXPECT_EQ(cache.misses(), designs.size());
    EXPECT_EQ(cache.hits(), 0u);
    for (const auto &p : first)
        EXPECT_FALSE(p.cached);

    const auto second =
        evaluateCpuDesigns(designs, *app.value(), opts, pool, cache);
    EXPECT_EQ(cache.misses(), designs.size()); // No new simulations.
    EXPECT_EQ(cache.hits(), designs.size());
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].cached);
        EXPECT_EQ(second[i].seconds, first[i].seconds);
        EXPECT_EQ(second[i].energyJ, first[i].energyJ);
    }

    // Different options miss again: the key includes them.
    DseOptions other = opts;
    other.exp.seed = 99;
    evaluateCpuDesigns(designs, *app.value(), other, pool, cache);
    EXPECT_EQ(cache.misses(), 2 * designs.size());
}

namespace
{

/** The workload scale of the store tests. */
constexpr double kStoreScale = 0.01;

/** A new directory under the test temp dir, removed with its contents
 *  when the test ends. */
class StoreDir
{
  public:
    StoreDir() : path_(testing::TempDir() + "hetsim_dsestore_XXXXXX")
    {
        EXPECT_NE(::mkdtemp(path_.data()), nullptr);
    }
    ~StoreDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The first six CPU designs on lu, through `store` and a new cache. */
std::vector<DsePoint>
evaluateSix(ResultStore &store)
{
    auto designs = enumerateCpuDesigns();
    designs.resize(6);
    DseOptions opts;
    opts.exp.scale = kStoreScale;
    opts.store = &store;
    ThreadPool pool(2);
    DseCache cache;
    return evaluateCpuDesigns(designs, *workload::findCpuApp("lu").value(),
                              opts, pool, cache);
}

void
expectSamePoints(const std::vector<DsePoint> &a,
                 const std::vector<DsePoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].seconds, b[i].seconds);
        EXPECT_EQ(a[i].energyJ, b[i].energyJ);
    }
}

} // namespace

TEST(DseStore, WarmStoreServesEveryPointInANewCache)
{
    const StoreDir dir;
    auto cold_store = ResultStore::open(dir.path());
    ASSERT_TRUE(cold_store.ok());
    const std::vector<DsePoint> cold = evaluateSix(cold_store.value());
    EXPECT_EQ(cold_store->counters().puts, 6u);

    auto store = ResultStore::open(dir.path());
    ASSERT_TRUE(store.ok());
    const std::vector<DsePoint> warm = evaluateSix(store.value());
    EXPECT_EQ(store->counters().hits, 6u);
    EXPECT_EQ(store->counters().puts, 0u);
    expectSamePoints(cold, warm);
}

TEST(DseStore, CorruptEntryIsQuarantinedAndResimulated)
{
    const StoreDir dir;
    auto cold_store = ResultStore::open(dir.path());
    ASSERT_TRUE(cold_store.ok());
    const std::vector<DsePoint> cold = evaluateSix(cold_store.value());
    ASSERT_EQ(cold.size(), 6u);

    ExperimentOptions exp;
    exp.scale = kStoreScale;
    const std::string victim =
        cold_store->entryPath(runKey(cold[2].hash, "lu", exp));
    const uint64_t size = workload::fileSize(victim).valueOr(0);
    ASSERT_GT(size, 0u);
    ASSERT_TRUE(workload::flipBitInFile(victim, size - 3, 2).ok());

    auto store = ResultStore::open(dir.path());
    ASSERT_TRUE(store.ok());
    const std::vector<DsePoint> warm = evaluateSix(store.value());
    EXPECT_EQ(store->counters().quarantined, 1u);
    EXPECT_EQ(store->counters().hits, 5u);
    EXPECT_EQ(store->counters().puts, 1u); // The damaged point, rerun.
    expectSamePoints(cold, warm);
}

TEST(Evaluate, AreaBudgetFiltersDesigns)
{
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());

    auto designs = enumerateCpuDesigns();
    designs.resize(8);

    DseOptions opts;
    opts.exp.scale = 0.01;
    ThreadPool pool(2);

    DseCache unfiltered_cache;
    const auto all = evaluateCpuDesigns(designs, *app.value(), opts,
                                        pool, unfiltered_cache);
    ASSERT_FALSE(all.empty());
    double min_area = all[0].areaMm2, max_area = all[0].areaMm2;
    for (const auto &p : all) {
        min_area = std::min(min_area, p.areaMm2);
        max_area = std::max(max_area, p.areaMm2);
    }

    // A budget below every design admits nothing (and simulates
    // nothing: admission happens before the thread-pool fan-out).
    DseOptions tight = opts;
    tight.areaBudgetMm2 = min_area * 0.5;
    DseCache tight_cache;
    const auto none = evaluateCpuDesigns(designs, *app.value(), tight,
                                         pool, tight_cache);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(tight_cache.misses(), 0u);

    // A budget above every design admits all of them.
    DseOptions loose = opts;
    loose.areaBudgetMm2 = max_area * 2.0;
    DseCache loose_cache;
    const auto kept = evaluateCpuDesigns(designs, *app.value(), loose,
                                         pool, loose_cache);
    EXPECT_EQ(kept.size(), all.size());
}

TEST(Evaluate, GpuDesignsEvaluateDeterministically)
{
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());

    const auto designs = enumerateGpuDesigns();
    DseOptions opts;
    opts.exp.scale = 0.02;

    ThreadPool serial_pool(1);
    DseCache c1;
    const auto serial = evaluateGpuDesigns(designs, *kernel.value(),
                                           opts, serial_pool, c1);

    ThreadPool wide_pool(8);
    DseCache c2;
    const auto parallel = evaluateGpuDesigns(designs, *kernel.value(),
                                             opts, wide_pool, c2);

    ASSERT_EQ(serial.size(), designs.size());
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].seconds, parallel[i].seconds);
        EXPECT_EQ(serial[i].energyJ, parallel[i].energyJ);
    }
}

TEST(Greedy, FindsALocalOptimumDeterministically)
{
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());

    DseOptions opts;
    opts.exp.scale = 0.01;
    ThreadPool pool(4);

    DseCache c1;
    const auto climb1 = greedyCpuSearch(*app.value(), opts, pool, c1);
    ASSERT_FALSE(climb1.empty());

    DseCache c2;
    const auto climb2 = greedyCpuSearch(*app.value(), opts, pool, c2);
    ASSERT_EQ(climb1.size(), climb2.size());
    for (size_t i = 0; i < climb1.size(); ++i) {
        EXPECT_EQ(climb1[i].name, climb2[i].name);
        EXPECT_EQ(climb1[i].seconds, climb2[i].seconds);
    }

    // Footprint is sorted best-objective-first, and the winner is at
    // least as good as the all-CMOS seed it started from.
    const uint64_t seed_hash =
        designHash(cpuHybridFromConfig(CpuConfig::BaseCmos));
    double seed_obj = 0.0;
    bool seed_seen = false;
    for (const auto &p : climb1) {
        EXPECT_LE(climb1.front().objective(opts.objective),
                  p.objective(opts.objective));
        if (p.hash == seed_hash) {
            seed_obj = p.objective(opts.objective);
            seed_seen = true;
        }
    }
    ASSERT_TRUE(seed_seen);
    EXPECT_LE(climb1.front().objective(opts.objective), seed_obj);
}

TEST(Pareto, DominatedPointsAreExcluded)
{
    std::vector<DsePoint> pts(4);
    pts[0].name = "best-time";
    pts[0].seconds = 1.0;
    pts[0].energyJ = 4.0;
    pts[0].areaMm2 = 10.0;
    pts[1].name = "best-energy";
    pts[1].seconds = 4.0;
    pts[1].energyJ = 1.0;
    pts[1].areaMm2 = 10.0;
    pts[2].name = "dominated";
    pts[2].seconds = 4.0; // Worse than pts[0] in time, tied area,
    pts[2].energyJ = 5.0; // worse energy than both.
    pts[2].areaMm2 = 10.0;
    pts[3].name = "small";
    pts[3].seconds = 5.0;
    pts[3].energyJ = 5.0;
    pts[3].areaMm2 = 1.0; // Saved by area: dominated in time+energy.
    const auto front = paretoFront(pts, DseObjective::Ed2);

    std::set<std::string> names;
    for (size_t i : front)
        names.insert(pts[i].name);
    EXPECT_EQ(names,
              (std::set<std::string>{"best-time", "best-energy",
                                     "small"}));
}

TEST(Pareto, SortedByObjectiveAndDeduplicated)
{
    std::vector<DsePoint> pts(3);
    pts[0].name = "b";
    pts[0].seconds = 2.0;
    pts[0].energyJ = 1.0;
    pts[1].name = "a"; // Identical metrics: only the first survives.
    pts[1].seconds = 2.0;
    pts[1].energyJ = 1.0;
    pts[2].name = "fast";
    pts[2].seconds = 1.0;
    pts[2].energyJ = 2.0;

    const auto front = paretoFront(pts, DseObjective::Time);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(pts[front[0]].name, "fast"); // Best time first.
    EXPECT_EQ(pts[front[1]].name, "b");

    const auto by_ed2 = paretoFront(pts, DseObjective::Ed2);
    ASSERT_EQ(by_ed2.size(), 2u);
    EXPECT_EQ(pts[by_ed2[0]].name, "fast"); // ED^2 2 beats b's 4.
}

TEST(Pareto, EmptyAndSingleton)
{
    EXPECT_TRUE(paretoFront({}, DseObjective::Ed2).empty());
    std::vector<DsePoint> one(1);
    one[0].name = "only";
    one[0].seconds = 1.0;
    one[0].energyJ = 1.0;
    const auto front = paretoFront(one, DseObjective::Energy);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0], 0u);
}

TEST(Objective, NamesRoundTripAndValuesMatch)
{
    for (auto o : {DseObjective::Ed2, DseObjective::Energy,
                   DseObjective::Time}) {
        const auto back = dseObjectiveFromName(dseObjectiveName(o));
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), o);
    }
    EXPECT_FALSE(dseObjectiveFromName("edp").ok());

    DsePoint p;
    p.seconds = 2.0;
    p.energyJ = 3.0;
    EXPECT_DOUBLE_EQ(p.ed2(), 3.0 * 2.0 * 2.0);
    EXPECT_DOUBLE_EQ(p.objective(DseObjective::Ed2), p.ed2());
    EXPECT_DOUBLE_EQ(p.objective(DseObjective::Energy), 3.0);
    EXPECT_DOUBLE_EQ(p.objective(DseObjective::Time), 2.0);
}
