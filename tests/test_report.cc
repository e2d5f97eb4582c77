/**
 * @file
 * Tests for the obs layer: machine-readable run reports, the bounded
 * pipeline-event trace buffer, and the chrome://tracing exporter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/report.hh"
#include "common/trace.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"

#include "temp_file.hh"

using namespace hetsim;
using hetsim::test::TempFile;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

core::ExperimentOptions
smallOpts()
{
    core::ExperimentOptions opts;
    opts.scale = 0.02;
    return opts;
}

} // namespace

TEST(Json, EscapeControlAndQuote)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, DoubleIsRoundTrippableAndFiniteOnly)
{
    EXPECT_EQ(obs::jsonDouble(0.0), "0");
    EXPECT_EQ(obs::jsonDouble(2.0), "2");
    const std::string third = obs::jsonDouble(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);
    EXPECT_EQ(obs::jsonDouble(NAN), "null");
    EXPECT_EQ(obs::jsonDouble(INFINITY), "null");
}

TEST(Report, SnapshotGroupCapturesCountersAndDistributions)
{
    StatGroup g("unit");
    g.counter("beta") += 7;
    g.counter("alpha") += 3;
    Distribution &d = g.distribution("lat");
    d.sample(2.0);
    d.sample(4.0);

    const obs::GroupSnapshot snap = obs::snapshotGroup(g);
    EXPECT_EQ(snap.name, "unit");
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[0].second, 3u);
    EXPECT_EQ(snap.counters[1].first, "beta");
    ASSERT_EQ(snap.distributions.size(), 1u);
    EXPECT_EQ(snap.distributions[0].name, "lat");
    EXPECT_EQ(snap.distributions[0].count, 2u);
    EXPECT_DOUBLE_EQ(snap.distributions[0].min, 2.0);
    EXPECT_DOUBLE_EQ(snap.distributions[0].max, 4.0);
    EXPECT_DOUBLE_EQ(snap.distributions[0].mean, 3.0);
}

TEST(Report, GoldenSchema)
{
    // A handcrafted report pins the exact serialization: key names,
    // key order, and number formatting are all part of the schema.
    obs::RunReport rep;
    rep.kind = "cpu";
    rep.config = "Test";
    rep.workload = "fft";
    rep.designHash = 0xabcull;
    rep.seed = 1;
    rep.scale = 2.0;
    rep.freqGhz = 2.0;
    rep.cycles = 10;
    rep.ops = 20;
    rep.timedOut = false;
    rep.seconds = 0.5;
    rep.energyJ = 0.25;
    rep.units.push_back({"alu", 5, 0.125, 0.0625});
    rep.energyGroups.push_back({"core", 0.125, 0.0625});
    obs::GroupSnapshot g;
    g.name = "core.0";
    g.counters.push_back({"hits", 9});
    g.distributions.push_back({"lat", 2, 1.0, 3.0, 2.0, 1.0});
    rep.groups.push_back(g);

    EXPECT_EQ(
        rep.toJson(),
        "{\"schema\":\"hetsim-run-report-v1\",\"kind\":\"cpu\","
        "\"config\":\"Test\",\"workload\":\"fft\","
        "\"design_hash\":\"0x0000000000000abc\",\"seed\":1,"
        "\"scale\":2,\"freq_ghz\":2,\"cycles\":10,\"ops\":20,"
        "\"timed_out\":false,\"seconds\":0.5,\"energy_j\":0.25,"
        "\"units\":[{\"name\":\"alu\",\"activity\":5,"
        "\"dynamic_j\":0.125,\"leakage_j\":0.0625}],"
        "\"energy_groups\":[{\"name\":\"core\",\"dynamic_j\":0.125,"
        "\"leakage_j\":0.0625}],"
        "\"stat_groups\":[{\"name\":\"core.0\","
        "\"counters\":{\"hits\":9},"
        "\"distributions\":{\"lat\":{\"count\":2,\"min\":1,"
        "\"max\":3,\"mean\":2,\"stddev\":1}}}]}\n");
}

TEST(Report, WriteJsonMatchesToJson)
{
    obs::RunReport rep;
    rep.kind = "cpu";
    rep.config = "Test";
    const TempFile file("report_write.json");
    const std::string &path = file.path();
    ASSERT_TRUE(rep.writeJson(path).ok());
    EXPECT_EQ(slurp(path), rep.toJson());
}

TEST(Report, CpuRunFillsReportAndIsDeterministic)
{
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());

    obs::RunReport a, b;
    core::runCpuExperiment(core::CpuConfig::AdvHet, *app.value(),
                           smallOpts(), &a);
    core::runCpuExperiment(core::CpuConfig::AdvHet, *app.value(),
                           smallOpts(), &b);

    EXPECT_EQ(a.kind, "cpu");
    EXPECT_EQ(a.config, "AdvHet");
    EXPECT_EQ(a.workload, "fft");
    EXPECT_GT(a.cycles, 0u);
    EXPECT_GT(a.ops, 0u);
    EXPECT_GT(a.energyJ, 0.0);
    // Two identical runs serialize byte-identically.
    EXPECT_EQ(a.toJson(), b.toJson());

    // Every layer of the machine shows up as a stat group.
    bool has_core = false, has_fu = false, has_dl1 = false;
    bool has_dram = false, has_ring = false, has_hier = false;
    for (const obs::GroupSnapshot &g : a.groups) {
        if (g.name == "core.0")
            has_core = true;
        if (g.name == "core.0.fu_pool")
            has_fu = true;
        if (g.name == "dl1.0")
            has_dl1 = true;
        if (g.name == "dram")
            has_dram = true;
        if (g.name == "ring")
            has_ring = true;
        if (g.name == "hierarchy")
            has_hier = true;
    }
    EXPECT_TRUE(has_core);
    EXPECT_TRUE(has_fu);
    EXPECT_TRUE(has_dl1);
    EXPECT_TRUE(has_dram);
    EXPECT_TRUE(has_ring);
    EXPECT_TRUE(has_hier);

    // Per-unit energy rows carry the catalog names, and the Figure 8
    // groups are present.
    ASSERT_FALSE(a.units.empty());
    bool has_frontend = false;
    for (const obs::UnitEnergy &u : a.units)
        if (u.name == "frontend")
            has_frontend = true;
    EXPECT_TRUE(has_frontend);
    ASSERT_EQ(a.energyGroups.size(), 3u);
    EXPECT_EQ(a.energyGroups[0].name, "core");
    EXPECT_EQ(a.energyGroups[1].name, "l2");
    EXPECT_EQ(a.energyGroups[2].name, "l3");
}

TEST(Report, DramQueueDelayDistributionIsCaptured)
{
    const auto app = workload::findCpuApp("streamcluster");
    ASSERT_TRUE(app.ok());
    obs::RunReport rep;
    core::runCpuExperiment(core::CpuConfig::BaseCmos, *app.value(),
                           smallOpts(), &rep);
    bool found = false;
    for (const obs::GroupSnapshot &g : rep.groups) {
        if (g.name != "dram")
            continue;
        for (const obs::DistributionSnapshot &d : g.distributions)
            if (d.name == "queue_delay")
                found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Report, GpuRunFillsReport)
{
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());
    obs::RunReport rep;
    core::runGpuExperiment(core::GpuConfig::AdvHet, *kernel.value(),
                           smallOpts(), &rep);
    EXPECT_EQ(rep.kind, "gpu");
    EXPECT_GT(rep.cycles, 0u);
    bool has_cu = false, has_l2 = false;
    for (const obs::GroupSnapshot &g : rep.groups) {
        if (g.name == "cu.0")
            has_cu = true;
        if (g.name == "gpu.l2")
            has_l2 = true;
    }
    EXPECT_TRUE(has_cu);
    EXPECT_TRUE(has_l2);
}

TEST(Trace, BufferWrapsAndCountsDropped)
{
    obs::TraceBuffer buf(4);
    EXPECT_EQ(buf.capacity(), 4u);
    for (uint64_t i = 0; i < 10; ++i)
        buf.record(i, 0, obs::TraceEvent::Commit, 0x1000 + i);
    EXPECT_EQ(buf.recorded(), 10u);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 6u);

    // Oldest-first snapshot holds the newest 4 records.
    const auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().cycle, 6u);
    EXPECT_EQ(snap.back().cycle, 9u);

    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.recorded(), 0u);
}

TEST(Trace, MacroToleratesNullSink)
{
    obs::TraceBuffer *sink = nullptr;
    HETSIM_TRACE(sink, 1, 0, obs::TraceEvent::Fetch, 0x1000, 0);
    SUCCEED();
}

TEST(Trace, ChromeExportContainsEvents)
{
    obs::TraceBuffer buf(8);
    buf.record(5, 2, obs::TraceEvent::CacheMiss, 0xbeef, 3);
    const TempFile file("trace.json");
    const std::string &path = file.path();
    ASSERT_TRUE(obs::writeChromeTrace(buf, path).ok());
    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache_miss\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"tid\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"recorded\":1"), std::string::npos);
}

TEST(Trace, CpuRunRecordsPipelineEvents)
{
    const auto app = workload::findCpuApp("fft");
    ASSERT_TRUE(app.ok());
    obs::TraceBuffer buf(1 << 14);
    core::runCpuExperiment(core::CpuConfig::BaseCmos, *app.value(),
                           smallOpts(), nullptr, &buf);
    EXPECT_GT(buf.recorded(), 0u);
    bool seen[static_cast<int>(obs::TraceEvent::NumEvents)] = {};
    for (const obs::TraceRecord &r : buf.snapshot())
        seen[static_cast<int>(r.event)] = true;
    EXPECT_TRUE(seen[static_cast<int>(obs::TraceEvent::Fetch)]);
    EXPECT_TRUE(seen[static_cast<int>(obs::TraceEvent::Dispatch)]);
    EXPECT_TRUE(seen[static_cast<int>(obs::TraceEvent::Issue)]);
    EXPECT_TRUE(seen[static_cast<int>(obs::TraceEvent::Commit)]);
    EXPECT_TRUE(seen[static_cast<int>(obs::TraceEvent::CacheHit)]);
}

TEST(Trace, GpuRunRecordsWavefrontIssues)
{
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());
    obs::TraceBuffer buf(1 << 12);
    core::runGpuExperiment(core::GpuConfig::BaseCmos,
                           *kernel.value(), smallOpts(), nullptr,
                           &buf);
    EXPECT_GT(buf.recorded(), 0u);
    for (const obs::TraceRecord &r : buf.snapshot())
        EXPECT_EQ(r.event, obs::TraceEvent::WavefrontIssue);
}

TEST(Report, DseJsonIsJobCountInvariant)
{
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());
    core::DseOptions opts;
    opts.exp.scale = 0.01;

    const TempFile f1("dse_1.json");
    const TempFile f8("dse_8.json");
    const std::string &p1 = f1.path();
    const std::string &p8 = f8.path();

    opts.jobs = 1;
    {
        ThreadPool pool(1);
        core::DseCache cache;
        const auto pts = core::evaluateGpuDesigns(
            core::enumerateGpuDesigns(), *kernel.value(), opts, pool,
            cache);
        ASSERT_TRUE(core::writeDseReportJson(pts, "matrixmul",
                                             opts.objective, p1)
                        .ok());
    }
    opts.jobs = 8;
    {
        ThreadPool pool(8);
        core::DseCache cache;
        const auto pts = core::evaluateGpuDesigns(
            core::enumerateGpuDesigns(), *kernel.value(), opts, pool,
            cache);
        ASSERT_TRUE(core::writeDseReportJson(pts, "matrixmul",
                                             opts.objective, p8)
                        .ok());
    }
    EXPECT_EQ(slurp(p1), slurp(p8));
    EXPECT_NE(slurp(p1).find("hetsim-dse-report-v1"),
              std::string::npos);
}

TEST(Report, SweepJsonCapturesCells)
{
    std::vector<core::SweepCell> cells;
    cells.push_back(core::cpuAppCell(core::CpuConfig::BaseCmos,
                                     "fft"));
    core::SweepOptions opts;
    opts.exp.scale = 0.02;
    opts.isolate = false;
    const core::SweepReport rep = core::runSweep(cells, opts);
    const TempFile file("sweep.json");
    const std::string &path = file.path();
    ASSERT_TRUE(core::writeSweepReportJson(rep, path).ok());
    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("hetsim-sweep-report-v1"), std::string::npos);
    EXPECT_NE(doc.find("\"config\": \"BaseCMOS\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"outcome\": \"ok\""), std::string::npos);
}

TEST(Trace, SkippedRangesRecordNoEventsAndExportMonotonic)
{
    // Event-horizon skipping must be invisible in the pipeline trace:
    // a skipped range is pure stall, so the recorded event stream has
    // to match the per-cycle reference run record for record. The
    // Chrome export must also emit monotonic timestamps even though
    // Complete events are recorded at issue time with a future ts.
    const auto app = workload::findCpuApp("canneal");
    ASSERT_TRUE(app.ok());

    auto record = [&](bool no_skip) {
        core::ExperimentOptions opts = smallOpts();
        opts.noSkip = no_skip;
        auto buf = std::make_unique<obs::TraceBuffer>(1 << 15);
        core::runCpuExperiment(core::CpuConfig::AdvHet, *app.value(),
                               opts, nullptr, buf.get());
        return buf;
    };
    const auto skip = record(false);
    const auto ref = record(true);

    ASSERT_EQ(skip->recorded(), ref->recorded());
    const auto a = skip->snapshot();
    const auto b = ref->snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle) << i;
        EXPECT_EQ(a[i].unit, b[i].unit) << i;
        EXPECT_EQ(a[i].event, b[i].event) << i;
        EXPECT_EQ(a[i].arg, b[i].arg) << i;
        EXPECT_EQ(a[i].detail, b[i].detail) << i;
    }

    const TempFile file("trace_skip.json");
    const std::string &path = file.path();
    ASSERT_TRUE(obs::writeChromeTrace(*skip, path).ok());
    const std::string doc = slurp(path);
    uint64_t prev = 0;
    size_t pos = 0;
    size_t seen = 0;
    while ((pos = doc.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        const uint64_t ts = std::strtoull(doc.c_str() + pos, nullptr,
                                          10);
        EXPECT_GE(ts, prev) << "timestamps not monotonic";
        prev = ts;
        ++seen;
    }
    EXPECT_GT(seen, 0u);
}
