/**
 * @file
 * HetBench layer driver: times HetSim's modules from outside.
 *
 * The driver runs the benchmark's cells through the simulator's public
 * API and times every call it makes into a module: config bundle
 * synthesis, trace and kernel construction, the chip constructors,
 * Multicore::run and Gpu::run, TraceSource::next and
 * WavefrontProgram::next (through decorators), MemHierarchy::access and
 * Cache::access (replayed), the energy model, checkpoint save and
 * restore, the result store, the sweep runner and the DSE executor. No
 * simulator source changes, so a timing covers exactly one public call.
 *
 * Every mode takes --seed K --scale X --cadence C --jobs J, and
 * --apps A,B for durable_sweep and dse_cpu.
 *
 *   hetbench_layers setup WORKLOAD ... [--seconds S]
 *       Build every cell's inputs (config bundle, traces or kernel,
 *       chip) without running them, at least once and for at least
 *       S seconds in all; print each repetition's seconds.
 *   hetbench_layers trace WORKLOAD ... --out DIR
 *       Run the workload's sampled cells plain and traced; print the
 *       per-layer metrics and the traced cells' simulated results, and
 *       write the spans to DIR/trace-WORKLOAD.json (chrome://tracing).
 *
 * Output is one JSON object on stdout. Simulated results are printed
 * here and compared with the goldens by run.py; this driver checks only
 * that the plain, decorated, hooked, restored and library runs of one
 * cell agree exactly.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/report.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "core/checkpoint.hh"
#include "core/configs.hh"
#include "core/dse.hh"
#include "core/dvfs.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/sweep.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "power/accountant.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

namespace
{

using namespace hetsim;

/** The paper's CPU design point; the GPU runs at half of it. */
constexpr double kFreqGhz = 2.0;

/** Replay at most this many accesses per cell, to bound memory. */
constexpr size_t kMaxReplay = size_t{1} << 20;

/** Designs of the CPU space the dse_cpu trace runs (evenly strided). */
constexpr size_t kDseSample = 24;


/** Identity key of the driver's own checkpoints. */
const char *const kCkptKey = "hetbench";

uint64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hetbench_layers: %s\n"
                 "usage: hetbench_layers setup|trace WORKLOAD --seed K "
                 "--scale X --cadence C --jobs J [--apps A,B] "
                 "[--seconds S] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One span: a named interval of one cell, under an optional parent.
 *  A folded span stands for `count` short calls whose durations sum to
 *  end - start; it is laid out from its parent's start. */
struct Span
{
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;
    int parent = -1;
    uint32_t cell = 0;
    uint64_t count = 1;
};

/** In-memory span recorder, written out once at exit. */
class SpanLog
{
  public:
    int
    begin(const std::string &name, uint32_t cell, int parent)
    {
        spans_.push_back({name, nowNs(), 0, parent, cell, 1});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close a span; returns its duration in ns. */
    double
    end(int id)
    {
        spans_[id].end = nowNs();
        return dur(id);
    }

    void
    fold(const std::string &name, int parent, uint64_t count,
         uint64_t total_ns)
    {
        if (count == 0)
            return;
        const Span p = spans_[parent];
        spans_.push_back(
            {name, p.start, p.start + total_ns, parent, p.cell, count});
    }

    double
    dur(int id) const
    {
        return static_cast<double>(spans_[id].end - spans_[id].start);
    }

    /** A span's time minus the time of its direct children. */
    double
    self(int id) const
    {
        double children = 0.0;
        for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i)
            if (spans_[i].parent == id)
                children += dur(static_cast<int>(i));
        return std::max(dur(id) - children, 0.0);
    }

    /** chrome://tracing "complete" events, one thread per cell. */
    bool
    writeChrome(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
        std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const std::string parent =
                s.parent < 0 ? "" : obs::jsonEscape(spans_[s.parent].name);
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"count\": %llu, \"parent\": \"%s\"}}",
                         i == 0 ? "" : ",", obs::jsonEscape(s.name).c_str(),
                         s.cell, (s.start - t0) * 1e-3,
                         (s.end - s.start) * 1e-3,
                         static_cast<unsigned long long>(s.count),
                         parent.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

/** Calls counted and timed by a decorator. */
struct CallTimer
{
    uint64_t calls = 0;
    uint64_t ns = 0;
};

/** Times each next() of the trace it wraps. */
class TimedTrace : public cpu::TraceSource
{
  public:
    TimedTrace(cpu::TraceSource &inner, CallTimer &timer)
        : inner_(inner), timer_(timer)
    {
    }

    bool
    next(cpu::MicroOp &op) override
    {
        const uint64_t t0 = nowNs();
        const bool more = inner_.next(op);
        timer_.ns += nowNs() - t0;
        ++timer_.calls;
        return more;
    }

  private:
    cpu::TraceSource &inner_;
    CallTimer &timer_;
};

/** Times each next() of one wavefront's program. */
class TimedProgram : public gpu::WavefrontProgram
{
  public:
    TimedProgram(std::unique_ptr<gpu::WavefrontProgram> inner,
                 CallTimer &timer)
        : inner_(std::move(inner)), timer_(timer)
    {
    }

    bool
    next(gpu::GpuOp &op) override
    {
        const uint64_t t0 = nowNs();
        const bool more = inner_->next(op);
        timer_.ns += nowNs() - t0;
        ++timer_.calls;
        return more;
    }

  private:
    std::unique_ptr<gpu::WavefrontProgram> inner_;
    CallTimer &timer_;
};

/** A kernel whose wavefront programs are TimedPrograms. */
class TimedKernel : public gpu::GpuKernel
{
  public:
    TimedKernel(gpu::GpuKernel &inner, CallTimer &timer)
        : inner_(inner), timer_(timer)
    {
    }

    uint32_t
    numWorkgroups() const override
    {
        return inner_.numWorkgroups();
    }

    uint32_t
    wavefrontsPerGroup() const override
    {
        return inner_.wavefrontsPerGroup();
    }

    std::unique_ptr<gpu::WavefrontProgram>
    makeWavefront(uint32_t workgroup, uint32_t wavefront) override
    {
        return std::make_unique<TimedProgram>(
            inner_.makeWavefront(workgroup, wavefront), timer_);
    }

  private:
    gpu::GpuKernel &inner_;
    CallTimer &timer_;
};

/** The command line. run.py holds the benchmark's values and passes
 *  every one of them. */
struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    double scale = 0.0;
    std::vector<const workload::AppProfile *> apps;
    uint64_t cadence = 0;
    unsigned jobs = 0;
    double seconds = 0.0;
    std::string out;
};

/** One CPU cell: a named config bundle factory and an application. */
struct CpuCell
{
    std::string config;
    const workload::AppProfile *app = nullptr;
    std::function<core::CpuConfigBundle()> bundle;

    std::string key() const { return config + "/" + app->name; }
};

struct GpuCell
{
    core::GpuConfig cfg = core::GpuConfig::BaseCmos;
    const workload::KernelProfile *kernel = nullptr;

    std::string config() const { return core::gpuConfigName(cfg); }
    std::string key() const { return config() + "/" + kernel->name; }
};

CpuCell
configCell(core::CpuConfig cfg, const workload::AppProfile *app)
{
    return {core::cpuConfigName(cfg), app,
            [cfg] { return core::makeCpuConfig(cfg, kFreqGhz); }};
}

CpuCell
designCell(const core::CpuHybridDesign &d, const workload::AppProfile *app)
{
    return {core::designName(d), app,
            [d] { return core::synthesizeCpuBundle(d, kFreqGhz).value(); }};
}

/** Every CPU cell the workload's jobs build, repeats included. */
std::vector<CpuCell>
cpuPlan(const Options &o)
{
    std::vector<CpuCell> plan;
    if (o.workload == "cpu_figs") {
        // bench_fig7, 8 and 9 each simulate the whole Figure 7 matrix.
        for (int fig = 0; fig < 3; ++fig)
            for (core::CpuConfig cfg : core::figure7Configs())
                for (const workload::AppProfile &app : workload::cpuApps())
                    plan.push_back(configCell(cfg, &app));
    } else if (o.workload == "durable_sweep") {
        for (int i = 0; i < core::kNumCpuConfigs; ++i)
            for (const workload::AppProfile *app : o.apps)
                plan.push_back(
                    configCell(static_cast<core::CpuConfig>(i), app));
    } else if (o.workload == "dse_cpu") {
        for (const core::CpuHybridDesign &d : core::enumerateCpuDesigns())
            plan.push_back(designCell(d, o.apps.at(0)));
    }
    return plan;
}

std::vector<GpuCell>
gpuPlan(const Options &o)
{
    std::vector<GpuCell> plan;
    if (o.workload == "gpu_figs") {
        // bench_fig10, 11 and 12 each simulate the Figure 10 matrix.
        for (int fig = 0; fig < 3; ++fig)
            for (core::GpuConfig cfg : core::figure10Configs())
                for (const workload::KernelProfile &k :
                     workload::gpuKernels())
                    plan.push_back({cfg, &k});
    }
    return plan;
}

template <typename Cell>
std::vector<Cell>
distinctCells(const std::vector<Cell> &plan)
{
    std::vector<Cell> out;
    std::vector<std::string> seen;
    for (const Cell &c : plan) {
        if (std::find(seen.begin(), seen.end(), c.key()) != seen.end())
            continue;
        seen.push_back(c.key());
        out.push_back(c);
    }
    return out;
}

std::vector<cpu::TraceSource *>
pointers(const std::vector<std::unique_ptr<cpu::TraceSource>> &traces)
{
    std::vector<cpu::TraceSource *> ptrs;
    for (const auto &t : traces)
        ptrs.push_back(t.get());
    return ptrs;
}

/** The chip energy, computed exactly as core::runCpuBundle does. */
double
cpuEnergyJ(const core::CpuConfigBundle &bundle, cpu::Multicore &mc,
           const cpu::MulticoreResult &run)
{
    power::CpuActivity activity = run.activity;
    if (bundle.sim.core.fu.dualSpeedAlu) {
        uint64_t fast_ops = 0;
        for (uint32_t c = 0; c < mc.numCores(); ++c)
            fast_ops += mc.core(c).fuPool().stats().value("fast_alu_ops");
        activity[static_cast<int>(power::CpuUnit::Alu)] -= fast_ops;
        activity[static_cast<int>(power::CpuUnit::AluFast)] += fast_ops;
    }
    const core::OperatingPoint op = core::cpuOperatingPoint(kFreqGhz);
    return power::computeCpuEnergy(activity, bundle.units, run.seconds,
                                   bundle.numCores, op.scales)
        .totalJ();
}

/** The bundle exactly as core::runCpuBundle runs it. */
core::CpuConfigBundle
runnableBundle(const CpuCell &cell)
{
    core::CpuConfigBundle bundle = cell.bundle();
    bundle.sim.watchdogCycles = 0;
    bundle.sim.skipEnabled = true;
    return bundle;
}

enum class Variant
{
    Plain,     ///< No decorator, no hook: the reference timing.
    Decorated, ///< next() decorators installed.
    Hooked,    ///< Decorators plus a timed checkpoint hook.
};

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Plain:
        return "plain";
      case Variant::Decorated:
        return "decorated";
      case Variant::Hooked:
        return "hooked";
    }
    return "?";
}

/** What one cell run simulated, and the spans that timed it. */
struct CellRun
{
    std::string config;
    std::string workload;
    uint64_t cycles = 0;
    uint64_t ops = 0;
    uint64_t skipped = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    int cellSpan = -1;
    int configSpan = -1;
    int tracesSpan = -1;
    int chipSpan = -1;
    int runSpan = -1;
    int energySpan = -1;
    CallTimer next;
    CallTimer saves;
    std::vector<double> saveBytes;
    uint64_t syncOps = 0;
    uint64_t invals = 0;
    uint64_t l1Accesses = 0;
};

struct Summary
{
    double median = 0.0;
    double tail = 0.0;
    size_t n = 0;
};

/** Median, plus the highest of p99.9/p99/p95/p90/p75 that has at least
 *  ten samples beyond it (the maximum below 40 samples). */
Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    s.tail = v.back();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
            const auto rank = static_cast<size_t>(
                std::ceil(p / 100.0 * static_cast<double>(n)));
            s.tail = v[std::max<size_t>(rank, 1) - 1];
            break;
        }
    }
    return s;
}

class Driver
{
  public:
    explicit Driver(Options o) : o_(std::move(o)) {}

    int setup();
    int trace();

  private:
    CellRun runCpu(const CpuCell &cell, Variant v,
                   const std::string &ckpt = "");
    CellRun runGpu(const GpuCell &cell, Variant v);
    void notePair(const CellRun &plain, const CellRun &traced, bool gpu);
    void checkSame(const CellRun &a, const CellRun &b, const char *what);
    void probeRestore(const CpuCell &cell, const CellRun &hooked,
                      const std::string &ckpt);
    void probeStore(const CpuCell &cell, const CellRun &plain,
                    core::ResultStore &store);
    void replayCpuMem(const CpuCell &cell, const CellRun &real);
    void replayGpuMem(const GpuCell &cell);

    void traceCpuFigs();
    void traceGpuFigs();
    void traceDurable();
    void traceDse();

    void put(const std::string &name, double v) { metrics_[name] = v; }
    void putSummary(const std::string &name, const std::vector<double> &v);
    void computeMetrics();
    void printTrace(const std::string &span_path) const;

    Options o_;
    SpanLog log_;
    uint32_t nextCell_ = 0;
    std::vector<std::string> failures_;
    /** Simulated results of the cells run.py compares to goldens. */
    std::vector<CellRun> golden_;
    std::map<std::string, double> metrics_;

    std::vector<double> configUs_, tracesUs_, chipMs_, energyUs_;
    std::vector<double> cpuNextNs_, gpuNextNs_;
    std::vector<double> cpuNsPerCycle_, cpuNsPerOp_;
    std::vector<double> gpuNsPerCycle_, gpuNsPerOp_;
    double cpuNextTotal_ = 0, gpuNextTotal_ = 0;
    double plainRunTotal_ = 0, tracedRunTotal_ = 0;
    uint64_t cpuCycles_ = 0, cpuOps_ = 0, cpuSkipped_ = 0;
    uint64_t syncOps_ = 0, invals_ = 0;
    uint64_t gpuCycles_ = 0, gpuOps_ = 0, gpuSkipped_ = 0;

    std::map<mem::AccessSource, uint64_t> sources_;
    uint64_t replayed_ = 0, gpuReplayed_ = 0;
    double hierNs_ = 0, cacheNs_ = 0, gpuMemNs_ = 0;
    double shareEstNs_ = 0, shareRunNs_ = 0;

    uint64_t saves_ = 0;
    std::vector<double> saveMs_, saveBytes_, inrunMs_, restoreMs_;
    std::vector<double> putMs_, getMs_, sweepOverheadMs_, synthUs_;
    double dseMsPerDesign_ = 0, poolSpeedup_ = 0, memoHitFrac_ = 0;
    double redundantFrac_ = 0;
};

CellRun
Driver::runCpu(const CpuCell &cell, Variant v, const std::string &ckpt)
{
    CellRun r;
    r.config = cell.config;
    r.workload = cell.app->name;
    const uint32_t id = nextCell_++;
    r.cellSpan = log_.begin(std::string(variantName(v)) + " " + cell.key(),
                            id, -1);

    r.configSpan = log_.begin("setup.config", id, r.cellSpan);
    const core::CpuConfigBundle bundle = runnableBundle(cell);
    log_.end(r.configSpan);

    r.tracesSpan = log_.begin("setup.traces", id, r.cellSpan);
    auto traces = workload::makeCpuWorkload(*cell.app, bundle.numCores,
                                            o_.seed, o_.scale);
    std::vector<std::unique_ptr<TimedTrace>> timed;
    std::vector<cpu::TraceSource *> ptrs = pointers(traces);
    if (v != Variant::Plain) {
        for (cpu::TraceSource *&p : ptrs) {
            timed.push_back(std::make_unique<TimedTrace>(*p, r.next));
            p = timed.back().get();
        }
    }
    log_.end(r.tracesSpan);

    r.chipSpan = log_.begin("setup.chip", id, r.cellSpan);
    auto mc = std::make_unique<cpu::Multicore>(bundle.sim, ptrs);
    log_.end(r.chipSpan);

    if (v == Variant::Hooked) {
        CheckpointHook hook;
        hook.everyCycles = o_.cadence;
        hook.save = [this, &r, ckpt](uint64_t cycle,
                                     const std::string &payload) {
            const uint64_t t0 = nowNs();
            const Status st =
                core::saveCheckpoint(ckpt, kCkptKey, cycle, payload);
            const uint64_t dt = nowNs() - t0;
            r.saves.ns += dt;
            ++r.saves.calls;
            r.saveBytes.push_back(static_cast<double>(payload.size()));
            saveMs_.push_back(dt * 1e-6);
            if (!st.ok())
                failures_.push_back("checkpoint save: " + st.toString());
        };
        mc->setCheckpointHook(std::move(hook));
    }

    r.runSpan = log_.begin("cpu.run", id, r.cellSpan);
    const cpu::MulticoreResult run = mc->run();
    log_.end(r.runSpan);
    log_.fold("workload.cpu_next", r.runSpan, r.next.calls, r.next.ns);
    log_.fold("core.ckpt_save", r.runSpan, r.saves.calls, r.saves.ns);

    r.energySpan = log_.begin("power.energy", id, r.cellSpan);
    r.energyJ = cpuEnergyJ(bundle, *mc, run);
    log_.end(r.energySpan);
    log_.end(r.cellSpan);

    r.cycles = run.cycles;
    r.ops = run.committedOps;
    r.skipped = run.skippedCycles;
    r.seconds = run.seconds;
    const StatGroup &sync = mc->sync().stats();
    r.syncOps = sync.value("lock_acquires") + sync.value("lock_releases") +
                sync.value("signals") + sync.value("waits");
    const mem::MemHierarchy &h = mc->hierarchy();
    r.invals = h.stats().value("back_invalidations") +
               h.stats().value("upgrade_invalidations") +
               h.stats().value("rfo_invalidations");
    for (uint32_t c = 0; c < mc->numCores(); ++c)
        r.l1Accesses += h.il1(c).stats().value("accesses") +
                        h.dl1(c).stats().value("accesses");
    return r;
}

CellRun
Driver::runGpu(const GpuCell &cell, Variant v)
{
    CellRun r;
    r.config = cell.config();
    r.workload = cell.kernel->name;
    const uint32_t id = nextCell_++;
    r.cellSpan = log_.begin(std::string(variantName(v)) + " " + cell.key(),
                            id, -1);

    r.configSpan = log_.begin("setup.config", id, r.cellSpan);
    core::GpuConfigBundle bundle =
        core::makeGpuConfig(cell.cfg, kFreqGhz / 2.0);
    bundle.sim.watchdogCycles = 0;
    bundle.sim.skipEnabled = true;
    log_.end(r.configSpan);

    r.tracesSpan = log_.begin("setup.traces", id, r.cellSpan);
    workload::SyntheticKernel kernel(*cell.kernel, o_.seed, o_.scale);
    TimedKernel timed(kernel, r.next);
    log_.end(r.tracesSpan);

    r.chipSpan = log_.begin("setup.chip", id, r.cellSpan);
    auto chip = std::make_unique<gpu::Gpu>(bundle.sim);
    log_.end(r.chipSpan);

    r.runSpan = log_.begin("gpu.run", id, r.cellSpan);
    const gpu::GpuResult run =
        v == Variant::Plain ? chip->run(kernel) : chip->run(timed);
    log_.end(r.runSpan);
    log_.fold("workload.gpu_next", r.runSpan, r.next.calls, r.next.ns);

    r.energySpan = log_.begin("power.energy", id, r.cellSpan);
    r.energyJ = power::computeGpuEnergy(run.activity, bundle.units,
                                        run.seconds, bundle.numCus)
                    .totalJ();
    log_.end(r.energySpan);
    log_.end(r.cellSpan);

    r.cycles = run.cycles;
    r.ops = run.issuedOps;
    r.skipped = run.skippedCycles;
    r.seconds = run.seconds;
    return r;
}

/** Check a plain/traced pair and fold the traced run into the samples. */
void
Driver::notePair(const CellRun &plain, const CellRun &traced, bool gpu)
{
    checkSame(plain, traced, "decorated run");
    plainRunTotal_ += log_.dur(plain.runSpan);
    tracedRunTotal_ += log_.dur(traced.runSpan);

    configUs_.push_back(log_.dur(traced.configSpan) * 1e-3);
    tracesUs_.push_back(log_.dur(traced.tracesSpan) * 1e-3);
    chipMs_.push_back(log_.dur(traced.chipSpan) * 1e-6);
    energyUs_.push_back(log_.dur(traced.energySpan) * 1e-3);

    // Self time excludes the decorators' next() time (a child span).
    const double self_ns = log_.self(traced.runSpan);
    const double next_ns = ratio(traced.next.ns, traced.next.calls);
    if (gpu) {
        gpuNextNs_.push_back(next_ns);
        gpuNextTotal_ += traced.next.ns;
        gpuNsPerCycle_.push_back(ratio(self_ns, traced.cycles));
        gpuNsPerOp_.push_back(ratio(self_ns, traced.ops));
        gpuCycles_ += traced.cycles;
        gpuOps_ += traced.ops;
        gpuSkipped_ += traced.skipped;
    } else {
        cpuNextNs_.push_back(next_ns);
        cpuNextTotal_ += traced.next.ns;
        cpuNsPerCycle_.push_back(ratio(self_ns, traced.cycles));
        cpuNsPerOp_.push_back(ratio(self_ns, traced.ops));
        cpuCycles_ += traced.cycles;
        cpuOps_ += traced.ops;
        cpuSkipped_ += traced.skipped;
        syncOps_ += traced.syncOps;
        invals_ += traced.invals;
    }
}

void
Driver::checkSame(const CellRun &a, const CellRun &b, const char *what)
{
    if (a.cycles == b.cycles && a.ops == b.ops && a.energyJ == b.energyJ)
        return;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s: %s differs (cycles %llu vs %llu, ops %llu vs "
                  "%llu, energy %.17g vs %.17g)",
                  a.config.c_str(), a.workload.c_str(), what,
                  static_cast<unsigned long long>(a.cycles),
                  static_cast<unsigned long long>(b.cycles),
                  static_cast<unsigned long long>(a.ops),
                  static_cast<unsigned long long>(b.ops), a.energyJ,
                  b.energyJ);
    failures_.push_back(buf);
}

/** Restore the hooked run's last checkpoint into a fresh chip, time
 *  loadCheckpoint + restoreState, and finish the run: it must end
 *  exactly where the uninterrupted hooked run ended. */
void
Driver::probeRestore(const CpuCell &cell, const CellRun &hooked,
                     const std::string &ckpt)
{
    const core::CpuConfigBundle bundle = runnableBundle(cell);
    auto traces = workload::makeCpuWorkload(*cell.app, bundle.numCores,
                                            o_.seed, o_.scale);
    auto mc = std::make_unique<cpu::Multicore>(bundle.sim, pointers(traces));

    const int s = log_.begin("core.ckpt_restore " + cell.key(), nextCell_++,
                             -1);
    auto loaded = core::loadCheckpoint(ckpt, kCkptKey);
    bool restored = false;
    if (loaded.ok()) {
        Deserializer des(loaded->payload);
        restored = mc->restoreState(des);
    }
    const double ns = log_.end(s);
    if (!restored) {
        failures_.push_back(cell.key() + ": checkpoint restore failed");
        return;
    }
    restoreMs_.push_back(ns * 1e-6);

    // The resumed run must drain at the same cadence as its twin.
    CheckpointHook hook;
    hook.everyCycles = o_.cadence;
    hook.save = [](uint64_t, const std::string &) {};
    mc->setCheckpointHook(std::move(hook));
    const cpu::MulticoreResult run = mc->run();
    CellRun resumed;
    resumed.cycles = run.cycles;
    resumed.ops = run.committedOps;
    resumed.energyJ = cpuEnergyJ(bundle, *mc, run);
    checkSame(hooked, resumed, "restored run");
}

/** The library path must agree with the replica; its RunReport is the
 *  payload of a timed ResultStore put and get. */
void
Driver::probeStore(const CpuCell &cell, const CellRun &plain,
                   core::ResultStore &store)
{
    core::ExperimentOptions exp;
    exp.seed = o_.seed;
    exp.scale = o_.scale;
    obs::RunReport report;
    const core::CpuOutcome lib = core::runCpuExperiment(
        core::cpuConfigFromName(cell.config).value(), *cell.app, exp,
        &report);
    CellRun libRun;
    libRun.cycles = lib.cycles;
    libRun.ops = lib.committedOps;
    libRun.energyJ = lib.metrics.energyJ;
    checkSame(plain, libRun, "runCpuExperiment");

    const std::string payload = report.toJson();
    const std::string key =
        "hetbench|" + cell.key() + "|seed=" + std::to_string(o_.seed);
    const uint32_t id = nextCell_++;
    int s = log_.begin("core.store_put " + cell.key(), id, -1);
    const Status put = store.put(key, payload);
    putMs_.push_back(log_.end(s) * 1e-6);
    s = log_.begin("core.store_get " + cell.key(), id, -1);
    const Result<std::string> got = store.get(key);
    getMs_.push_back(log_.end(s) * 1e-6);
    if (!put.ok() || !got.ok() || got.value() != payload)
        failures_.push_back(cell.key() + ": store round trip failed");
}

/**
 * Replay the cell's loads and stores, plus one Ifetch per new code
 * line, round-robin across cores, through a fresh MemHierarchy and
 * through a DL1-shaped Cache (the floor). Timing and order of the real
 * run are not reproduced; the replay isolates the per-access cost.
 */
void
Driver::replayCpuMem(const CpuCell &cell, const CellRun &real)
{
    struct Access
    {
        uint32_t core;
        mem::Addr addr;
        mem::AccessType type;
    };
    const core::CpuConfigBundle bundle = runnableBundle(cell);
    auto traces = workload::makeCpuWorkload(*cell.app, bundle.numCores,
                                            o_.seed, o_.scale);
    std::vector<Access> acc;
    std::vector<mem::Addr> last_line(traces.size(), ~mem::Addr{0});
    std::vector<bool> live(traces.size(), true);
    size_t running = traces.size();
    while (running > 0 && acc.size() < kMaxReplay) {
        for (uint32_t c = 0; c < traces.size(); ++c) {
            cpu::MicroOp op;
            if (!live[c])
                continue;
            if (!traces[c]->next(op)) {
                live[c] = false;
                --running;
                continue;
            }
            if (mem::lineNumber(op.pc) != last_line[c]) {
                last_line[c] = mem::lineNumber(op.pc);
                acc.push_back({c, op.pc, mem::AccessType::Ifetch});
            }
            if (op.cls == cpu::OpClass::Load)
                acc.push_back({c, op.addr, mem::AccessType::Load});
            else if (op.cls == cpu::OpClass::Store)
                acc.push_back({c, op.addr, mem::AccessType::Store});
        }
    }

    const uint32_t id = nextCell_++;
    const int replay = log_.begin("mem.replay " + cell.key(), id, -1);
    mem::MemHierarchy hier(bundle.sim.mem);
    const int h = log_.begin("mem.hierarchy_access", id, replay);
    mem::Cycle now = 0;
    for (const Access &a : acc)
        ++sources_[hier.access(a.core, a.addr, a.type, now++).source];
    const double hier_ns = log_.end(h);

    mem::CacheParams dl1;
    dl1.name = "dl1_floor";
    dl1.sizeBytes = bundle.sim.mem.dl1SizeBytes;
    dl1.ways = bundle.sim.mem.dl1Ways;
    dl1.asymmetric = bundle.sim.mem.asymDl1;
    mem::Cache floor(dl1);
    const int f = log_.begin("mem.cache_access", id, replay);
    for (const Access &a : acc)
        if (!floor.access(a.addr).hit)
            floor.fill(a.addr, mem::CoherenceState::Exclusive);
    cacheNs_ += log_.end(f);
    log_.end(replay);

    replayed_ += acc.size();
    hierNs_ += hier_ns;
    // The replay's cost per access, times the real run's access count.
    shareEstNs_ += ratio(hier_ns, acc.size()) * real.l1Accesses;
    shareRunNs_ += log_.dur(real.runSpan);
}

/** Replay every vector-memory line access of the kernel, workgroups
 *  dealt round-robin to CUs, through a fresh GpuMemSystem. */
void
Driver::replayGpuMem(const GpuCell &cell)
{
    struct Access
    {
        uint32_t cu;
        uint64_t addr;
        bool store;
    };
    const core::GpuConfigBundle bundle =
        core::makeGpuConfig(cell.cfg, kFreqGhz / 2.0);
    workload::SyntheticKernel kernel(*cell.kernel, o_.seed, o_.scale);
    std::vector<Access> acc;
    for (uint32_t wg = 0;
         wg < kernel.numWorkgroups() && acc.size() < kMaxReplay; ++wg) {
        for (uint32_t wf = 0; wf < kernel.wavefrontsPerGroup(); ++wf) {
            auto program = kernel.makeWavefront(wg, wf);
            gpu::GpuOp op;
            while (program->next(op)) {
                if (op.cls != gpu::GpuOpClass::VLoad &&
                    op.cls != gpu::GpuOpClass::VStore)
                    continue;
                for (uint32_t l = 0; l < op.numLines; ++l)
                    acc.push_back({wg % bundle.sim.numCus,
                                   op.addr + uint64_t{l} * mem::kLineBytes,
                                   op.cls == gpu::GpuOpClass::VStore});
            }
        }
    }
    gpu::GpuMemSystem memsys(bundle.sim);
    const int s = log_.begin("gpu.mem_access " + cell.key(), nextCell_++,
                             -1);
    mem::Cycle now = 0;
    for (const Access &a : acc)
        memsys.access(a.cu, a.addr, a.store, now++);
    gpuMemNs_ += log_.end(s);
    gpuReplayed_ += acc.size();
}

bool
isReplayConfig(const std::string &config)
{
    return config == "BaseCMOS" || config == "AdvHet";
}

/** Every distinct Figure 7 cell, plain and decorated; the memory
 *  replay runs on BaseCMOS and AdvHet. */
void
Driver::traceCpuFigs()
{
    for (const CpuCell &cell : distinctCells(cpuPlan(o_))) {
        const CellRun plain = runCpu(cell, Variant::Plain);
        const CellRun traced = runCpu(cell, Variant::Decorated);
        notePair(plain, traced, false);
        golden_.push_back(traced);
        if (isReplayConfig(cell.config))
            replayCpuMem(cell, traced);
    }
}

void
Driver::traceGpuFigs()
{
    for (const GpuCell &cell : distinctCells(gpuPlan(o_))) {
        const CellRun plain = runGpu(cell, Variant::Plain);
        const CellRun traced = runGpu(cell, Variant::Decorated);
        notePair(plain, traced, true);
        golden_.push_back(traced);
        if (isReplayConfig(cell.config()))
            replayGpuMem(cell);
    }
}

/**
 * Each app on BaseCMOS and AdvHet, run plain, decorated, and hooked at
 * the sweep's checkpoint cadence; then the same cells through runSweep
 * (forked, journaled, checkpointed), whose results the hooked runs
 * must match.
 */
void
Driver::traceDurable()
{
    const std::string dir = o_.out + "/durable";
    std::filesystem::remove_all(dir);
    auto store = core::ResultStore::open(dir + "/store");
    auto sweep_store = core::ResultStore::open(dir + "/sweep");
    if (!store.ok() || !sweep_store.ok()) {
        failures_.push_back("cannot open a result store under " + dir);
        return;
    }

    std::vector<CpuCell> sample;
    std::vector<core::SweepCell> sweep_cells;
    for (const workload::AppProfile *app : o_.apps) {
        for (core::CpuConfig cfg :
             {core::CpuConfig::BaseCmos, core::CpuConfig::AdvHet}) {
            sample.push_back(configCell(cfg, app));
            sweep_cells.push_back(core::cpuAppCell(cfg, app->name));
        }
    }

    std::vector<CellRun> hooked_runs;
    for (size_t i = 0; i < sample.size(); ++i) {
        const CpuCell &cell = sample[i];
        const std::string ckpt = dir + "/cell-" + std::to_string(i) +
                                 core::kCheckpointSuffix;
        const CellRun plain = runCpu(cell, Variant::Plain);
        const CellRun traced = runCpu(cell, Variant::Decorated);
        const CellRun hooked = runCpu(cell, Variant::Hooked, ckpt);
        notePair(plain, traced, false);
        golden_.push_back(hooked);
        hooked_runs.push_back(hooked);

        saves_ += hooked.saves.calls;
        saveBytes_.insert(saveBytes_.end(), hooked.saveBytes.begin(),
                          hooked.saveBytes.end());
        if (hooked.saves.calls > 0) {
            // Drain and serialize: what the hook costs beyond the saves.
            inrunMs_.push_back((log_.dur(hooked.runSpan) -
                                log_.dur(traced.runSpan) -
                                static_cast<double>(hooked.saves.ns)) *
                               1e-6 / static_cast<double>(hooked.saves.calls));
            probeRestore(cell, hooked, ckpt);
        }
        core::removeCheckpoint(ckpt);
        probeStore(cell, plain, store.value());
        replayCpuMem(cell, traced);
    }

    core::SweepOptions so;
    so.exp.seed = o_.seed;
    so.exp.scale = o_.scale;
    so.exp.checkpointEveryCycles = o_.cadence;
    so.store = &sweep_store.value();
    so.checkpointDir = sweep_store->dir();
    so.jobs = 1;
    const int s = log_.begin("core.sweep", nextCell_++, -1);
    const core::SweepReport rep = core::runSweep(sweep_cells, so);
    log_.end(s);
    for (size_t i = 0; i < rep.results.size(); ++i) {
        const core::CellResult &res = rep.results[i];
        if (res.outcome != core::CellOutcome::Ok) {
            failures_.push_back(sample[i].key() + ": sweep cell " +
                                core::cellOutcomeName(res.outcome));
            continue;
        }
        CellRun swept;
        swept.cycles = res.cycles;
        swept.ops = res.ops;
        swept.energyJ = res.energyJ;
        checkSame(hooked_runs[i], swept, "runSweep cell");
        sweepOverheadMs_.push_back(
            res.wallMs - log_.dur(hooked_runs[i].cellSpan) * 1e-6);
    }
}

/**
 * Synthesis over the whole CPU space; kDseSample evenly strided designs
 * run plain and decorated; then evaluateCpuDesigns over those designs
 * on 1 and J pool threads, and again through the warm memo cache.
 */
void
Driver::traceDse()
{
    const workload::AppProfile *app = o_.apps.at(0);
    const std::vector<core::CpuHybridDesign> designs =
        core::enumerateCpuDesigns();
    const int synth = log_.begin("core.dse_synth", nextCell_++, -1);
    for (const core::CpuHybridDesign &d : designs) {
        const uint64_t t0 = nowNs();
        const bool ok = core::synthesizeCpuBundle(d, kFreqGhz).ok();
        synthUs_.push_back((nowNs() - t0) * 1e-3);
        if (!ok)
            failures_.push_back(core::designName(d) + ": synthesis failed");
    }
    log_.end(synth);

    std::vector<core::CpuHybridDesign> subset;
    std::vector<CellRun> traced_runs;
    const size_t stride = (designs.size() + kDseSample - 1) / kDseSample;
    for (size_t i = 0; i < designs.size(); i += stride) {
        subset.push_back(designs[i]);
        const CpuCell cell = designCell(designs[i], app);
        const CellRun plain = runCpu(cell, Variant::Plain);
        const CellRun traced = runCpu(cell, Variant::Decorated);
        notePair(plain, traced, false);
        golden_.push_back(traced);
        traced_runs.push_back(traced);
    }

    core::DseOptions opts;
    opts.exp.seed = o_.seed;
    opts.exp.scale = o_.scale;
    ThreadPool serial(1);
    ThreadPool pool(o_.jobs);
    core::DseCache serial_cache;
    core::DseCache pool_cache;
    const uint32_t id = nextCell_++;
    int s = log_.begin("core.dse_evaluate jobs=1", id, -1);
    const auto serial_pts =
        core::evaluateCpuDesigns(subset, *app, opts, serial, serial_cache);
    const double serial_ns = log_.end(s);
    s = log_.begin("core.dse_evaluate jobs=" + std::to_string(o_.jobs), id,
                   -1);
    const auto pool_pts =
        core::evaluateCpuDesigns(subset, *app, opts, pool, pool_cache);
    const double pool_ns = log_.end(s);
    const uint64_t hits = pool_cache.hits();
    const uint64_t misses = pool_cache.misses();
    s = log_.begin("core.dse_evaluate memo", id, -1);
    const auto memo_pts =
        core::evaluateCpuDesigns(subset, *app, opts, pool, pool_cache);
    log_.end(s);

    dseMsPerDesign_ = serial_ns * 1e-6 / static_cast<double>(subset.size());
    poolSpeedup_ = ratio(serial_ns, pool_ns);
    const double memo_hits = static_cast<double>(pool_cache.hits() - hits);
    memoHitFrac_ = ratio(
        memo_hits,
        memo_hits + static_cast<double>(pool_cache.misses() - misses));

    for (const auto *pts : {&serial_pts, &pool_pts, &memo_pts}) {
        if (pts->size() != subset.size()) {
            failures_.push_back("evaluateCpuDesigns dropped designs");
            continue;
        }
        for (size_t i = 0; i < subset.size(); ++i) {
            const CellRun &r = traced_runs[i];
            if ((*pts)[i].name != r.config ||
                (*pts)[i].seconds != r.seconds ||
                (*pts)[i].energyJ != r.energyJ)
                failures_.push_back(r.config +
                                    ": evaluateCpuDesigns differs");
        }
    }
}

void
Driver::putSummary(const std::string &name, const std::vector<double> &v)
{
    const Summary s = summarize(v);
    put(name, s.median);
    put(name + ".tail", s.tail);
    put(name + ".n", static_cast<double>(s.n));
}

void
Driver::computeMetrics()
{
    using mem::AccessSource;
    putSummary("setup.config_us", configUs_);
    putSummary("setup.traces_us", tracesUs_);
    putSummary("setup.chip_ms", chipMs_);

    const double run_total = tracedRunTotal_;
    putSummary("workload.cpu_next_ns", cpuNextNs_);
    put("workload.cpu_share", ratio(cpuNextTotal_, run_total));
    putSummary("workload.gpu_next_ns", gpuNextNs_);
    put("workload.gpu_share", ratio(gpuNextTotal_, run_total));

    putSummary("cpu.run_ns_per_cycle", cpuNsPerCycle_);
    put("cpu.run_ns_per_op", summarize(cpuNsPerOp_).median);
    put("cpu.skip_frac", ratio(cpuSkipped_, cpuCycles_));
    put("cpu.cycles", static_cast<double>(cpuCycles_));
    put("cpu.ops", static_cast<double>(cpuOps_));
    put("cpu.sync_ops_per_kop", 1e3 * ratio(syncOps_, cpuOps_));

    const double access_ns = ratio(hierNs_, replayed_);
    const double cache_ns = ratio(cacheNs_, replayed_);
    put("mem.access_ns", access_ns);
    put("mem.cache_access_ns", cache_ns);
    put("mem.hier_over_cache", ratio(access_ns, cache_ns));
    put("mem.share_est", ratio(shareEstNs_, shareRunNs_));
    auto frac = [&](std::initializer_list<AccessSource> which) {
        uint64_t n = 0;
        for (AccessSource src : which)
            n += sources_[src];
        return ratio(n, replayed_);
    };
    put("mem.frac_dl1", frac({AccessSource::Dl1Fast, AccessSource::Dl1,
                              AccessSource::Il1, AccessSource::Scratchpad}));
    put("mem.frac_l2", frac({AccessSource::L2}));
    put("mem.frac_l3", frac({AccessSource::L3}));
    put("mem.frac_remote", frac({AccessSource::RemoteCore}));
    put("mem.frac_dram", frac({AccessSource::Dram}));
    put("mem.inval_per_kop", 1e3 * ratio(invals_, cpuOps_));

    putSummary("gpu.run_ns_per_cycle", gpuNsPerCycle_);
    put("gpu.run_ns_per_op", summarize(gpuNsPerOp_).median);
    put("gpu.skip_frac", ratio(gpuSkipped_, gpuCycles_));
    put("gpu.cycles", static_cast<double>(gpuCycles_));
    put("gpu.ops", static_cast<double>(gpuOps_));
    put("gpu.mem_access_ns", ratio(gpuMemNs_, gpuReplayed_));

    putSummary("power.energy_us", energyUs_);

    put("core.ckpt_saves", static_cast<double>(saves_));
    put("core.ckpt_bytes", summarize(saveBytes_).median);
    putSummary("core.ckpt_save_ms", saveMs_);
    put("core.ckpt_inrun_ms", summarize(inrunMs_).median);
    put("core.ckpt_restore_ms", summarize(restoreMs_).median);
    putSummary("core.store_put_ms", putMs_);
    putSummary("core.store_get_ms", getMs_);
    putSummary("core.sweep_overhead_ms", sweepOverheadMs_);
    putSummary("core.dse_synth_us", synthUs_);
    put("core.dse_ms_per_design", dseMsPerDesign_);
    put("core.pool_speedup", poolSpeedup_);
    put("core.dse_memo_hit_frac", memoHitFrac_);
    put("core.redundant_cell_frac", redundantFrac_);
    put("bench.trace_overhead_frac",
        ratio(tracedRunTotal_ - plainRunTotal_, plainRunTotal_));
}

std::string
jsonStr(const std::string &s)
{
    return "\"" + obs::jsonEscape(s) + "\"";
}

void
Driver::printTrace(const std::string &span_path) const
{
    std::string j = "{\"workload\": " + jsonStr(o_.workload) +
                    ", \"spans\": " + jsonStr(span_path) +
                    ", \"attempted\": " + std::to_string(golden_.size()) +
                    ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        j += (i ? ", " : "") + jsonStr(failures_[i]);
    j += "], \"cells\": [";
    for (size_t i = 0; i < golden_.size(); ++i) {
        const CellRun &r = golden_[i];
        j += std::string(i ? ", " : "") + "{\"config\": " +
             jsonStr(r.config) + ", \"workload\": " + jsonStr(r.workload) +
             ", \"cycles\": " + std::to_string(r.cycles) +
             ", \"ops\": " + std::to_string(r.ops) +
             ", \"seconds\": " + obs::jsonDouble(r.seconds) +
             ", \"energy_j\": " + obs::jsonDouble(r.energyJ) + "}";
    }
    j += "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        j += (first ? "" : ", ") + jsonStr(name) + ": " + obs::jsonDouble(v);
        first = false;
    }
    j += "}}\n";
    std::fputs(j.c_str(), stdout);
}

int
Driver::setup()
{
    const std::vector<CpuCell> cpus = cpuPlan(o_);
    const std::vector<GpuCell> gpus = gpuPlan(o_);
    if (cpus.empty() && gpus.empty())
        usage("unknown workload '" + o_.workload + "'");
    std::string times;
    const uint64_t start = nowNs();
    for (int rep = 0; rep == 0 || (nowNs() - start) * 1e-9 < o_.seconds;
         ++rep) {
        const uint64_t t0 = nowNs();
        for (const CpuCell &cell : cpus) {
            const core::CpuConfigBundle bundle = cell.bundle();
            auto traces = workload::makeCpuWorkload(
                *cell.app, bundle.numCores, o_.seed, o_.scale);
            auto mc = std::make_unique<cpu::Multicore>(bundle.sim,
                                                       pointers(traces));
        }
        for (const GpuCell &cell : gpus) {
            const core::GpuConfigBundle bundle =
                core::makeGpuConfig(cell.cfg, kFreqGhz / 2.0);
            workload::SyntheticKernel kernel(*cell.kernel, o_.seed,
                                             o_.scale);
            auto chip = std::make_unique<gpu::Gpu>(bundle.sim);
        }
        times += (rep ? ", " : "") + obs::jsonDouble((nowNs() - t0) * 1e-9);
    }
    std::printf("{\"workload\": %s, \"cells\": %zu, \"setup_s\": [%s]}\n",
                jsonStr(o_.workload).c_str(), cpus.size() + gpus.size(),
                times.c_str());
    return 0;
}

int
Driver::trace()
{
    if (o_.out.empty())
        usage("trace needs --out DIR");
    std::filesystem::create_directories(o_.out);
    const double planned =
        static_cast<double>(cpuPlan(o_).size() + gpuPlan(o_).size());
    const double distinct =
        static_cast<double>(distinctCells(cpuPlan(o_)).size() +
                            distinctCells(gpuPlan(o_)).size());
    redundantFrac_ = 1.0 - ratio(distinct, planned);

    if (o_.workload == "cpu_figs")
        traceCpuFigs();
    else if (o_.workload == "gpu_figs")
        traceGpuFigs();
    else if (o_.workload == "durable_sweep")
        traceDurable();
    else if (o_.workload == "dse_cpu")
        traceDse();
    else
        usage("unknown workload '" + o_.workload + "'");

    const std::string span_path = o_.out + "/trace-" + o_.workload + ".json";
    if (!log_.writeChrome(span_path))
        failures_.push_back("cannot write " + span_path);
    computeMetrics();
    printTrace(span_path);
    return 0;
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        usage("missing mode or workload");
    Options o;
    o.mode = argv[1];
    o.workload = argv[2];
    for (int i = 3; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage(std::string("no value for ") + argv[i]);
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        if (flag == "--seed") {
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (flag == "--scale") {
            o.scale = std::atof(val.c_str());
        } else if (flag == "--apps") {
            size_t pos = 0;
            while (pos <= val.size()) {
                const size_t comma = std::min(val.find(',', pos), val.size());
                const auto app =
                    workload::findCpuApp(val.substr(pos, comma - pos));
                if (!app.ok())
                    usage(app.status().message());
                o.apps.push_back(app.value());
                pos = comma + 1;
            }
        } else if (flag == "--cadence") {
            o.cadence = std::strtoull(val.c_str(), nullptr, 10);
        } else if (flag == "--jobs") {
            o.jobs = static_cast<unsigned>(std::atoi(val.c_str()));
        } else if (flag == "--seconds") {
            o.seconds = std::atof(val.c_str());
        } else if (flag == "--out") {
            o.out = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.scale <= 0.0 || o.jobs < 1 || o.cadence < 1)
        usage("--scale, --jobs and --cadence must be given and positive");
    if ((o.workload == "durable_sweep" || o.workload == "dse_cpu") &&
        o.apps.empty())
        usage(o.workload + " needs --apps");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Driver driver(o);
    if (o.mode == "setup")
        return driver.setup();
    if (o.mode == "trace")
        return driver.trace();
    usage("unknown mode '" + o.mode + "'");
}
