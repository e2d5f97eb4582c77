/**
 * @file
 * hetsim_cli — the command-line front end to the library.
 *
 * Every option is declared once, in kOptions: its name, value kind,
 * the subcommands that take it, its default and one line of help.
 * Options keep the `--key value` form. The parser exits 1 with a
 * one-line error naming the option for an option the subcommand does
 * not take, a missing or repeated value, a value that does not parse
 * completely, and a value out of range; the usage text printed then
 * (and by `hetsim_cli` alone) is generated from the same table.
 *
 * The library reports input errors as Status values; this front end
 * is where they become messages and a nonzero process exit.
 */

#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/file.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/sweep.hh"
#include "cpu/multicore.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/trace_file.hh"

using namespace hetsim;

namespace
{

/** Subcommands, as bits so that one option can name several. */
enum Cmd : unsigned
{
    kList = 1u << 0,
    kRun = 1u << 1,
    kGpu = 1u << 2,
    kRecord = 1u << 3,
    kReplay = 1u << 4,
    kSweep = 1u << 5,
    kDse = 1u << 6,
    kStore = 1u << 7,
};

/** The commands that fill ExperimentOptions (experimentOptions()). */
constexpr unsigned kSim = kRun | kGpu | kSweep | kDse;

/** What a value must parse as, completely. */
enum class Kind
{
    Str,    ///< Any non-empty string.
    Count,  ///< Integer in [lo, hi], decimal digits only.
    Pos,    ///< Finite number > 0.
    NonNeg, ///< Finite number >= 0.
    Flag,   ///< 0 or 1.
};

struct Option
{
    const char *name;
    Kind kind;
    unsigned cmds;    ///< Subcommands that take it.
    const char *dflt; ///< Default; "" = none, nullptr = required.
    const char *help;
    uint64_t lo = 0; ///< Count range.
    uint64_t hi = UINT64_MAX;
};

/** Every option. An option listed twice has a per-command default. */
const Option kOptions[] = {
    {"config", Kind::Str, kRun | kGpu | kReplay, "BaseCMOS",
     "configuration (names: hetsim_cli list)"},
    {"app", Kind::Str, kRun | kRecord | kDse, "fft", "CPU application"},
    {"kernel", Kind::Str, kGpu | kDse, "matrixmul", "GPU kernel"},
    {"scale", Kind::Pos, kRun | kGpu | kRecord | kSweep, "1",
     "workload size multiplier"},
    {"scale", Kind::Pos, kDse, "0.05", "workload size multiplier"},
    {"seed", Kind::Count, kSim | kRecord, "1", "workload seed"},
    {"freq", Kind::Pos, kRun | kSweep | kDse, "2",
     "CPU clock in GHz; the GPU runs at half"},
    {"cores", Kind::Count, kRun, "0",
     "core count, 1-32 (0 = the configuration's)", 0, 32},
    {"watchdog-cycles", Kind::Count, kSweep, "0", "cycle limit per cell"},
    {"no-skip", Kind::Flag, kSim, "0",
     "1 = tick every cycle (reports are identical either way)"},
    {"checkpoint", Kind::Str, kRun | kGpu, "",
     "checkpoint file: resume from it, save to it, remove it when done"},
    {"checkpoint-every", Kind::Count, kRun | kGpu | kSweep, "0",
     "cycles between checkpoints (0 = only on SIGTERM, which exits 3)"},
    {"store", Kind::Str, kSim, "",
     "result store directory: journal results, reuse them warm"},
    {"report-json", Kind::Str, kSim, "", "write the JSON report"},
    {"csv", Kind::Str, kRun | kSweep | kDse, "", "write the table as CSV"},
    {"trace-out", Kind::Str, kRun | kGpu, "",
     "write the last pipeline events as chrome://tracing JSON"},
    {"trace-capacity", Kind::Count, kRun | kGpu, "65536",
     "events --trace-out keeps", 0, 1u << 24},
    {"out", Kind::Str, kRecord, nullptr, "trace file to write"},
    {"thread", Kind::Count, kRecord, "0", "thread to record", 0, UINT32_MAX},
    {"threads", Kind::Count, kRecord, "4", "application threads", 1,
     UINT32_MAX},
    {"max", Kind::Count, kRecord, "", "record at most this many ops"},
    {"trace", Kind::Str, kReplay, nullptr, "trace file to replay"},
    {"configs", Kind::Str, kSweep, "all",
     "CPU configurations, comma-separated, or all"},
    {"workloads", Kind::Str, kSweep, "",
     "CPU workloads x --configs: fft, app:fft@scale=2, trace:FILE"},
    {"gpu-configs", Kind::Str, kSweep, "",
     "GPU configurations x --kernels"},
    {"kernels", Kind::Str, kSweep, "", "GPU kernels, comma-separated"},
    {"cells", Kind::Str, kSweep, "", "extra Config/workload cells"},
    {"jobs", Kind::Count, kSweep | kDse, "1",
     "cells in flight; results do not depend on it", 0, 1024},
    {"timeout-ms", Kind::NonNeg, kSweep, "0", "wall-clock limit per cell"},
    {"no-isolate", Kind::Flag, kSweep, "0",
     "1 = run cells in this process, not in forked children"},
    {"resume", Kind::Flag, kSweep, "0", "1 = replay cells journaled in store"},
    {"retries", Kind::Count, kSweep, "0",
     "re-runs of a crashed or killed cell", 0, UINT32_MAX},
    {"retry-backoff-ms", Kind::NonNeg, kSweep, "50",
     "base of the exponential retry backoff"},
    {"space", Kind::Str, kDse, "cpu", "design space: cpu or gpu"},
    {"objective", Kind::Str, kDse, "ed2", "ed2, energy or time"},
    {"strategy", Kind::Str, kDse, "exhaustive",
     "exhaustive, or greedy (cpu space only)"},
    {"budget-mm2", Kind::NonNeg, kDse, "0", "area budget (0 = none)"},
    {"repeat", Kind::Count, kDse, "1",
     "search passes; a repeated pass is served by the cache"},
    {"dir", Kind::Str, kStore, nullptr, "store directory"},
};

/** The entry of --name that `cmds` takes, or nullptr. */
const Option *
findOption(const char *name, unsigned cmds)
{
    for (const Option &o : kOptions) {
        if ((o.cmds & cmds) && std::strcmp(o.name, name) == 0)
            return &o;
    }
    return nullptr;
}

/** CLI-layer fatal: print and exit(1). Library code returns Status
 *  instead; only the front end may terminate the process. */
[[noreturn]] void
die(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void
die(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "error: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(1);
}

[[noreturn]] void
dieOn(const Status &status)
{
    die("%s", status.toString().c_str());
}

/** The value of `r`, or exit 1 with its error. */
template <typename T>
T
orDie(Result<T> r)
{
    if (!r.ok())
        dieOn(r.status());
    return std::move(r).value();
}

/** The validated options of one subcommand invocation. */
class Args
{
  public:
    Args(unsigned cmd, int argc, char **argv);

    unsigned cmd() const { return cmd_; }
    /** `store`'s action: fsck or gc. */
    const std::string &action() const { return action_; }
    /** True when the option was given on the command line. */
    bool has(const char *name) const { return given_.count(name) != 0; }

    std::string str(const char *name) const { return value(name); }
    double num(const char *name) const
    {
        return std::strtod(value(name).c_str(), nullptr);
    }
    uint64_t count(const char *name) const
    {
        return std::strtoull(value(name).c_str(), nullptr, 10);
    }
    bool flag(const char *name) const { return value(name) == "1"; }

  private:
    std::string value(const char *name) const;

    unsigned cmd_;
    std::string action_;
    std::map<std::string, std::string> given_;
};

/** Why `value` is not a value of `o`; empty when it is one. */
std::string
badValue(const Option &o, const std::string &value)
{
    const char *text = value.c_str();
    char *end = nullptr;
    errno = 0;
    if (o.kind == Kind::Str)
        return "";
    if (o.kind == Kind::Flag)
        return value == "0" || value == "1" ? "" : "expected 0 or 1";
    if (o.kind == Kind::Count) {
        const uint64_t v = std::strtoull(text, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
            *end != '\0')
            return "expected a non-negative integer";
        if (errno == ERANGE || v < o.lo || v > o.hi)
            return "out of range [" + std::to_string(o.lo) + ", " +
                   std::to_string(o.hi) + "]";
        return "";
    }
    const double v = std::strtod(text, &end);
    if (std::isspace(static_cast<unsigned char>(text[0])) ||
        end == text || *end != '\0')
        return "expected a number";
    if (errno == ERANGE || !std::isfinite(v) || v < 0.0 ||
        (o.kind == Kind::Pos && v == 0.0))
        return o.kind == Kind::Pos ? "out of range: expected > 0"
                                   : "out of range: expected >= 0";
    return "";
}

/** The non-empty items of a comma-separated list. */
std::vector<std::string>
splitCsvList(const std::string &list)
{
    std::vector<std::string> out;
    std::istringstream in(list);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Preemption flag shared by the SIGTERM handler and checkpointed
 *  commands; forked sweep children inherit the handler, so a signal
 *  to the process group preempts the in-flight cell too. */
volatile sig_atomic_t g_preempt = 0;

extern "C" void
onPreemptSignal(int)
{
    g_preempt = 1;
}

/** Exit code of a run stopped at a preemption checkpoint (1 is a
 *  plain error). */
constexpr int kExitPreempted = 3;

/**
 * The ExperimentOptions of run, gpu, sweep and dse. A field whose
 * option the command does not take keeps the table default, so a new
 * field is one table entry and one line here. A checkpointed command
 * installs the SIGTERM handler that drains it to a checkpoint.
 */
core::ExperimentOptions
experimentOptions(const Args &args)
{
    core::ExperimentOptions opts;
    opts.seed = args.count("seed");
    opts.scale = args.num("scale");
    opts.freqGhz = args.num("freq");
    opts.coresOverride = static_cast<uint32_t>(args.count("cores"));
    opts.watchdogCycles = args.count("watchdog-cycles");
    opts.noSkip = args.flag("no-skip");
    opts.checkpointPath = args.str("checkpoint");
    opts.checkpointEveryCycles = args.count("checkpoint-every");
    // run and gpu checkpoint to a file; sweep cells into the store.
    const char *home = args.cmd() == kSweep ? "store" : "checkpoint";
    if (opts.checkpointEveryCycles > 0 && !args.has(home))
        die("--checkpoint-every needs --%s", home);
    if (opts.checkpointEveryCycles > 0 || !opts.checkpointPath.empty()) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = onPreemptSignal;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGTERM, &sa, nullptr);
        opts.preempt = &g_preempt;
    }
    return opts;
}

int
cmdList(const Args &)
{
    std::printf("CPU configurations:\n ");
    for (int i = 0; i < core::kNumCpuConfigs; ++i)
        std::printf(" %s", core::cpuConfigName(
                               static_cast<core::CpuConfig>(i)));
    std::printf("\nGPU configurations:\n ");
    for (int i = 0; i < core::kNumGpuConfigs; ++i)
        std::printf(" %s", core::gpuConfigName(
                               static_cast<core::GpuConfig>(i)));
    std::printf("\nCPU applications:\n ");
    for (const auto &app : workload::cpuApps())
        std::printf(" %s", app.name);
    std::printf("\nGPU kernels:\n ");
    for (const auto &k : workload::gpuKernels())
        std::printf(" %s", k.name);
    std::printf("\n");
    return 0;
}

/** Open the --store directory when given; dies on open failure. */
std::optional<core::ResultStore>
openStoreArg(const Args &args)
{
    if (!args.has("store"))
        return std::nullopt;
    return orDie(core::ResultStore::open(args.str("store")));
}

/** Simulates one run or gpu invocation into (report, trace). */
using Simulate = std::function<core::RunRecord(obs::RunReport *,
                                               obs::TraceBuffer *)>;

/**
 * The path run and gpu share: serve the invocation from --store when
 * it holds a verified record under the run key, else simulate it
 * (exit 3 when a checkpointed run is preempted) and journal it with
 * its report; then print the table and write the artifacts. A record
 * without a report (journaled by sweep or dse) serves only a run that
 * writes none. gpu prints no ED^2 row and takes no --csv. A traced run
 * always simulates (tracing records live pipeline events) and still
 * journals its result.
 */
int
runOne(const Args &args, const std::string &config,
       const std::string &workload, const core::ExperimentOptions &opts,
       uint64_t design_hash, const Simulate &simulate)
{
    const bool gpu = args.cmd() == kGpu;
    obs::RunReport report;
    const bool want_trace = args.has("trace-out");
    // The ring exists only for --trace-out: at the default capacity
    // it is 1.5 MiB.
    std::optional<obs::TraceBuffer> trace;
    if (want_trace)
        trace.emplace(static_cast<size_t>(args.count("trace-capacity")));

    std::optional<core::ResultStore> store = openStoreArg(args);
    const std::string key = core::runKey(design_hash, workload, opts);

    core::RunRecord rec;
    bool from_store = false;
    if (store && !want_trace) {
        if (Result<std::string> hit = store->get(key); hit.ok()) {
            Result<core::RunRecord> stored =
                core::decodeRunRecord(hit.value());
            from_store = stored.ok() && (!args.has("report-json") ||
                                         !stored->reportJson.empty());
            if (from_store)
                rec = std::move(stored).value();
        }
    }

    if (!from_store) {
        // Fill the report whenever it is journaled, not only when
        // --report-json asked for it: a later warm hit needs it.
        const bool want_report = args.has("report-json") || store;
        rec = simulate(want_report ? &report : nullptr,
                       trace ? &*trace : nullptr);
        if (rec.status.code() == ErrorCode::Preempted) {
            std::printf("preempted at cycle %llu: checkpoint saved "
                        "to %s; rerun the same command to resume\n",
                        static_cast<unsigned long long>(rec.cycles),
                        opts.checkpointPath.c_str());
            return kExitPreempted;
        }
        report.designHash = design_hash;
        if (want_report)
            rec.reportJson = report.toJson();
        // Without a cadence a preemption drains off-cadence and
        // perturbs timing, so a run that may have resumed from such a
        // checkpoint is not the result its key names: never journal
        // one.
        const bool preempt_only = !opts.checkpointPath.empty() &&
                                  opts.checkpointEveryCycles == 0;
        if (store && !preempt_only) {
            if (Status s = store->put(key, core::encodeRunRecord(rec));
                !s.ok())
                warn("%s: store put failed: %s", gpu ? "gpu" : "run",
                     s.toString().c_str());
        }
    }

    const double power_w =
        rec.seconds > 0.0 ? rec.energyJ / rec.seconds : 0.0;
    TablePrinter t(std::string(gpu ? "hetsim gpu: " : "hetsim run: ") +
                       config + " / " + workload,
                   {"metric", "value"});
    t.addRow({"cycles", std::to_string(rec.cycles)});
    t.addRow({gpu ? "issued ops" : "committed ops",
              std::to_string(rec.ops)});
    t.addRow({"time (ms)", formatDouble(rec.seconds * 1e3, 4)});
    t.addRow({"energy (mJ)", formatDouble(rec.energyJ * 1e3, 4)});
    t.addRow({"power (W)", formatDouble(power_w, 3)});
    if (!gpu) {
        char ed2[32];
        std::snprintf(ed2, sizeof(ed2), "%.3e",
                      rec.energyJ * rec.seconds * rec.seconds);
        t.addRow({"ED^2 (J s^2)", ed2});
    }
    t.print();
    if (from_store)
        std::printf("store: verified hit (%s)\n",
                    store->entryPath(key).c_str());
    if (args.has("report-json")) {
        // A warm hit writes the journaled bytes: the cold run's file.
        const std::string path = args.str("report-json");
        if (const Status s = writeFile(path, rec.reportJson); !s.ok())
            dieOn(s);
        std::printf("report: %s\n", path.c_str());
    }
    if (want_trace) {
        const std::string path = args.str("trace-out");
        if (const Status s = obs::writeChromeTrace(*trace, path);
            !s.ok())
            dieOn(s);
        std::printf("trace: %s (%llu events kept, %llu dropped)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(trace->size()),
                    static_cast<unsigned long long>(trace->dropped()));
    }
    const std::string csv = args.str("csv");
    if (!csv.empty() && !t.writeCsv(csv))
        die("cannot write '%s'", csv.c_str());
    return 0;
}

int
cmdRun(const Args &args)
{
    const core::CpuConfig cfg =
        orDie(core::cpuConfigFromName(args.str("config")));
    const workload::AppProfile *app =
        orDie(workload::findCpuApp(args.str("app")));
    const core::ExperimentOptions opts = experimentOptions(args);
    // A --freq below the DRAM/L3 round-trip floor fails synthesis.
    const core::CpuHybridDesign design = core::cpuHybridFromConfig(cfg);
    const core::CpuConfigBundle bundle =
        orDie(core::synthesizeCpuBundle(design, opts.freqGhz));
    const uint64_t hash = core::designHash(design);
    return runOne(args, core::cpuConfigName(cfg), app->name, opts, hash,
                  [&](obs::RunReport *report, obs::TraceBuffer *trace) {
                      return core::runRecord(core::runCpuBundle(
                          bundle, core::cpuConfigName(cfg), hash, *app,
                          opts, report, trace));
                  });
}

int
cmdGpu(const Args &args)
{
    const core::GpuConfig cfg =
        orDie(core::gpuConfigFromName(args.str("config")));
    const workload::KernelProfile *kernel =
        orDie(workload::findGpuKernel(args.str("kernel")));
    const core::ExperimentOptions opts = experimentOptions(args);
    return runOne(args, core::gpuConfigName(cfg), kernel->name, opts,
                  core::designHash(core::gpuHybridFromConfig(cfg)),
                  [&](obs::RunReport *report, obs::TraceBuffer *trace) {
                      return core::runRecord(core::runGpuExperiment(
                          cfg, *kernel, opts, report, trace));
                  });
}

int
cmdRecord(const Args &args)
{
    const workload::AppProfile *app =
        orDie(workload::findCpuApp(args.str("app")));
    const std::string out_path = args.str("out");
    const uint32_t threads = static_cast<uint32_t>(args.count("threads"));
    const uint32_t thread = static_cast<uint32_t>(args.count("thread"));
    workload::SyntheticCpuTrace src(*app, thread, threads,
                                    args.count("seed"),
                                    args.num("scale"));
    const uint64_t n = orDie(workload::recordTrace(
        src, out_path, args.has("max") ? args.count("max") : ~0ull));
    std::printf("recorded %llu ops of %s (thread %u/%u) to %s\n",
                static_cast<unsigned long long>(n), app->name, thread,
                threads, out_path.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    const std::string path = args.str("trace");
    const core::CpuConfig cfg =
        orDie(core::cpuConfigFromName(args.str("config")));
    const core::CpuConfigBundle bundle = core::makeCpuConfig(cfg);

    auto trace = orDie(workload::FileTrace::open(path));
    cpu::MulticoreParams sim = bundle.sim;
    sim.mem.numCores = 1;
    cpu::Multicore mc(sim, {trace.get()});
    const cpu::MulticoreResult run = mc.run();
    if (!trace->status().ok())
        dieOn(trace->status());
    std::printf("replayed %llu ops from %s on one %s core: "
                "%llu cycles (%.4f ms, IPC %.2f)\n",
                static_cast<unsigned long long>(run.committedOps),
                path.c_str(), core::cpuConfigName(cfg),
                static_cast<unsigned long long>(run.cycles),
                run.seconds * 1e3,
                static_cast<double>(run.committedOps) / run.cycles);
    return 0;
}

int
cmdSweep(const Args &args)
{
    // Configurations: every CPU config by default.
    std::vector<core::CpuConfig> cfgs;
    const std::string cfg_list = args.str("configs");
    if (cfg_list == "all") {
        for (int i = 0; i < core::kNumCpuConfigs; ++i)
            cfgs.push_back(static_cast<core::CpuConfig>(i));
    } else {
        for (const std::string &name : splitCsvList(cfg_list))
            cfgs.push_back(orDie(core::cpuConfigFromName(name)));
    }

    // Workload specs crossed with the CPU configs.
    std::vector<std::string> specs = splitCsvList(args.str("workloads"));
    std::vector<core::SweepCell> cells;
    if (!specs.empty())
        cells = orDie(core::crossCpuCells(cfgs, specs));

    // GPU cells: every named GPU config x every kernel spec.
    const auto kernel_list = splitCsvList(args.str("kernels"));
    for (const std::string &name : splitCsvList(args.str("gpu-configs"))) {
        const core::GpuConfig gcfg =
            orDie(core::gpuConfigFromName(name));
        for (const std::string &k : kernel_list)
            cells.push_back(core::gpuKernelCell(gcfg, k));
    }

    // Individually added cells: "Config/spec" entries.
    for (const std::string &entry : splitCsvList(args.str("cells"))) {
        const size_t slash = entry.find('/');
        if (slash == std::string::npos)
            die("bad --cells entry '%s' (expected Config/workload)",
                entry.c_str());
        core::SweepCell cell =
            orDie(core::parseWorkloadSpec(entry.substr(slash + 1)));
        const std::string cfg = entry.substr(0, slash);
        if (cell.kind == core::SweepCell::Kind::GpuKernel)
            cell.gpuCfg = orDie(core::gpuConfigFromName(cfg));
        else
            cell.cpuCfg = orDie(core::cpuConfigFromName(cfg));
        cells.push_back(std::move(cell));
    }

    if (cells.empty())
        die("sweep needs --workloads, --kernels, or --cells");

    core::SweepOptions opts;
    opts.exp = experimentOptions(args);
    opts.wallLimitMs = args.num("timeout-ms");
    opts.isolate = !args.flag("no-isolate");
    opts.jobs = static_cast<unsigned>(args.count("jobs"));
    opts.verbose = true;

    std::optional<core::ResultStore> store = openStoreArg(args);
    opts.store = store ? &*store : nullptr;
    opts.resume = args.flag("resume");
    opts.maxRetries = static_cast<uint32_t>(args.count("retries"));
    opts.retryBackoffMs = args.num("retry-backoff-ms");
    if (opts.resume && !opts.store)
        die("--resume 1 needs --store <dir> (nothing to replay)");
    // Mid-run cell checkpoints live in the store directory.
    if (opts.exp.checkpointEveryCycles > 0)
        opts.checkpointDir = store->dir();

    const core::SweepReport report = core::runSweep(cells, opts);
    if (const Status s = printSweepReport(report, args.str("csv"));
        !s.ok())
        dieOn(s);
    if (report.preempted()) {
        std::printf("preempted: mid-run checkpoints journaled in "
                    "%s; rerun with --resume 1 to continue\n",
                    store->dir().c_str());
        return kExitPreempted;
    }
    if (args.has("report-json")) {
        const std::string path = args.str("report-json");
        if (const Status s = core::writeSweepReportJson(report, path);
            !s.ok())
            dieOn(s);
        std::printf("report: %s\n", path.c_str());
    }
    // Per-cell failures are data, not a process failure: a sweep
    // that completes exits 0 so batch drivers keep their results.
    return 0;
}

/** Table IV annotation: the enum name when a free-form design
 *  coincides with a paper configuration, else "". */
std::string
tableIvNameCpu(uint64_t hash)
{
    for (int i = 0; i < core::kNumCpuConfigs; ++i) {
        const auto cfg = static_cast<core::CpuConfig>(i);
        if (core::designHash(core::cpuHybridFromConfig(cfg)) == hash)
            return core::cpuConfigName(cfg);
    }
    return "";
}

std::string
tableIvNameGpu(uint64_t hash)
{
    for (int i = 0; i < core::kNumGpuConfigs; ++i) {
        const auto cfg = static_cast<core::GpuConfig>(i);
        if (core::designHash(core::gpuHybridFromConfig(cfg)) == hash)
            return core::gpuConfigName(cfg);
    }
    return "";
}

int
cmdDse(const Args &args)
{
    const std::string space = args.str("space");
    if (space != "cpu" && space != "gpu")
        die("--space must be cpu or gpu, got '%s'", space.c_str());

    core::DseOptions opts;
    opts.exp = experimentOptions(args);
    opts.jobs = static_cast<unsigned>(args.count("jobs"));
    opts.areaBudgetMm2 = args.num("budget-mm2");
    opts.objective =
        orDie(core::dseObjectiveFromName(args.str("objective")));

    const std::string strategy = args.str("strategy");
    if (strategy != "exhaustive" && strategy != "greedy")
        die("--strategy must be exhaustive or greedy, got '%s'",
            strategy.c_str());
    const uint64_t repeat = std::max<uint64_t>(args.count("repeat"), 1);
    // Every CPU search holds the base design, whose round trips are
    // the shortest: a --freq it cannot be built at leaves no design.
    if (space == "cpu")
        orDie(core::synthesizeCpuBundle(core::CpuHybridDesign{},
                                        opts.exp.freqGhz));

    std::optional<core::ResultStore> store = openStoreArg(args);
    opts.store = store ? &*store : nullptr;

    ThreadPool pool(opts.jobs);
    core::DseCache cache;
    std::vector<core::DsePoint> points;
    uint64_t prev_hits = 0, prev_misses = 0, prev_store_hits = 0;

    for (uint64_t pass = 1; pass <= repeat; ++pass) {
        if (space == "cpu") {
            const workload::AppProfile *app =
                orDie(workload::findCpuApp(args.str("app")));
            if (strategy == "greedy") {
                points = core::greedyCpuSearch(*app, opts, pool, cache);
            } else {
                points = core::evaluateCpuDesigns(
                    core::enumerateCpuDesigns(), *app, opts, pool,
                    cache);
            }
        } else {
            if (strategy == "greedy")
                die("--strategy greedy explores the CPU space; "
                    "the 17-design GPU space is exhaustive-only");
            const workload::KernelProfile *kernel =
                orDie(workload::findGpuKernel(args.str("kernel")));
            points = core::evaluateGpuDesigns(
                core::enumerateGpuDesigns(), *kernel, opts, pool,
                cache);
        }
        // The store is read only on memo misses, so its hits are the
        // misses it served.
        const uint64_t hits = cache.hits() - prev_hits;
        const uint64_t misses = cache.misses() - prev_misses;
        const uint64_t store_hits =
            store ? store->counters().hits - prev_store_hits : 0;
        prev_hits = cache.hits();
        prev_misses = cache.misses();
        prev_store_hits += store_hits;
        std::printf("pass %llu/%llu: %zu designs evaluated "
                    "(%llu simulated, %llu cache hits",
                    static_cast<unsigned long long>(pass),
                    static_cast<unsigned long long>(repeat),
                    points.size(),
                    static_cast<unsigned long long>(misses - store_hits),
                    static_cast<unsigned long long>(hits));
        if (store)
            std::printf(", %llu store hits",
                        static_cast<unsigned long long>(store_hits));
        std::printf(")\n");
    }
    if (points.empty())
        die("no designs survived synthesis and the area budget");

    const std::vector<size_t> front =
        core::paretoFront(points, opts.objective);

    TablePrinter t(
        "dse " + space + " Pareto front over (time, energy, area), "
        "best " + std::string(dseObjectiveName(opts.objective)) +
        " first (" + std::to_string(points.size()) + " designs "
        "explored)",
        {"design", space == "cpu" ? "cores" : "CUs", "time (ms)",
         "energy (mJ)", "ED^2 (J s^2)", "area (mm^2)", "Table IV"});
    for (size_t idx : front) {
        const core::DsePoint &p = points[idx];
        char ed2[32];
        std::snprintf(ed2, sizeof(ed2), "%.3e", p.ed2());
        t.addRow({p.name, std::to_string(p.cores),
                  formatDouble(p.seconds * 1e3, 4),
                  formatDouble(p.energyJ * 1e3, 4), ed2,
                  formatDouble(p.areaMm2, 2),
                  space == "cpu" ? tableIvNameCpu(p.hash)
                                 : tableIvNameGpu(p.hash)});
    }
    t.print();

    const core::DsePoint &best = points[front.front()];
    std::printf("\nbest %s: %s", dseObjectiveName(opts.objective),
                best.name.c_str());
    const std::string best_iv = space == "cpu"
        ? tableIvNameCpu(best.hash) : tableIvNameGpu(best.hash);
    if (!best_iv.empty())
        std::printf(" (= Table IV %s)", best_iv.c_str());
    std::printf("\ncache: %llu hits, %llu misses across %llu "
                "pass(es)\n",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(repeat));
    if (store) {
        const core::ResultStore::Counters sc = store->counters();
        std::printf("store: %llu hits, %llu misses, %llu writes, "
                    "%llu quarantined\n",
                    static_cast<unsigned long long>(sc.hits),
                    static_cast<unsigned long long>(sc.misses),
                    static_cast<unsigned long long>(sc.puts),
                    static_cast<unsigned long long>(sc.quarantined));
    }

    if (args.has("report-json")) {
        const std::string path = args.str("report-json");
        const Status s = core::writeDseReportJson(
            points, args.str(space == "cpu" ? "app" : "kernel"),
            opts.objective, path);
        if (!s.ok())
            dieOn(s);
        std::printf("report: %s\n", path.c_str());
    }

    const std::string csv = args.str("csv");
    if (!csv.empty() && !t.writeCsv(csv))
        die("cannot write '%s'", csv.c_str());
    return 0;
}

int
cmdStore(const Args &args)
{
    const std::string &sub = args.action();
    const std::string dir = args.str("dir");
    const core::StoreFsckReport r = orDie(core::fsckStore(
        dir, workload::kTraceVersion, /*prune=*/sub == "gc"));
    for (const std::string &note : r.notes)
        std::printf("%s\n", note.c_str());
    std::printf("store %s %s: %llu entries ok, %llu corrupt "
                "(quarantined), %llu quarantined files, "
                "%llu orphan temps, %llu checkpoints "
                "(%llu verified, %llu corrupt, left in place), "
                "%llu pruned\n",
                sub.c_str(), dir.c_str(),
                static_cast<unsigned long long>(r.okEntries),
                static_cast<unsigned long long>(r.corruptEntries),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.orphanTemps),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.okCheckpoints),
                static_cast<unsigned long long>(r.corruptCheckpoints),
                static_cast<unsigned long long>(r.pruned));
    // Nonzero while problem files remain on disk (fsck reports, gc
    // removes; corrupt checkpoints are report-only and stay until
    // their owning run quarantines or replaces them), so cron-style
    // health checks can alert on fsck.
    const uint64_t remaining =
        r.quarantined + r.orphanTemps - r.pruned +
        r.corruptCheckpoints;
    return remaining > 0 ? 1 : 0;
}

struct Command
{
    const char *name;
    unsigned bit;
    int (*run)(const Args &);
    const char *help;
};

const Command kCommands[] = {
    {"list", kList, cmdList,
     "print every configuration, application and GPU kernel"},
    {"run", kRun, cmdRun, "simulate one CPU experiment"},
    {"gpu", kGpu, cmdGpu, "simulate one GPU experiment"},
    {"record", kRecord, cmdRecord,
     "record a synthetic CPU trace to a binary file"},
    {"replay", kReplay, cmdReplay,
     "replay a recorded trace through one core"},
    {"sweep", kSweep, cmdSweep,
     "run config x workload cells, each in a forked child; exits 0 "
     "when cells fail"},
    {"dse", kDse, cmdDse,
     "search the per-unit hybrid design space for a Pareto front"},
    {"store", kStore, cmdStore,
     "fsck|gc: verify a result store, or also delete its debris; "
     "fsck exits 1 while problem files remain"},
};

/** The usage text of the commands in `cmds`, on stderr. */
void
printUsage(unsigned cmds)
{
    const Command *only = nullptr;
    for (const Command &c : kCommands) {
        if (c.bit == cmds)
            only = &c;
    }
    std::fprintf(stderr, "usage: hetsim_cli %s [--option value]...\n",
                 only ? only->name : "<command>");
    for (const Command &c : kCommands) {
        if (c.bit & cmds)
            std::fprintf(stderr, "  %-7s %s\n", c.name, c.help);
    }
    std::fprintf(stderr, "options (S text, N integer, X number; "
                         "* required):\n");
    static const char *const kPlaceholder[] = {"S", "N", "X", "X",
                                               "0|1"};
    for (const Option &o : kOptions) {
        if (!(o.cmds & cmds))
            continue;
        std::string who;
        for (const Command &c : kCommands) {
            if (c.bit & o.cmds)
                who += (who.empty() ? "" : ",") + std::string(c.name);
        }
        const std::string flag = std::string("--") + o.name + " " +
            kPlaceholder[static_cast<int>(o.kind)] +
            (o.dflt ? "" : " *");
        std::fprintf(stderr, "  %-22s %-24s %s", flag.c_str(),
                     who.c_str(), o.help);
        if (o.dflt && *o.dflt)
            std::fprintf(stderr, " (default %s)", o.dflt);
        std::fprintf(stderr, "\n");
    }
}

/** Exit 1 with `msg` and the usage text of `cmd`. */
[[noreturn]] void
usageError(unsigned cmd, const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    printUsage(cmd);
    std::exit(1);
}

Args::Args(unsigned cmd, int argc, char **argv) : cmd_(cmd)
{
    int i = 2;
    if (cmd == kStore) {
        if (argc < 3 || (std::strcmp(argv[2], "fsck") != 0 &&
                         std::strcmp(argv[2], "gc") != 0))
            usageError(cmd, "store needs an action: fsck or gc");
        action_ = argv[i++];
    }
    for (; i < argc; i += 2) {
        const std::string opt = argv[i];
        if (opt.compare(0, 2, "--") != 0)
            usageError(cmd, "expected --option, got '" + opt + "'");
        const Option *o = findOption(argv[i] + 2, cmd);
        if (!o)
            usageError(cmd, opt + " is not an option of " + argv[1]);
        const std::string value = i + 1 < argc ? argv[i + 1] : "";
        if (value.empty() || value.compare(0, 2, "--") == 0)
            usageError(cmd, opt + " needs a value");
        if (!given_.emplace(o->name, value).second)
            usageError(cmd, opt + " is given twice");
        if (const std::string why = badValue(*o, value); !why.empty())
            usageError(cmd, opt + " '" + value + "': " + why);
    }
    for (const Option &o : kOptions) {
        if ((o.cmds & cmd) && !o.dflt && !has(o.name))
            usageError(cmd, std::string(argv[1]) + " needs --" + o.name);
    }
}

std::string
Args::value(const char *name) const
{
    if (auto it = given_.find(name); it != given_.end())
        return it->second;
    // An option this command does not take reads as its first
    // entry's default, so the shared fillers need no per-command
    // cases.
    const Option *o = findOption(name, cmd_);
    if (!o)
        o = findOption(name, ~0u);
    hetsim_assert(o && o->dflt, "no default for --%s", name);
    return o->dflt;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const Command &c : kCommands) {
        if (argc >= 2 && std::strcmp(argv[1], c.name) == 0)
            return c.run(Args(c.bit, argc, argv));
    }
    if (argc >= 2)
        std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    printUsage(~0u);
    return 1;
}
