/**
 * @file
 * Crash-isolating batch sweep runner.
 *
 * The paper's evaluation (Figs. 7-14) is a matrix of configurations x
 * workloads; losing a whole sweep to one poisoned input is the failure
 * mode this runner exists to remove. Every (config, workload) cell
 * runs in its own forked child process, so a corrupt trace, an
 * internal panic, or even a SIGSEGV in one cell is recorded as that
 * cell's failure while the rest of the sweep proceeds. One scheduler
 * runs every sweep: it keeps up to `jobs` cells in flight (`jobs = 1`
 * means one) and reads each child's result back as the RunRecord the
 * durable journal stores. Two watchdogs bound runaway cells:
 *
 *  - a *cycle* watchdog (in-simulator, deterministic): the cell stops
 *    at N simulated cycles and reports TimedOut;
 *  - a *wall-clock* watchdog (in the parent): a cell that does not
 *    deliver its result within the limit is killed with SIGKILL.
 *
 * The summary records one row per cell (ok / failed / timed-out plus
 * metrics), printable as a table or CSV.
 *
 * Durability (PR 6): cells can journal their terminal outcome into a
 * persistent ResultStore as they finish. A sweep re-invoked with
 * `resume` replays journaled cells from disk and re-executes only the
 * remainder, so a SIGKILL'd batch run costs the in-flight cell, not
 * the completed prefix — and the resumed report is byte-identical to
 * an uninterrupted run. Transient failures (worker crashes,
 * wall-clock kills) are retried with bounded exponential backoff and
 * never journaled; deterministic Status errors are journaled and
 * never retried.
 */

#ifndef HETSIM_CORE_SWEEP_HH
#define HETSIM_CORE_SWEEP_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"

namespace hetsim::core
{

/** Terminal state of one sweep cell. */
enum class CellOutcome
{
    Ok,       ///< Completed; metrics are valid.
    Failed,   ///< Input error or child crash; see status.
    TimedOut, ///< Cycle or wall-clock watchdog fired.
};

const char *cellOutcomeName(CellOutcome outcome);

/** One (configuration, workload) point of a sweep. */
struct SweepCell
{
    enum class Kind
    {
        CpuApp,    ///< Synthetic CPU application by profile name.
        CpuTrace,  ///< Recorded trace file replayed on one core.
        GpuKernel, ///< Synthetic GPU kernel by profile name.
    };

    Kind kind = Kind::CpuApp;
    CpuConfig cpuCfg = CpuConfig::BaseCmos;
    GpuConfig gpuCfg = GpuConfig::BaseCmos;
    std::string workload; ///< Profile name or trace path.
    /** Per-cell workload scale (0 = inherit the sweep's scale). */
    double scaleOverride = 0.0;
    /** Per-cell cycle watchdog (~0 = inherit the sweep's). */
    uint64_t watchdogCycles = ~0ull;
};

/** Cell constructors (kept free so plans read declaratively). */
SweepCell cpuAppCell(CpuConfig cfg, const std::string &app,
                     double scale = 0.0);
SweepCell cpuTraceCell(CpuConfig cfg, const std::string &path);
SweepCell gpuKernelCell(GpuConfig cfg, const std::string &kernel,
                        double scale = 0.0);

/** Every config crossed with every workload spec (see below). */
Result<std::vector<SweepCell>>
crossCpuCells(const std::vector<CpuConfig> &cfgs,
              const std::vector<std::string> &specs);

/**
 * Parse a workload spec string:
 *   "app:fft", "app:fft@scale=2.5", "trace:/path/to/file",
 *   "kernel:dct" (GPU; uses the cell's gpuCfg), bare "fft" = app.
 * Validation of the *name* happens at run time inside the cell, so a
 * typo poisons one cell, not the sweep.
 */
Result<SweepCell> parseWorkloadSpec(const std::string &spec);

/** What happened in one cell. */
struct CellResult
{
    CellOutcome outcome = CellOutcome::Failed;
    Status status;         ///< Failure detail (ok when outcome==Ok).
    uint64_t cycles = 0;
    uint64_t ops = 0;      ///< Committed (CPU) or issued (GPU) ops.
    double seconds = 0.0;  ///< Simulated time.
    double energyJ = 0.0;
    /** Host wall-clock from the cell's first launch (journal lookup
     *  included) through its journal write, retries included. */
    double wallMs = 0.0;
    /** Nondeterministic failure (child crash, wall-clock kill):
     *  eligible for retry, excluded from the durable journal. */
    bool transient = false;
    /** Replayed from the ResultStore journal, not executed. */
    bool fromStore = false;
    /** Transient-failure retries spent before this outcome. */
    uint32_t retries = 0;
    /** Stopped at a preemption checkpoint (or never started because
     *  an earlier cell was). Never journaled, never retried; a
     *  resumed sweep re-executes the cell, replaying its mid-run
     *  checkpoint when one was journaled. */
    bool preempted = false;
};

/** Sweep-wide knobs. */
struct SweepOptions
{
    /** Seed/scale/frequency/cycle-watchdog for every cell. */
    ExperimentOptions exp;
    /** Per-cell wall-clock limit in ms (0 = none). Isolated cells
     *  are SIGKILLed at the limit; inline cells (isolate == false)
     *  get a *soft* deadline — the cell runs to completion and is
     *  then marked TimedOut if it overran, never a silent drop of
     *  the guarantee (a hung inline cell still needs the cycle
     *  watchdog; runSweep warns about the downgrade). */
    double wallLimitMs = 0.0;
    /** Fork one child per cell so crashes/kills stay contained.
     *  When false the scheduler runs each cell in-process as it
     *  launches, one at a time (soft wall-clock deadline only, no
     *  crash isolation; cycle watchdog still applies). */
    bool isolate = true;
    /** inform() one line per cell as the sweep progresses. */
    bool verbose = false;
    /** Cells in flight at once; 0 and 1 both mean one. The
     *  scheduler forks up to this many children and multiplexes
     *  their result pipes from the calling thread (children are
     *  never forked from worker threads). Requires `isolate`; with
     *  inline cells the value is ignored (one at a time, with a
     *  warning). Results always land in plan order, so the report is
     *  byte-identical for any job count. A preemption request
     *  (exp.preempt) is forwarded as SIGTERM to *every* in-flight
     *  child when mid-run checkpoints are on, so each drains to its
     *  own resumable checkpoint; a cell waiting out a retry backoff
     *  then retires with its last transient failure. */
    unsigned jobs = 1;

    /** Durable journal/memo tier (optional, not owned). Terminal
     *  deterministic outcomes are written as cells finish. */
    ResultStore *store = nullptr;
    /** Replay journaled cells from `store` instead of re-executing
     *  them (crash resume / warm-store rerun). Requires `store`. */
    bool resume = false;
    /** Transient-failure retries per cell (0 = fail fast). */
    uint32_t maxRetries = 0;
    /** First retry backoff; doubles per retry, capped at 5 s, with
     *  deterministic per-cell jitter (seeded by the cell key). */
    double retryBackoffMs = 50.0;

    /**
     * Directory for per-cell mid-run checkpoints (empty = off). With
     * exp.checkpointEveryCycles > 0, every synthetic cell (CpuApp /
     * GpuKernel; trace cells are excluded) periodically checkpoints
     * into "<dir>/cell-<fnv64 of cell key>.hckp" and a re-invoked
     * sweep resumes the in-flight cell mid-run instead of from
     * scratch. Completed cells remove their checkpoint; the journal
     * (`store`) then covers them on resume. exp.preempt additionally
     * lets a SIGTERM drain the in-flight cell to a checkpoint and
     * stop the sweep without losing work.
     */
    std::string checkpointDir;
};

/** All cells plus their results, in plan order. */
struct SweepReport
{
    std::vector<SweepCell> cells;
    std::vector<CellResult> results;

    size_t count(CellOutcome outcome) const;
    size_t okCount() const { return count(CellOutcome::Ok); }
    size_t failedCount() const { return count(CellOutcome::Failed); }
    size_t timedOutCount() const
    {
        return count(CellOutcome::TimedOut);
    }
    bool allOk() const { return okCount() == results.size(); }

    /** Cells replayed from the ResultStore journal. */
    size_t fromStoreCount() const;
    /** Transient-failure retries spent across the whole sweep. */
    uint64_t totalRetries() const;
    /** True when the sweep was stopped by a preemption request; the
     *  report is partial and should not be persisted as final. */
    bool preempted() const;
};

/**
 * The run key (core/experiment.hh) of one cell: its configuration's
 * design hash, its workload ("trace:<path>" for a trace cell) and the
 * sweep's options with the cell's scale and watchdog applied. It names
 * the cell's journal entry and fences its mid-run checkpoint, and it
 * is the key `run`, `gpu` and `dse` use for the same computation, so
 * their entries serve the cell and its entry serves them. Execution
 * strategy (isolation, retries) is not part of it. Trace cells are
 * keyed by path: re-recording a trace in place without clearing the
 * store is the caller's responsibility (the trace *format* is fenced
 * by the store's trace-version field).
 */
std::string cellStoreKey(const SweepCell &cell,
                         const SweepOptions &opts);

/** Display helpers for summaries. */
std::string cellConfigName(const SweepCell &cell);
std::string cellWorkloadName(const SweepCell &cell);

/**
 * Run every cell, isolating and watchdogging per SweepOptions. Never
 * aborts on a bad cell: the worst a cell can do is mark itself
 * Failed/TimedOut.
 */
SweepReport runSweep(const std::vector<SweepCell> &cells,
                     const SweepOptions &opts = {});

/**
 * Print the per-cell summary table (and optionally a CSV mirror).
 * @return ok unless the CSV could not be written.
 */
Status printSweepReport(const SweepReport &report,
                        const std::string &csv_path = "");

/**
 * The sweep as a deterministic JSON document ("hetsim-sweep-
 * report-v1"): one entry per cell with its outcome and metrics. Host
 * wall-clock time, retry counts, and store provenance are
 * deliberately excluded so two identical sweeps — including a
 * crash-resumed one replaying journaled cells — produce byte-
 * identical documents.
 */
std::string sweepReportToJson(const SweepReport &report);

/** sweepReportToJson() to a file. */
Status writeSweepReportJson(const SweepReport &report,
                            const std::string &path);

} // namespace hetsim::core

#endif // HETSIM_CORE_SWEEP_HH
