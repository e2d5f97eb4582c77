/**
 * @file
 * Experiment runner: one (configuration, application) simulation plus
 * energy accounting, and the one name and one stored form of its
 * result.
 *
 * A run is named by its run key (design hash, workload, options) and
 * its result is stored as one RunRecord, so an entry that `run`,
 * `gpu`, `sweep` or `dse` journals serves every other command that
 * asks for the same computation; the key also fences checkpoints.
 */

#ifndef HETSIM_CORE_EXPERIMENT_HH
#define HETSIM_CORE_EXPERIMENT_HH

#include <csignal>
#include <string>
#include <string_view>

#include "common/report.hh"
#include "common/status.hh"
#include "common/trace.hh"
#include "core/configs.hh"
#include "core/dvfs.hh"
#include "power/metrics.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_recording.hh"
#include "workload/gpu_profiles.hh"

namespace hetsim::core
{

/** Options shared by all experiments. */
struct ExperimentOptions
{
    uint64_t seed = 1;
    double scale = 1.0;      ///< Workload size multiplier.
    double freqGhz = 2.0;    ///< CPU design point (GPU uses half).
    bool variationGuardband = false; ///< Figure 14 guardbands.
    /** Override the configuration's core count (0 = default); used
     *  by the iso-power planner. */
    uint32_t coresOverride = 0;
    /** Recoverable cycle watchdog (0 = off): the simulation stops at
     *  this many cycles and the outcome reports timedOut. */
    uint64_t watchdogCycles = 0;
    /** Disable event-horizon cycle skipping (the `--no-skip` escape
     *  hatch). Results are bit-identical either way; this exists as
     *  the reference path that proves it. */
    bool noSkip = false;

    /** Checkpoint/restore (core/checkpoint.hh). When `checkpointPath`
     *  is non-empty the run auto-resumes from a verified checkpoint
     *  at that path (cold-starting otherwise), saves one every
     *  `checkpointEveryCycles` chip cycles (0 = only on preemption),
     *  and removes the file on successful completion. @{ */
    std::string checkpointPath;
    uint64_t checkpointEveryCycles = 0;
    /** When non-null and the pointee becomes nonzero (e.g. a SIGTERM
     *  handler), the run drains, saves a checkpoint, and returns with
     *  `preempted` set instead of completing. */
    const volatile sig_atomic_t *preempt = nullptr;
    /** @} */
};

/** Set the options a chip applies itself, the cycle watchdog and
 *  cycle skipping, on a cpu::MulticoreParams or gpu::GpuParams. Every
 *  run builds its chip through this, a sweep's trace cells too. */
template <typename ChipParams>
void
applyChipOptions(ChipParams &sim, const ExperimentOptions &opts)
{
    sim.watchdogCycles = opts.watchdogCycles;
    sim.skipEnabled = !opts.noSkip;
}

/** The cores, and so the trace threads, of a CPU run under `opts` on
 *  a chip of `cores` cores: opts.coresOverride when set. */
inline uint32_t
cpuRunCores(uint32_t cores, const ExperimentOptions &opts)
{
    return opts.coresOverride > 0 ? opts.coresOverride : cores;
}

/** Outcome of one (config, app) run. */
struct CpuOutcome
{
    std::string config;
    std::string app;
    uint64_t cycles = 0;
    uint64_t committedOps = 0;
    bool timedOut = false;  ///< Cut short by opts.watchdogCycles.
    bool preempted = false; ///< Stopped at a preemption checkpoint.
    power::RunMetrics metrics;
    power::EnergyBreakdown energy;
};

/** Outcome of one (config, kernel) run. */
struct GpuOutcome
{
    std::string config;
    std::string kernel;
    uint64_t cycles = 0;
    uint64_t issuedOps = 0;
    bool timedOut = false;  ///< Cut short by opts.watchdogCycles.
    bool preempted = false; ///< Stopped at a preemption checkpoint.
    power::RunMetrics metrics;
    power::EnergyBreakdown energy;
};

/**
 * Simulate one CPU configuration on one application.
 *
 * When `report` is non-null it is filled with the machine-readable
 * outcome: every StatGroup snapshot (cores, FU pools, branch
 * predictors, caches, ring, DRAM, hierarchy), per-unit activity and
 * energy, and the run identity. When `trace` is non-null, pipeline and
 * cache events of every core are recorded into it during the run.
 * `recording`, when non-null, is this run's workload (app, opts.seed,
 * opts.scale) recorded once for many runs: the run replays it when its
 * thread count is the chip's core count and streams from the
 * generators otherwise. Either way the outcome is the same.
 */
CpuOutcome runCpuExperiment(
    CpuConfig cfg, const workload::AppProfile &app,
    const ExperimentOptions &opts = {}, obs::RunReport *report = nullptr,
    obs::TraceBuffer *trace = nullptr,
    const workload::CpuRecording *recording = nullptr);

/** Simulate one GPU configuration on one kernel. `report` and `trace`
 *  behave as in runCpuExperiment (wavefront-issue events). */
GpuOutcome runGpuExperiment(GpuConfig cfg,
                            const workload::KernelProfile &kernel,
                            const ExperimentOptions &opts = {},
                            obs::RunReport *report = nullptr,
                            obs::TraceBuffer *trace = nullptr);

/**
 * Simulate an already-built CPU bundle (the dse path: synthesized
 * free-form designs have no CpuConfig enum value). `config_name` is
 * carried into the outcome and `design_hash`, the bundle's
 * designHash(), into the checkpoint key; opts.freqGhz must match the
 * frequency the bundle was built at (it selects the operating-point
 * voltages). `recording` is as in runCpuExperiment; the core count it
 * must match is the bundle's after opts.coresOverride.
 */
CpuOutcome runCpuBundle(
    const CpuConfigBundle &bundle, const std::string &config_name,
    uint64_t design_hash, const workload::AppProfile &app,
    const ExperimentOptions &opts = {}, obs::RunReport *report = nullptr,
    obs::TraceBuffer *trace = nullptr,
    const workload::CpuRecording *recording = nullptr);

/** Simulate an already-built GPU bundle. */
GpuOutcome runGpuBundle(const GpuConfigBundle &bundle,
                        const std::string &config_name,
                        uint64_t design_hash,
                        const workload::KernelProfile &kernel,
                        const ExperimentOptions &opts = {},
                        obs::RunReport *report = nullptr,
                        obs::TraceBuffer *trace = nullptr);

/**
 * The run key: the one name of the computation (machine, workload,
 * options), shared by every command's store entries and used as the
 * checkpoint identity. `design_hash` is the machine's designHash()
 * (core/configs.hh); `workload` is the application or kernel name, or
 * "trace:<path>" for a recorded trace. The key is text with a version
 * prefix, every double is printed exactly (%a), and the workload comes
 * last because a path may hold any byte. Every option is keyed except
 * `checkpointPath` and `preempt`, which do not change the result.
 */
std::string runKey(uint64_t design_hash, const std::string &workload,
                   const ExperimentOptions &opts);

/** The stored result of one run, whichever command ran it. */
struct RunRecord
{
    /** Ok, Timeout (the cycle watchdog fired), Preempted (stopped at
     *  a mid-run checkpoint: never stored), or why the run failed. */
    Status status;
    uint64_t cycles = 0;
    uint64_t ops = 0; ///< Committed (CPU) or issued (GPU) ops.
    double seconds = 0.0;
    double energyJ = 0.0;
    /** The RunReport document; `run` and `gpu` fill it, `sweep` and
     *  `dse` leave it empty. */
    std::string reportJson;
};

/** The record of a finished or preempted run (no report). */
RunRecord runRecord(const CpuOutcome &out);
RunRecord runRecord(const GpuOutcome &out);

/** One common/serialize section holding the record. */
std::string encodeRunRecord(const RunRecord &rec);

/** Inverse of encodeRunRecord. Rejects a strict prefix, a changed
 *  byte, trailing bytes and an unknown error code, so a buffer that
 *  decodes holds the whole record. */
Result<RunRecord> decodeRunRecord(std::string_view bytes);

} // namespace hetsim::core

#endif // HETSIM_CORE_EXPERIMENT_HH
