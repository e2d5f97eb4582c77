/**
 * @file
 * Lockstep multicore runner.
 *
 * Owns N OooCores sharing one MemHierarchy, ticks them cycle by cycle,
 * implements the barrier protocol the threaded workloads use, and
 * aggregates activity counts (core units + cache/NoC events) into the
 * chip-wide power::CpuActivity the energy model consumes.
 */

#ifndef HETSIM_CPU_MULTICORE_HH
#define HETSIM_CPU_MULTICORE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "cpu/ooo_core.hh"
#include "cpu/sync.hh"
#include "mem/hierarchy.hh"
#include "power/accountant.hh"

namespace hetsim::cpu
{

/** Per-core override for heterogeneous chips (e.g. the related-work
 *  CMOS+TFET multicore the paper compares against in Section VIII). */
struct CoreSpec
{
    CoreParams core;
    /** The core ticks once every `tickDivisor` chip cycles: a TFET
     *  core at half frequency on a 2 GHz chip uses divisor 2. */
    uint32_t tickDivisor = 1;
};

/** Configuration of the simulated chip. */
struct MulticoreParams
{
    CoreParams core;
    mem::HierarchyParams mem;
    double freqGhz = 2.0;
    uint64_t maxCycles = 1ull << 33; ///< Deadlock safety net (panics).
    /** Recoverable cycle watchdog: when non-zero, run() stops at this
     *  many cycles and reports timedOut instead of panicking — the
     *  sweep runner's defense against runaway workloads. */
    uint64_t watchdogCycles = 0;
    /** Optional per-core heterogeneity; when non-empty it must have
     *  one entry per core and overrides `core`. */
    std::vector<CoreSpec> coreSpecs;
    /** Event-horizon cycle skipping: when every core is provably
     *  stalled until cycle C, jump the chip clock to C and credit the
     *  skipped stall ticks. Reports are bit-identical either way; off
     *  is the `--no-skip` escape hatch / reference behavior. */
    bool skipEnabled = true;
};

/** Aggregate outcome of one multicore run. */
struct MulticoreResult
{
    uint64_t cycles = 0;
    uint64_t committedOps = 0;
    double seconds = 0.0;
    /** Chip-wide activity (all cores + caches + NoC). */
    power::CpuActivity activity{};
    /** Barrier releases performed (for test introspection). */
    uint64_t barrierReleases = 0;
    /** Chip cycles fast-forwarded by the event-horizon scheduler
     *  (introspection only; deliberately not part of run reports,
     *  which must not depend on whether skipping was on). */
    uint64_t skippedCycles = 0;
    /** True when the run was cut short by watchdogCycles. */
    bool timedOut = false;
    /** True when the run stopped at a preemption checkpoint. */
    bool preempted = false;
};

/** N cores + shared hierarchy, run to completion. */
class Multicore
{
  public:
    /**
     * @param traces One TraceSource per core; all threads must execute
     *               the same number of Barrier micro-ops.
     */
    Multicore(const MulticoreParams &params,
              std::vector<TraceSource *> traces);

    /** Run every trace to completion. Fatal on exceeding maxCycles. */
    MulticoreResult run();

    /** Install checkpoint control for the next run(). */
    void setCheckpointHook(CheckpointHook hook)
    {
        hook_ = std::move(hook);
    }

    /**
     * Restore a checkpoint payload into this freshly constructed chip
     * (same config, fresh seeded traces). On success the next run()
     * resumes from the checkpointed cycle. On failure (false) the
     * chip is in an undefined state and must be discarded — rebuild
     * and cold-start.
     */
    bool restoreState(Deserializer &des);

    mem::MemHierarchy &hierarchy() { return *hier_; }
    OooCore &core(uint32_t i) { return *cores_[i]; }
    SyncController &sync() { return *sync_; }
    const SyncController &sync() const { return *sync_; }

    /** Record pipeline + cache events of every core into `buf`. */
    void attachTrace(obs::TraceBuffer *buf);
    uint32_t numCores() const
    {
        return static_cast<uint32_t>(cores_.size());
    }

    /** Activity of one core's units plus its private caches
     *  (heterogeneous chips account core groups separately). */
    power::CpuActivity coreActivity(uint32_t c) const;

    /** Chip-shared activity: L3 and ring events. */
    power::CpuActivity sharedActivity() const;

  private:
    /** Translate cache/ring stats into activity counts. */
    void collectMemActivity(power::CpuActivity &activity) const;

    /** Serialize the full chip at a quiesce point; `running` is the
     *  run loop's unfinished-core count at that point. */
    void saveState(Serializer &ser, uint64_t now, uint64_t running,
                   const MulticoreResult &res) const;

    MulticoreParams params_;
    std::unique_ptr<mem::MemHierarchy> hier_;
    std::unique_ptr<SyncController> sync_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    CheckpointHook hook_;
    /** The last checkpoint payload; each save writes into its memory,
     *  so saves after the first do not regrow a buffer. */
    std::string ckptBuf_;

    /** Resume state loaded by restoreState(). */
    uint64_t resumeCycle_ = 0;
    uint64_t resumeRunning_ = 0;
    uint64_t resumeBarrierReleases_ = 0;
    uint64_t resumeSkippedCycles_ = 0;
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_MULTICORE_HH
