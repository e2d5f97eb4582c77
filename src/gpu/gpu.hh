/**
 * @file
 * The full GPU: compute units, memory system, workgroup dispatcher.
 *
 * Table III: 8 CUs with 16 EUs each at 1 GHz (16 CUs for AdvHet-2X,
 * half frequency for the all-TFET GPU). The memory system is a per-CU
 * vector L1, a shared L2, and a bandwidth-limited DRAM channel; GPU
 * kernels partition their address space per workgroup, so no inter-CU
 * coherence protocol is required.
 */

#ifndef HETSIM_GPU_GPU_HH
#define HETSIM_GPU_GPU_HH

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "gpu/compute_unit.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "power/accountant.hh"

namespace hetsim::gpu
{

/** Full GPU configuration. */
struct GpuParams
{
    uint32_t numCus = 8;
    CuParams cu;
    double freqGhz = 1.0;
    uint32_t l1SizeBytes = 16 * 1024;
    uint32_t l1Ways = 4;
    uint32_t l2SizeBytes = 1024 * 1024;
    uint32_t l2Ways = 16;
    uint32_t l1Rt = 4;     ///< Vector L1 hit round trip (cycles).
    uint32_t l2Rt = 20;    ///< Shared L2 hit round trip.
    uint32_t dramRt = 100; ///< DRAM round trip at 1 GHz.
    uint64_t maxCycles = 1ull << 33; ///< Deadlock safety net (panics).
    /** Recoverable cycle watchdog: when non-zero, run() stops at this
     *  many cycles and reports timedOut instead of panicking. */
    uint64_t watchdogCycles = 0;
    /** Event-horizon scheduling: tick each CU only from the cycle it
     *  can next act, and jump the clock to the earliest such cycle
     *  when no workgroup launch is pending. Reports are bit-identical
     *  either way; off is the `--no-skip` reference loop, which ticks
     *  every CU every cycle. */
    bool skipEnabled = true;
};

/** Aggregate outcome of one kernel launch. */
struct GpuResult
{
    uint64_t cycles = 0;
    double seconds = 0.0;
    uint64_t issuedOps = 0;
    power::GpuActivity activity{};
    /** Cycles fast-forwarded by the event-horizon scheduler
     *  (introspection only; deliberately not part of run reports). */
    uint64_t skippedCycles = 0;
    /** CU ticks this run() call executed; numCus x cycles on the
     *  reference loop (introspection only, like skippedCycles, but
     *  not carried across a checkpoint). */
    uint64_t cuTicks = 0;
    /** True when the run was cut short by watchdogCycles. */
    bool timedOut = false;
    /** True when the run stopped at a preemption checkpoint. */
    bool preempted = false;
};

/** Per-CU L1s + shared L2 + DRAM. */
class GpuMemSystem : public GpuMemInterface
{
  public:
    explicit GpuMemSystem(const GpuParams &params);

    /** Holds a reference to its params, and every CU of the owning
     *  Gpu holds its address, so it never moves (deleting the copies
     *  also removes the implicit moves). */
    GpuMemSystem(const GpuMemSystem &) = delete;
    GpuMemSystem &operator=(const GpuMemSystem &) = delete;

    uint32_t access(uint32_t cu, uint64_t addr, bool is_store,
                    Cycle now) override;

    mem::Cache &l1(uint32_t cu) { return *l1_[cu]; }
    mem::Cache &l2() { return *l2_; }
    mem::Dram &dram() { return dram_; }

    /** Serialize/restore every cache array and the DRAM channels. */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    const GpuParams &params_;
    std::vector<std::unique_ptr<mem::Cache>> l1_;
    std::unique_ptr<mem::Cache> l2_;
    mem::Dram dram_;
};

/** The GPU chip. */
class Gpu
{
  public:
    explicit Gpu(const GpuParams &params);

    /** Every CU holds a pointer to mem_, so a Gpu never moves
     *  (deleting the copies also removes the implicit moves). */
    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Run one kernel to completion. */
    GpuResult run(GpuKernel &kernel);

    /** Install checkpoint control for the next run(). The quiesce
     *  point is all-CUs-idle with workgroup launches gated. */
    void setCheckpointHook(CheckpointHook hook)
    {
        hook_ = std::move(hook);
    }

    /**
     * Restore a checkpoint payload into this freshly constructed GPU
     * (same config; run() must get the same seeded kernel, whose
     * dispatch cursor is part of the payload). On failure (false)
     * discard the GPU, rebuild, and cold-start.
     */
    bool restoreState(Deserializer &des);

    ComputeUnit &cu(uint32_t i) { return *cus_[i]; }
    GpuMemSystem &memSystem() { return mem_; }

    /** Record wavefront-issue events of every CU into `buf`. */
    void attachTrace(obs::TraceBuffer *buf);
    uint32_t numCus() const
    {
        return static_cast<uint32_t>(cus_.size());
    }

  private:
    /** Serialize the full GPU at an all-idle quiesce point. */
    void saveState(Serializer &ser, uint64_t now, uint32_t next_group,
                   uint64_t skipped) const;

    GpuParams params_;
    GpuMemSystem mem_;
    std::vector<std::unique_ptr<ComputeUnit>> cus_;
    CheckpointHook hook_;
    /** The last checkpoint payload; each save writes into its memory,
     *  so saves after the first do not regrow a buffer. */
    std::string ckptBuf_;

    /** Resume state loaded by restoreState(). */
    uint64_t resumeCycle_ = 0;
    uint32_t resumeNextGroup_ = 0;
    uint64_t resumeSkipped_ = 0;
};

} // namespace hetsim::gpu

#endif // HETSIM_GPU_GPU_HH
