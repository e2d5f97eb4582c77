/**
 * @file
 * GPU compute unit (modeled after AMD Southern Islands, Table III).
 *
 * A CU hosts up to `maxWavefronts` wavefront slots fed from whole
 * workgroups, a 16-lane SIMD FMA pipeline (a 64-thread wavefront
 * occupies it for 4 issue beats), a scalar unit, an LDS port, and a
 * vector-memory port into the GPU memory system. One instruction
 * issues per cycle, selected round-robin among ready wavefronts —
 * this is the latency-hiding mechanism that absorbs the deeper TFET
 * FMA pipeline and slower TFET register file.
 *
 * Register file timing: each operand read costs the RF latency (1
 * cycle CMOS, 2 cycles TFET); with the AdvHet register-file cache, a
 * read that hits the 6-entry write-allocated cache costs 1 cycle.
 */

#ifndef HETSIM_GPU_COMPUTE_UNIT_HH
#define HETSIM_GPU_COMPUTE_UNIT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "gpu/kernel.hh"
#include "gpu/wavefront.hh"
#include "power/accountant.hh"

namespace hetsim::gpu
{

/** Latencies of the CU datapath. */
struct GpuTimings
{
    uint32_t fmaLat = 3;       ///< SIMD FMA (6 in TFET).
    uint32_t rfLat = 1;        ///< Vector RF access (2 in TFET).
    bool useRfCache = false;   ///< AdvHet register-file cache.
    uint32_t rfCacheLat = 1;
    /** Partitioned register file (related-work alternative): the
     *  lowest `fastPartitionRegs` registers live in a CMOS fast
     *  partition with 1-cycle ports. */
    bool partitionedRf = false;
    uint32_t fastPartitionRegs = 64;
    uint32_t saluLat = 1;
    uint32_t ldsLat = 2;
};

/** Static CU configuration. */
struct CuParams
{
    uint32_t lanes = 16;          ///< Execution units per CU.
    /** Wavefront slots. Register-heavy kernels (256 vregs/thread is
     *  the SI architectural maximum) bound occupancy at a handful of
     *  wavefronts, which is what exposes FMA/RF latency. */
    uint32_t maxWavefronts = 2;
    uint32_t rfCacheEntries = 6;
    GpuTimings timings;
};

/** Memory-system interface the CU issues vector memory ops into. */
class GpuMemInterface
{
  public:
    virtual ~GpuMemInterface() = default;

    /** Round-trip latency of one line access from this CU. */
    virtual uint32_t access(uint32_t cu, uint64_t addr, bool is_store,
                            Cycle now) = 0;
};

/** One compute unit. */
class ComputeUnit
{
  public:
    ComputeUnit(const CuParams &params, uint32_t cu_id,
                GpuMemInterface *mem);

    /** Number of free wavefront slots. */
    uint32_t freeSlots() const
    {
        return static_cast<uint32_t>(slots_.size()) - occupied_;
    }

    /** Launch one workgroup's wavefronts onto free slots.
     *  Requires freeSlots() >= kernel.wavefrontsPerGroup(). */
    void launchWorkgroup(GpuKernel &kernel, uint32_t workgroup);

    /** Advance one cycle. Returns true if the tick issued an op,
     *  released a barrier, or reaped a wavefront. A tick that returns
     *  false changed nothing, so the run loop may leave the CU asleep
     *  until nextEventCycle(). */
    bool tick(Cycle now);

    /**
     * Event horizon, valid after a tick that returned false: the
     * earliest cycle >= `from` at which a resident wavefront can
     * issue, i.e. its operands are ready and the execution port its
     * staged op needs is free. mem::kNoEvent when no wavefront is
     * Active, notably for an idle() CU, which only a launch wakes.
     * Exact: at that cycle some wavefront issues.
     */
    Cycle nextEventCycle(Cycle from) const;

    /** Account `n` elapsed cycles. The clock tree toggles once per
     *  cycle whether or not the CU was ticked, so the run loop
     *  credits it by arithmetic rather than per tick. */
    void creditCycles(uint64_t n);

    /** True when no wavefront is resident. */
    bool idle() const { return occupied_ == 0; }

    uint64_t issuedOps() const { return issuedOps_; }
    const power::GpuActivity &activity() const { return activity_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Record wavefront-issue events into `buf` (null detaches). */
    void attachTrace(obs::TraceBuffer *buf) { traceBuf_ = buf; }

    /** Serialize resumable state at an idle() quiesce point: port
     *  busy-until cycles, scheduling pointer, activity, and stats
     *  (wavefront slots are empty by definition of idle). */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    struct ActiveGroup
    {
        bool valid = false;
        uint32_t wavefronts = 0; ///< Slots still occupied.
    };

    /** Issue the staged op of wavefront `w`; true on success. */
    bool tryIssue(Wavefront &wf, Cycle now);

    /** First cycle the execution port an op of class `cls` needs is
     *  free. */
    Cycle portFreeAt(GpuOpClass cls) const;

    /** Operand read latency of one source register. */
    uint32_t readLatency(Wavefront &wf, int16_t vreg);

    /** Destination write latency (and RF-cache allocation). */
    uint32_t writeLatency(Wavefront &wf, int16_t vreg);

    /** Release workgroup barriers that every member reached; true if
     *  any barrier released. */
    bool checkBarriers();

    /** Reap Done wavefronts and retire completed groups; true if any
     *  wavefront was reaped. */
    bool reapFinished();

    CuParams params_;
    uint32_t cuId_;
    GpuMemInterface *mem_;
    std::vector<Wavefront> slots_;
    std::vector<ActiveGroup> groups_; ///< Indexed by workgroup slot.
    uint32_t beats_;                  ///< Issue beats per vector op.
    Cycle simdFreeAt_ = 0;
    Cycle saluFreeAt_ = 0;
    Cycle ldsFreeAt_ = 0;
    Cycle memFreeAt_ = 0;
    uint32_t rrNext_ = 0;   ///< Round-robin scheduling pointer.
    uint32_t occupied_ = 0; ///< Slots not Idle.
    uint64_t issuedOps_ = 0;
    power::GpuActivity activity_{};
    StatGroup stats_;

    /** Hot-path counter handles (stable StatGroup references). */
    struct CuCounters
    {
        explicit CuCounters(StatGroup &sg);
        Counter &workgroupsLaunched;
        Counter &workgroupsRetired;
        Counter &rfCacheReadHits;
        Counter &rfCacheReadMisses;
        Counter &rfFastPartitionReads;
        Counter &vloads;
        Counter &vstores;
        Counter &barrierReleases;
    };
    CuCounters ctrs_;
    obs::TraceBuffer *traceBuf_ = nullptr;
};

} // namespace hetsim::gpu

#endif // HETSIM_GPU_COMPUTE_UNIT_HH
