/**
 * @file
 * Wavefront execution state.
 *
 * A wavefront issues its instruction stream in order (one instruction
 * per cycle at most), but instructions only wait on their own source
 * registers, so independent work continues past outstanding loads.
 * Register readiness is tracked per vector register as the cycle its
 * value becomes available.
 */

#ifndef HETSIM_GPU_WAVEFRONT_HH
#define HETSIM_GPU_WAVEFRONT_HH

#include <array>
#include <cstdint>
#include <memory>

#include "gpu/kernel.hh"
#include "gpu/rf_cache.hh"
#include "mem/types.hh"

namespace hetsim::gpu
{

using mem::Cycle;

/** Lifecycle of a wavefront slot. */
enum class WavefrontState : uint8_t
{
    Idle,      ///< Slot not assigned.
    Active,    ///< Executing its program.
    AtBarrier, ///< Parked at a workgroup barrier.
    Done,      ///< Program exhausted.
};

/** One wavefront slot of a compute unit. */
class Wavefront
{
  public:
    explicit Wavefront(uint32_t rf_cache_entries);

    /** Assign a program to this slot. */
    void assign(std::unique_ptr<WavefrontProgram> program,
                uint32_t workgroup_slot);

    /** Free the slot. */
    void release();

    WavefrontState state() const { return state_; }
    uint32_t workgroupSlot() const { return workgroupSlot_; }

    /** The staged (next) op; valid while Active. */
    const GpuOp &currentOp() const { return current_; }

    /** True if the staged op's sources are ready and the wavefront may
     *  issue at `now` (per-wavefront one-issue-per-cycle respected). */
    bool canIssue(Cycle now) const;

    /** Earliest cycle canIssue() can become true: the one-issue-per-
     *  cycle gate joined with the staged op's source readiness. Valid
     *  while Active. Execution-port availability is not included;
     *  ComputeUnit::nextEventCycle() adds it. */
    Cycle nextReadyCycle() const;

    /**
     * Commit the issue of the staged op: marks the destination ready
     * at `dst_ready`, advances to the next op (possibly entering
     * Done/AtBarrier), and enforces the next-issue cycle.
     */
    void completeIssue(Cycle now, Cycle dst_ready);

    /** Release from a barrier (stages the next op). */
    void releaseBarrier();

    /** Cycle a source register becomes ready (0 if never written). */
    Cycle regReadyAt(int16_t vreg) const;

    RfCache &rfCache() { return rfCache_; }
    const RfCache &rfCache() const { return rfCache_; }

  private:
    /** Pull the next op from the program, updating state. */
    void stageNext();

    WavefrontState state_ = WavefrontState::Idle;
    std::unique_ptr<WavefrontProgram> program_;
    uint32_t workgroupSlot_ = 0;
    GpuOp current_;
    Cycle nextIssueCycle_ = 0;
    std::array<Cycle, kVectorRegsPerThread> regReady_{};
    RfCache rfCache_;
};

} // namespace hetsim::gpu

#endif // HETSIM_GPU_WAVEFRONT_HH
