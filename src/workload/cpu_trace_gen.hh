/**
 * @file
 * Synthetic CPU trace generator.
 *
 * Produces a deterministic micro-op stream for one thread of one
 * application, following the AppProfile characteristics:
 *
 *  - instruction mix and FP/int sub-mixes;
 *  - true register dependencies with geometric producer-consumer
 *    distances (the ILP knob);
 *  - a blocked code layout with loop-like (predictable) and
 *    data-dependent (random) branches, plus occasional call/return
 *    pairs exercising the RAS;
 *  - private streaming/random accesses over the configured working
 *    set, plus shared-region accesses that create coherence traffic;
 *  - an Amdahl phase structure: each phase is a parallel chunk on all
 *    threads, a barrier, a serial chunk on thread 0, and a barrier,
 *    so total work is constant as the thread count scales (the
 *    AdvHet-2X experiment).
 */

#ifndef HETSIM_WORKLOAD_CPU_TRACE_GEN_HH
#define HETSIM_WORKLOAD_CPU_TRACE_GEN_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "cpu/microop.hh"
#include "workload/cpu_profiles.hh"

namespace hetsim::workload
{

/** One thread's synthetic instruction stream. */
class SyntheticCpuTrace : public cpu::TraceSource
{
  public:
    /**
     * @param profile     Application characteristics.
     * @param thread_id   This thread.
     * @param num_threads Threads sharing the (fixed) total work.
     * @param seed        Base seed; per-thread streams are forked.
     * @param scale       Work multiplier (tests use small scales).
     */
    SyntheticCpuTrace(const AppProfile &profile, uint32_t thread_id,
                      uint32_t num_threads, uint64_t seed = 1,
                      double scale = 1.0,
                      double parallel_share = -1.0);

    bool next(cpu::MicroOp &op) override;

    /** Total barrier micro-ops this thread will emit. */
    uint32_t totalBarriers() const { return 2 * profile_.phases; }

  private:
    enum class Section : uint8_t
    {
        Parallel,
        ParallelBarrier,
        Serial,
        SerialBarrier,
        Finished,
    };

    /** One node of the static control-flow graph. Branch targets are
     *  fixed per block so the BTB can learn them, matching real code;
     *  only data-dependent *directions* are unpredictable. */
    struct Block
    {
        uint64_t startPc;
        uint32_t len;           ///< Non-branch ops before the branch.
        uint32_t loopTarget;    ///< Block taken branches jump to.
        uint32_t loopPeriod;    ///< Loop trip count (exit every Nth).
        bool randomBranch;      ///< Data-dependent 50/50 direction.
        bool isCall;            ///< Ends in a call to `loopTarget`.
        uint32_t iter = 0;      ///< Dynamic iteration counter.
    };

    void buildCfg();
    void genOp(cpu::MicroOp &op);
    void genBranch(cpu::MicroOp &op);
    uint64_t genAddress(bool is_store);
    int16_t pickIntSrc();
    int16_t pickFpSrc();
    int16_t allocIntDst();
    int16_t allocFpDst();
    void recordWrite(int16_t reg);

    const AppProfile &profile_;
    uint32_t threadId_;
    hetsim::Rng rng_;
    /** Producer-consumer distance distributions: integer, and FP at
     *  0.3x the integer success probability. */
    const hetsim::GeometricP intDepP_;
    const hetsim::GeometricP fpDepP_;

    uint64_t parallelOpsPerPhase_;
    uint64_t serialOpsPerPhase_;
    uint32_t phase_ = 0;
    Section section_ = Section::Parallel;
    uint64_t opsLeftInSection_;

    // Register dependence history: most recent writers, newest last.
    static constexpr int kHistLen = 16;
    std::array<int16_t, kHistLen> intHist_;
    std::array<int16_t, kHistLen> fpHist_;
    int intHistPos_ = 0;
    int fpHistPos_ = 0;
    int16_t nextIntDst_ = 1;
    int16_t nextFpDst_ = cpu::kNumIntRegs + 1;
    int16_t pendingLoadDst_ = -1; ///< Load result awaiting its use.
    int16_t lastLoadIntDst_ = -1; ///< For address-chained loads.

    // Code layout: a static CFG walked by the generator.
    uint64_t codeBase_;
    std::vector<Block> blocks_;
    uint32_t curBlock_ = 0;
    uint32_t blockOpsLeft_;
    uint64_t pc_;
    std::vector<std::pair<uint32_t, uint64_t>> returnStack_;

    // Data layout. The application's total working set is partitioned
    // across threads, so doubling the thread count halves the
    // per-thread footprint (as data-parallel codes do).
    uint64_t privBase_;
    uint64_t sharedBase_;
    uint64_t footprintBytes_;   ///< Per-thread private working set.
    uint64_t sharedBytes_;      ///< Shared read-mostly region size.
    uint64_t streamPos_ = 0;
    std::array<uint64_t, 4> recentLines_{}; ///< Recently touched lines.
    int recentLinePos_ = 0;
};

/**
 * Build the per-thread traces of one application run.
 * Ownership is returned to the caller; pass raw pointers to Multicore.
 * Profiles with `sharing.enabled` come from the shared-address
 * contention generator (workload/shared_gen); everything else uses
 * the classic per-thread generator, byte for byte as before.
 */
std::vector<std::unique_ptr<cpu::TraceSource>>
makeCpuWorkload(const AppProfile &profile, uint32_t num_threads,
                uint64_t seed = 1, double scale = 1.0);

/**
 * Build traces whose parallel work is split proportionally to
 * per-thread weights (e.g. core speeds on a heterogeneous chip;
 * models an ideal barrier-aware migration scheme that keeps all
 * threads arriving at barriers together).
 */
std::vector<std::unique_ptr<SyntheticCpuTrace>>
makeWeightedCpuWorkload(const AppProfile &profile,
                        const std::vector<double> &weights,
                        uint64_t seed = 1, double scale = 1.0);

} // namespace hetsim::workload

#endif // HETSIM_WORKLOAD_CPU_TRACE_GEN_HH
