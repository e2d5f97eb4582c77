/**
 * @file
 * Coherent multicore memory hierarchy.
 *
 * Models the Table III memory system: per-core IL1 and DL1 (optionally
 * the AdvHet asymmetric DL1), per-core private L2, a shared banked
 * inclusive L3 with a directory-based MESI protocol, a bidirectional
 * ring, and a bandwidth-limited DRAM channel.
 *
 * Timing is "atomic with latency": an access walks the hierarchy,
 * updates all tag/state arrays, and returns the total round-trip
 * latency. Round-trip latencies are configured cumulatively from the
 * core's viewpoint, matching the paper's parameters (e.g. an L2 hit
 * costs 8 cycles total, not 2+8).
 */

#ifndef HETSIM_MEM_HIERARCHY_HH
#define HETSIM_MEM_HIERARCHY_HH

#include <array>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/status.hh"
#include "common/trace.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/ring.hh"
#include "mem/scratchpad.hh"
#include "mem/types.hh"

namespace hetsim::mem
{

/** Cumulative round-trip latencies per level (core cycles). */
struct LevelLatencies
{
    uint32_t il1Rt = 2;
    uint32_t dl1FastRt = 1; ///< Asymmetric fast-way hit (if enabled).
    uint32_t dl1Rt = 2;     ///< Uniform DL1 hit, or slow-way hit.
    uint32_t l2Rt = 8;
    uint32_t l3Rt = 32;
    uint32_t dramRt = 100;  ///< 50 ns at 2 GHz.
    uint32_t remoteProbeRt = 6; ///< Extra cost to probe a remote L2.
};

/** Full hierarchy configuration. */
struct HierarchyParams
{
    uint32_t numCores = 4;
    LevelLatencies lat;
    /** Optional per-core latency override (heterogeneous chips whose
     *  cores run at different clocks see different chip-cycle
     *  round trips). Empty = use `lat` for every core. */
    std::vector<LevelLatencies> perCoreLat;
    bool asymDl1 = false;   ///< AdvHet asymmetric DL1 (way 0 fast).
    uint32_t il1SizeBytes = 32 * 1024;
    uint32_t il1Ways = 2;
    uint32_t dl1SizeBytes = 32 * 1024;
    uint32_t dl1Ways = 8;
    uint32_t l2SizeBytes = 256 * 1024;
    uint32_t l2Ways = 8;
    uint32_t l3SizePerCoreBytes = 2 * 1024 * 1024;
    uint32_t l3Ways = 16;
    /** Per-core L1 stream prefetcher: after `prefetchTrain` sequential
     *  lines, run `prefetchDegree` lines ahead. 0 disables. */
    uint32_t prefetchDegree = 2;
    uint32_t prefetchTrain = 2;
    /** Optional per-core software-managed scratchpad. */
    ScratchpadParams spad;
};

/**
 * Sanity-check a hierarchy configuration before building it.
 *
 * A deeper level must never respond faster than a shallower one —
 * the cumulative round trips must satisfy il1 <= l2, dl1Fast <= dl1
 * <= l2 <= l3 <= dram — and every latency must be nonzero. A config
 * violating this silently mis-models (an "L3 hit" cheaper than a DL1
 * hit inverts every locality conclusion), so construction refuses it:
 * returns InvalidArgument naming the offending field, for `lat` and
 * every `perCoreLat` entry, plus the scratchpad latency and core
 * count.
 */
Status validateHierarchyParams(const HierarchyParams &params);

/** Where an access was satisfied (for stats and energy). */
enum class AccessSource
{
    Dl1Fast,
    Dl1,
    Il1,
    L2,
    L3,
    RemoteCore,
    Dram,
    Scratchpad,
};

/** Result of one memory access. */
struct AccessResult
{
    uint32_t latency = 0;
    AccessSource source = AccessSource::Dl1;
};

/** The full coherent hierarchy shared by the cores of one chip. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams &params);

    /** Perform a load/store/ifetch for a core at the given cycle. */
    AccessResult access(uint32_t core, Addr addr, AccessType type,
                        Cycle now);

    /**
     * Event horizon of the memory side: the hierarchy is a passive
     * pull model — the entire coherence walk (lookups, recalls,
     * fills, DRAM queuing) runs synchronously inside a core's
     * access() call, and its effects are folded into the returned
     * latency, i.e. into the requesting op's doneCycle. The memory
     * system therefore never wakes a core the core is not already
     * waiting on, and the cores' own horizons are sufficient bounds
     * for event-horizon skipping. Delegates to the DRAM channels
     * (the only component with busy-until state) for introspection.
     */
    Cycle nextEventCycle(Cycle from) const
    {
        return dram_.nextEventCycle(from);
    }

    const HierarchyParams &params() const { return params_; }

    Cache &il1(uint32_t core) { return *il1_[core]; }
    Cache &dl1(uint32_t core) { return *dl1_[core]; }
    Cache &l2(uint32_t core) { return *l2_[core]; }
    Cache &l3() { return *l3_; }
    const Cache &il1(uint32_t core) const { return *il1_[core]; }
    const Cache &dl1(uint32_t core) const { return *dl1_[core]; }
    const Cache &l2(uint32_t core) const { return *l2_[core]; }
    const Cache &l3() const { return *l3_; }
    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    /** The scratchpad, or nullptr when not configured. */
    Scratchpad *scratchpad() { return spad_.get(); }
    const Scratchpad *scratchpad() const { return spad_.get(); }
    RingNetwork &ring() { return ring_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Record demand hit/miss events into `buf` (null detaches). */
    void attachTrace(obs::TraceBuffer *buf) { traceBuf_ = buf; }

    /**
     * Serialize every cache array, the directory (one entry per
     * L3-resident line, in the L3's set and way order), prefetcher
     * streams, DRAM channel state, and all stats. Valid only between
     * accesses — the hierarchy is atomic-with-latency, so there are no
     * in-flight transactions to capture. Restore requires an
     * identically configured hierarchy, and fails unless the restored
     * caches keep inclusion and match the directory.
     */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

    /** Directory invariant checks, used by property tests. @{ */
    /** At most one core holds the line in M/E state, and if one does,
     *  no other core holds it at all. */
    bool checkSingleWriter(Addr addr) const;
    /** Every L1/L2-resident line is resident in L3 (inclusion). */
    bool checkInclusion() const;
    /** Directory sharer bits exactly match L2 residence. */
    bool checkDirectoryConsistent() const;
    /** @} */

  private:
    struct DirEntry
    {
        uint32_t sharers = 0;  ///< Bitmask of cores with a copy.
        int owner = -1;        ///< Core holding E/M, or -1.
    };

    /** The access walk itself; access() wraps it with event tracing. */
    AccessResult accessImpl(uint32_t core, Addr addr, AccessType type,
                            Cycle now);

    const LevelLatencies &latFor(uint32_t core) const;
    uint32_t ringNodeOfCore(uint32_t core) const;
    uint32_t ringNodeOfBank(Addr addr) const;

    /** Invalidate the line throughout a core's private caches.
     *  @return true if any copy was dirty. */
    bool invalidateCore(uint32_t core, Addr addr);

    /** Handle eviction of a victim from a core's L2 (inclusion +
     *  directory + writeback). */
    void handleL2Eviction(uint32_t core, const Eviction &ev, Cycle now);

    /** Handle eviction of a victim from the shared L3. */
    void handleL3Eviction(const Eviction &ev, Cycle now);

    /** Fetch a line into L3 + directory if absent; returns latency
     *  beyond the L3 round trip (0 on an L3 hit). */
    uint32_t fetchIntoL3(uint32_t core, Addr addr, Cycle now,
                         AccessSource &source);

    /** Fill the line into a core's L2 if absent. */
    void fillL2(uint32_t core, Addr addr, CoherenceState state,
                Cycle now);

    /** Train the stream detector and issue prefetches. */
    void maybePrefetch(uint32_t core, Addr addr, Cycle now);

    /** Bring one line into the core's DL1 without a requester. */
    void prefetchLine(uint32_t core, Addr addr, Cycle now);

    HierarchyParams params_;
    std::vector<std::unique_ptr<Cache>> il1_;
    std::vector<std::unique_ptr<Cache>> dl1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<Scratchpad> spad_;
    std::unordered_map<Addr, DirEntry> directory_;
    RingNetwork ring_;
    Dram dram_;
    StatGroup stats_;

    /** Hot-path counter handles (stable StatGroup references). */
    struct HierCounters
    {
        explicit HierCounters(StatGroup &sg);
        Counter &prefetches;
        Counter &ifetchPrefetches;
        Counter &l2Writebacks;
        Counter &l3Writebacks;
        Counter &dl1Writebacks;
        Counter &backInvalidations;
        Counter &upgradeInvalidations;
        Counter &rfoInvalidations;
        Counter &ownerDowngrades;
        Counter &trueSharingMisses;
        Counter &falseSharingMisses;
    };
    HierCounters ctrs_;
    /** Coherence invalidations received, per victim core. */
    std::vector<Counter *> invalsReceived_;

    /**
     * False-sharing detector: for every line taken away by a store,
     * remember which core wrote it and which 8-byte word the store
     * touched. When a later demand miss by another core lands on a
     * *different* word of that line, the miss was pure false sharing;
     * the same word is true sharing. std::map keeps serialization
     * deterministic.
     */
    struct InvalInfo
    {
        uint32_t writer = 0;
        uint8_t word = 0;
    };
    std::map<Addr, InvalInfo> lastInv_;

    /** Record the invalidating store for the detector. */
    void noteInvalidatingStore(Addr line, uint32_t writer,
                               uint8_t word);
    /** Classify a demand miss against the detector. */
    void classifySharingMiss(uint32_t core, Addr line, uint8_t word);
    obs::TraceBuffer *traceBuf_ = nullptr;

    /** One tracked stream of a per-core stride prefetcher. Multiple
     *  concurrent streams survive interleaved random accesses. */
    struct StreamEntry
    {
        Addr lastLine = ~0ull;
        uint32_t run = 0;
        uint64_t lru = 0;
    };
    static constexpr uint32_t kStreamsPerCore = 8;
    std::vector<std::array<StreamEntry, kStreamsPerCore>> streams_;
    uint64_t streamLruCounter_ = 0;
    bool inPrefetch_ = false; ///< Guard against recursive training.
};

} // namespace hetsim::mem

#endif // HETSIM_MEM_HIERARCHY_HH
