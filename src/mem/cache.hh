/**
 * @file
 * Set-associative cache array with optional asymmetric fast way.
 *
 * The Cache class models the tag/state arrays of one cache level: LRU
 * replacement, write-back dirty tracking, and MESI state per line. It is
 * purely a state container — latency and coherence policy live in
 * MemHierarchy. When configured asymmetric (the AdvHet DL1 of Section
 * IV-C1), way 0 is the FastCache: hits there are reported separately,
 * lines found in the slow ways are promoted (swapped) into way 0, and
 * fills always land in way 0 so the MRU line of each set stays fast.
 */

#ifndef HETSIM_MEM_CACHE_HH
#define HETSIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mem/types.hh"

namespace hetsim::mem
{

/** Static configuration of one cache array. */
struct CacheParams
{
    std::string name;
    uint32_t sizeBytes = 32 * 1024;
    uint32_t ways = 8;
    uint32_t lineBytes = kLineBytes;
    bool asymmetric = false; ///< Way 0 is a separately reported FastCache.
};

/** Result of a cache lookup. */
struct LookupResult
{
    bool hit = false;
    bool fastHit = false;       ///< Hit in way 0 of an asymmetric cache.
    CoherenceState state = CoherenceState::Invalid;
};

/** Description of a line displaced by a fill. */
struct Eviction
{
    bool valid = false;          ///< A line was displaced.
    Addr lineAddr = 0;
    bool dirty = false;
    CoherenceState state = CoherenceState::Invalid;
};

/** Tag/state array of one cache level. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address and update LRU/asymmetric promotion state on a
     * hit. Does not allocate.
     */
    LookupResult access(Addr addr);

    /** Look up without disturbing replacement state. */
    LookupResult probe(Addr addr) const;

    /** Event horizon: always kNoEvent — the cache is a passive array
     *  that only changes state inside a requester's access()/fill()
     *  walk, so requester-side horizons bound chip progress. Present
     *  for API uniformity with the active components. */
    Cycle nextEventCycle(Cycle) const { return kNoEvent; }

    /**
     * Allocate a line in the given state, returning any displaced line.
     * In an asymmetric cache the fill lands in the fast way and the
     * previous fast occupant is demoted into the slow victim slot.
     */
    Eviction fill(Addr addr, CoherenceState state);

    /** Set the coherence state of a resident line (hit required). */
    void setState(Addr addr, CoherenceState state);

    /** Mark a resident line dirty (on a store hit). */
    void markDirty(Addr addr);

    /**
     * Invalidate a line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /**
     * Downgrade a line to Shared if present (directory recall on a
     * remote read), clearing its dirty bit — the data is pushed to the
     * next level by the caller.
     * @return true if the line was present and dirty.
     */
    bool downgradeToShared(Addr addr);

    /** Whether the line is resident (any valid state). */
    bool contains(Addr addr) const;

    /** Coherence state of a line (Invalid if absent). */
    CoherenceState stateOf(Addr addr) const;

    /** Number of valid lines currently resident. */
    uint32_t residentLines() const;

    /** Enumerate resident line addresses (testing/debug). */
    std::vector<Addr> residentAddrs() const;

    const CacheParams &params() const { return params_; }
    uint32_t numSets() const { return numSets_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Serialize the resident lines (tag, state, dirty, LRU stamp,
     *  each keyed by its array index) and stats into a named
     *  checkpoint section. Restore requires identical geometry,
     *  empties the array, then applies the written lines. */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    struct Line
    {
        Addr tag = 0;
        CoherenceState state = CoherenceState::Invalid;
        bool dirty = false;
        uint64_t lruStamp = 0;

        bool valid() const { return state != CoherenceState::Invalid; }
    };

    uint32_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr rebuildAddr(uint32_t set, Addr tag) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    CacheParams params_;
    uint32_t numSets_;
    uint64_t stampCounter_ = 0;
    std::vector<Line> lines_; ///< numSets_ x ways, row-major.
    StatGroup stats_;

    /** Hot-path counter handles (stable StatGroup references). */
    struct CacheCounters
    {
        explicit CacheCounters(StatGroup &sg);
        Counter &accesses;
        Counter &misses;
        Counter &hits;
        Counter &fastHits;
        Counter &slowHits;
        Counter &promotions;
        Counter &fills;
        Counter &evictions;
        Counter &dirtyEvictions;
        Counter &demotions;
        Counter &invalidations;
        Counter &downgrades;
    };
    CacheCounters ctrs_;
};

} // namespace hetsim::mem

#endif // HETSIM_MEM_CACHE_HH
