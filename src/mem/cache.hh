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

#include "common/set_store.hh"
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

/**
 * Tag/state array of one cache level.
 *
 * A set's ways are stored (written to invalid) only when the first
 * line lands in that set (common/set_store.hh). A set that was never
 * filled holds no resident line, so building, destroying,
 * checkpointing and restoring cost time, and the array memory, in
 * proportion to the set count plus the sets a run fills, not to the
 * line count.
 *
 * Replacement order is a recency rank per way, one byte each, kept
 * after the set's lines in the same stored block. Rank 0 is the MRU
 * way; the k resident lines of a set hold ranks 0..k-1 and its
 * invalid ways the rest. A hit or fill moves its way to rank 0, an
 * invalidation sinks its way to the last rank, and a line moved
 * between ways (asymmetric promotion or demotion) takes its rank
 * along. The victim is the highest-ranked candidate: the least
 * recently touched resident line.
 */
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

    /** Call `f(addr)` for every resident line, in (set, way)
     *  order. */
    template <typename F>
    void
    forEachResident(F &&f) const
    {
        for (uint32_t set = 0; set < numSets_; ++set) {
            const Line *base = sets_.find(set);
            for (uint32_t w = 0; base && w < params_.ways; ++w)
                if (base[w].valid())
                    f(rebuildAddr(set, base[w].tag));
        }
    }

    const CacheParams &params() const { return params_; }
    uint32_t numSets() const { return numSets_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Serialize the resident lines (tag, state, dirty, recency
     *  rank, each keyed by its array index) and stats into a named
     *  checkpoint section. Restore requires identical geometry,
     *  empties the array, then applies the written lines; each
     *  set's resident ranks must be exactly 0..k-1. */
    void saveState(Serializer &ser) const;
    void restoreState(Deserializer &des);

  private:
    /** Trivially constructible, as SetStore requires; a set's ways
     *  are written when the set is first filled. Tag, state and dirty
     *  bit share one word: a tag is a line number (at most 58 bits)
     *  divided by the set count, so 61 bits hold every tag locate()
     *  produces, and restoreState() rejects any other. */
    struct Line
    {
        Addr tag : 61;
        CoherenceState state : 2;
        bool dirty : 1;

        bool valid() const { return state != CoherenceState::Invalid; }
    };
    static_assert(sizeof(Line) == 8);

    /** Line-sized words after a set's lines that hold its ranks. */
    static uint32_t rankWords(uint32_t ways)
    {
        return (ways + sizeof(Line) - 1) / sizeof(Line);
    }
    /** The recency ranks of a stored set, one byte per way. */
    uint8_t *ranksOf(Line *base)
    {
        return reinterpret_cast<uint8_t *>(base + params_.ways);
    }
    const uint8_t *ranksOf(const Line *base) const
    {
        return reinterpret_cast<const uint8_t *>(base + params_.ways);
    }

    /** The set an address indexes and the tag it stores there. */
    struct SetTag
    {
        uint32_t set;
        Addr tag;
    };

    SetTag locate(Addr addr) const;
    Addr rebuildAddr(uint32_t set, Addr tag) const;
    /** The resident line holding `st`, or nullptr (always for a set
     *  that was never filled). */
    Line *findLine(SetTag st);
    const Line *findLine(SetTag st) const;
    /** The ways of `set`, stored as invalid lines ranked in way
     *  order on its first fill. */
    Line *fillSet(uint32_t set);
    /** Invalidate the resident `line` of `set` and sink its rank. */
    void drop(uint32_t set, Line *line);
    /** Check a restored set's resident ranks and rank its invalid
     *  ways after them; false, with `des` failed, if they are not
     *  0..k-1. */
    bool checkRanks(Line *base, Deserializer &des);

    CacheParams params_;
    uint32_t numSets_;
    /** log2(numSets_) when the set count is a power of two, else -1
     *  (locate() then divides). */
    int setShift_ = -1;
    /** Each stored set: its lines, then rankWords(ways) of ranks. */
    SetStore<Line> sets_;
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
