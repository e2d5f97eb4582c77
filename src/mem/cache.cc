#include "mem/cache.hh"

#include <bit>
#include <bitset>
#include <utility>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::mem
{

namespace
{

/** The set count of a cache geometry, which must be valid. */
uint32_t
setsOf(const CacheParams &p)
{
    hetsim_assert(p.lineBytes > 0 &&
                  (p.lineBytes & (p.lineBytes - 1)) == 0,
                  "line size must be a power of two");
    hetsim_assert(p.ways > 0, "cache needs at least one way");
    hetsim_assert(p.sizeBytes % (p.ways * p.lineBytes) == 0,
                  "size not divisible into sets");
    hetsim_assert(p.ways <= 256, "a recency rank is one byte");
    const uint32_t sets = p.sizeBytes / (p.ways * p.lineBytes);
    hetsim_assert(sets >= 1, "cache needs at least one set");
    return sets;
}

// `ways` comes in by value: a store through a uint8_t pointer may
// alias any member, so a loop bound read from params_ would be
// reloaded on every iteration.

/** Make `way` the MRU way: every rank below its rank moves down one
 *  place in the order, and `way` takes rank 0. */
void
touch(uint8_t *rank, uint32_t way, uint32_t ways)
{
    const uint8_t r = rank[way];
    if (r == 0)
        return;
    for (uint32_t w = 0; w < ways; ++w)
        rank[w] += rank[w] < r;
    rank[way] = 0;
}

/** Move the now-invalid `way` to the last rank: every rank above its
 *  rank moves up one place. */
void
sink(uint8_t *rank, uint32_t way, uint32_t ways)
{
    const uint8_t r = rank[way];
    for (uint32_t w = 0; w < ways; ++w)
        rank[w] -= rank[w] > r;
    rank[way] = static_cast<uint8_t>(ways - 1);
}

} // namespace

Cache::CacheCounters::CacheCounters(StatGroup &sg)
    : accesses(sg.counter("accesses")),
      misses(sg.counter("misses")),
      hits(sg.counter("hits")),
      fastHits(sg.counter("fast_hits")),
      slowHits(sg.counter("slow_hits")),
      promotions(sg.counter("promotions")),
      fills(sg.counter("fills")),
      evictions(sg.counter("evictions")),
      dirtyEvictions(sg.counter("dirty_evictions")),
      demotions(sg.counter("demotions")),
      invalidations(sg.counter("invalidations")),
      downgrades(sg.counter("downgrades"))
{
}

Cache::Cache(const CacheParams &params)
    : params_(params), numSets_(setsOf(params)),
      sets_(numSets_, params.ways + rankWords(params.ways)),
      stats_(params.name), ctrs_(stats_)
{
    if (std::has_single_bit(numSets_))
        setShift_ = std::countr_zero(numSets_);
}

Cache::SetTag
Cache::locate(Addr addr) const
{
    // Additively folded index (as in real shared caches): regions
    // whose bases differ only in high bits spread over all sets
    // instead of aliasing into the same ones. The additive fold is
    // invertible for any set count, so non-power-of-two shared
    // caches (e.g. a 7-core L3) work too. For a power-of-two count
    // the mask and shift give the same set and tag as the division.
    const uint64_t line = lineNumber(addr);
    if (setShift_ >= 0) {
        const uint64_t mask = numSets_ - 1;
        const uint64_t tag = line >> setShift_;
        return {static_cast<uint32_t>(((line & mask) + tag) & mask),
                tag};
    }
    const uint64_t low = line % numSets_;
    const uint64_t tag = line / numSets_;
    return {static_cast<uint32_t>((low + tag) % numSets_), tag};
}

Addr
Cache::rebuildAddr(uint32_t set, Addr tag) const
{
    // Invert the additive fold.
    if (setShift_ >= 0) {
        const uint64_t mask = numSets_ - 1;
        const uint64_t low = (set - tag) & mask;
        return ((tag << setShift_) | low) << kLineShift;
    }
    const uint64_t t = tag % numSets_;
    const uint32_t low = static_cast<uint32_t>(
        (set + numSets_ - t) % numSets_);
    return ((tag * numSets_) + low) << kLineShift;
}

Cache::Line *
Cache::findLine(SetTag st)
{
    Line *base = sets_.find(st.set);
    if (!base)
        return nullptr;
    for (uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].valid() && base[w].tag == st.tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(SetTag st) const
{
    return const_cast<Cache *>(this)->findLine(st);
}

Cache::Line *
Cache::fillSet(uint32_t set)
{
    if (Line *base = sets_.find(set))
        return base;
    // Whole lines, not only the state: the asymmetric fill copies an
    // invalid way-0 line, and that copy must not read indeterminate
    // fields. The rank words are written as lines, then ranked.
    Line *base = sets_.fill(set, Line{0, CoherenceState::Invalid, false});
    uint8_t *rank = ranksOf(base);
    const uint32_t ways = params_.ways;
    for (uint32_t w = 0; w < ways; ++w)
        rank[w] = static_cast<uint8_t>(w);
    return base;
}

void
Cache::drop(uint32_t set, Line *line)
{
    line->state = CoherenceState::Invalid;
    line->dirty = false;
    Line *base = sets_.find(set);
    sink(ranksOf(base), static_cast<uint32_t>(line - base),
         params_.ways);
}

LookupResult
Cache::access(Addr addr)
{
    ++ctrs_.accesses;
    const SetTag st = locate(addr);
    Line *line = findLine(st);
    if (!line) {
        ++ctrs_.misses;
        return {};
    }

    Line *base = sets_.find(st.set);
    uint8_t *rank = ranksOf(base);
    uint32_t way = static_cast<uint32_t>(line - base);
    ++ctrs_.hits;
    LookupResult res;
    res.hit = true;
    res.state = line->state;
    res.fastHit = params_.asymmetric && way == 0;
    if (params_.asymmetric) {
        if (res.fastHit) {
            ++ctrs_.fastHits;
        } else {
            // Promote the MRU line into the fast way by swapping the
            // hit line, and its rank, with the current way-0 occupant.
            ++ctrs_.slowHits;
            ++ctrs_.promotions;
            std::swap(*line, base[0]);
            std::swap(rank[way], rank[0]);
            way = 0;
        }
    }
    touch(rank, way, params_.ways);
    return res;
}

LookupResult
Cache::probe(Addr addr) const
{
    const SetTag st = locate(addr);
    const Line *line = findLine(st);
    if (!line)
        return {};
    return {true, params_.asymmetric && line == sets_.find(st.set),
            line->state};
}

Eviction
Cache::fill(Addr addr, CoherenceState state)
{
    hetsim_assert(state != CoherenceState::Invalid,
                  "cannot fill an invalid line");
    const SetTag st = locate(addr);
    hetsim_assert(!findLine(st), "double fill of %llx",
                  static_cast<unsigned long long>(addr));
    ++ctrs_.fills;

    Line *base = fillSet(st.set);
    uint8_t *rank = ranksOf(base);
    const uint32_t ways = params_.ways;

    // Pick the victim: an invalid way if any, else the LRU
    // (highest-ranked) way among the replacement candidates (the slow
    // ways for asymmetric caches; way 0 is never the victim there
    // because the demoted fast line takes the victim's slot).
    const bool demote = params_.asymmetric && ways > 1;
    const uint32_t first = demote ? 1 : 0;
    uint32_t v = first;
    while (v < ways && base[v].valid())
        ++v;
    if (v == ways) {
        v = first;
        uint8_t oldest = rank[first];
        for (uint32_t w = first + 1; w < ways; ++w) {
            const bool older = rank[w] > oldest;
            v = older ? w : v;
            oldest = older ? rank[w] : oldest;
        }
    }
    Line &victim = base[v];

    Eviction ev;
    if (victim.valid()) {
        ev.valid = true;
        ev.lineAddr = rebuildAddr(st.set, victim.tag);
        ev.dirty = victim.dirty;
        ev.state = victim.state;
        ++ctrs_.evictions;
        if (victim.dirty)
            ++ctrs_.dirtyEvictions;
    }

    const Line incoming{st.tag, state, false};

    if (demote) {
        // New line becomes the fast (MRU) line; the old fast line is
        // demoted, with its rank, into the victim slot.
        victim = base[0];
        std::swap(rank[v], rank[0]);
        base[0] = incoming;
        if (victim.valid())
            ++ctrs_.demotions;
        v = 0;
    } else {
        victim = incoming;
    }
    touch(rank, v, ways);
    return ev;
}

void
Cache::setState(Addr addr, CoherenceState state)
{
    const SetTag st = locate(addr);
    Line *line = findLine(st);
    hetsim_assert(line, "setState on absent line %llx",
                  static_cast<unsigned long long>(addr));
    if (state == CoherenceState::Invalid)
        drop(st.set, line);
    else
        line->state = state;
}

void
Cache::markDirty(Addr addr)
{
    Line *line = findLine(locate(addr));
    hetsim_assert(line, "markDirty on absent line %llx",
                  static_cast<unsigned long long>(addr));
    line->dirty = true;
}

bool
Cache::invalidate(Addr addr)
{
    const SetTag st = locate(addr);
    Line *line = findLine(st);
    if (!line)
        return false;
    ++ctrs_.invalidations;
    const bool was_dirty = line->dirty;
    drop(st.set, line);
    return was_dirty;
}

bool
Cache::downgradeToShared(Addr addr)
{
    Line *line = findLine(locate(addr));
    if (!line)
        return false;
    ++ctrs_.downgrades;
    const bool was_dirty = line->dirty;
    line->state = CoherenceState::Shared;
    line->dirty = false;
    return was_dirty;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(locate(addr)) != nullptr;
}

CoherenceState
Cache::stateOf(Addr addr) const
{
    const Line *line = findLine(locate(addr));
    return line ? line->state : CoherenceState::Invalid;
}

uint32_t
Cache::residentLines() const
{
    uint32_t n = 0;
    for (uint32_t set = 0; set < numSets_; ++set) {
        const Line *base = sets_.find(set);
        for (uint32_t w = 0; base && w < params_.ways; ++w)
            if (base[w].valid())
                ++n;
    }
    return n;
}

void
Cache::saveState(Serializer &ser) const
{
    ser.beginSection("cache");
    ser.putString(params_.name);
    ser.putU32(numSets_);
    ser.putU32(params_.ways);
    // Invalid lines are dead state (every reader tests valid() before
    // a tag, and their ranks order nothing but each other), so only
    // resident lines are written, each under its set x ways + way
    // index in ascending order; a set that was never filled holds
    // none. Resident ranks are 0..k-1 in recency order, so the bytes
    // depend only on that order.
    ser.putU32(residentLines());
    for (uint32_t set = 0; set < numSets_; ++set) {
        const Line *base = sets_.find(set);
        for (uint32_t w = 0; base && w < params_.ways; ++w) {
            const Line &l = base[w];
            if (!l.valid())
                continue;
            ser.putU32(set * params_.ways + w);
            ser.putU64(l.tag);
            ser.putU8(static_cast<uint8_t>(l.state));
            ser.putBool(l.dirty);
            ser.putU8(ranksOf(base)[w]);
        }
    }
    stats_.saveState(ser);
    ser.endSection();
}

void
Cache::restoreState(Deserializer &des)
{
    des.openSection("cache");
    if (des.getString() != params_.name || des.getU32() != numSets_ ||
        des.getU32() != params_.ways) {
        des.fail("cache geometry mismatch");
        return;
    }
    sets_.clear();
    SparseIndexReader resident(
        des, static_cast<size_t>(numSets_) * params_.ways);
    for (size_t i = 0; resident.next(i);) {
        const uint32_t set = static_cast<uint32_t>(i / params_.ways);
        const uint32_t way = static_cast<uint32_t>(i % params_.ways);
        const Addr tag = des.getU64();
        const SetTag back = locate(rebuildAddr(set, tag));
        if (back.set != set || back.tag != tag) {
            des.fail("resident line with a tag no address maps to");
            return;
        }
        Line *base = fillSet(set);
        Line &l = base[way];
        l.tag = tag;
        const uint8_t st = des.getU8();
        if (st == static_cast<uint8_t>(CoherenceState::Invalid) ||
            st > static_cast<uint8_t>(CoherenceState::Modified)) {
            des.fail("resident line with invalid coherence state");
            return;
        }
        l.state = static_cast<CoherenceState>(st);
        l.dirty = des.getBool();
        ranksOf(base)[way] = des.getU8();
    }
    for (uint32_t set = 0; des.ok() && set < numSets_; ++set) {
        if (Line *base = sets_.find(set); base && !checkRanks(base, des))
            return;
    }
    stats_.restoreState(des);
    des.closeSection();
}

bool
Cache::checkRanks(Line *base, Deserializer &des)
{
    const uint32_t ways = params_.ways;
    uint8_t *rank = ranksOf(base);
    uint32_t resident = 0;
    for (uint32_t w = 0; w < ways; ++w)
        resident += base[w].valid();
    std::bitset<256> held;
    for (uint32_t w = 0; w < ways; ++w) {
        if (!base[w].valid())
            continue;
        if (rank[w] >= resident) {
            des.fail("resident line rank at or above its set's "
                     "resident line count");
            return false;
        }
        if (held[rank[w]]) {
            des.fail("resident line rank repeated within its set");
            return false;
        }
        held[rank[w]] = true;
    }
    uint32_t next = resident;
    for (uint32_t w = 0; w < ways; ++w) {
        if (!base[w].valid())
            rank[w] = static_cast<uint8_t>(next++);
    }
    return true;
}

} // namespace hetsim::mem
