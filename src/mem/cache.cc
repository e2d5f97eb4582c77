#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace hetsim::mem
{

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
    : params_(params), stats_(params.name), ctrs_(stats_)
{
    hetsim_assert(params_.lineBytes > 0 &&
                  (params_.lineBytes & (params_.lineBytes - 1)) == 0,
                  "line size must be a power of two");
    hetsim_assert(params_.ways > 0, "cache needs at least one way");
    hetsim_assert(params_.sizeBytes % (params_.ways * params_.lineBytes)
                  == 0, "size not divisible into sets");
    numSets_ = params_.sizeBytes / (params_.ways * params_.lineBytes);
    hetsim_assert(numSets_ >= 1, "cache needs at least one set");
    lines_.resize(static_cast<size_t>(numSets_) * params_.ways);
}

uint32_t
Cache::setIndex(Addr addr) const
{
    // Additively folded index (as in real shared caches): regions
    // whose bases differ only in high bits spread over all sets
    // instead of aliasing into the same ones. The additive fold is
    // invertible for any set count, so non-power-of-two shared
    // caches (e.g. a 7-core L3) work too.
    const uint64_t line = lineNumber(addr);
    const uint64_t low = line % numSets_;
    const uint64_t tag = line / numSets_;
    return static_cast<uint32_t>((low + tag) % numSets_);
}

Addr
Cache::tagOf(Addr addr) const
{
    return lineNumber(addr) / numSets_;
}

Addr
Cache::rebuildAddr(uint32_t set, Addr tag) const
{
    // Invert the additive fold.
    const uint64_t t = tag % numSets_;
    const uint32_t low = static_cast<uint32_t>(
        (set + numSets_ - t) % numSets_);
    return ((tag * numSets_) + low) << kLineShift;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const uint32_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<size_t>(set) * params_.ways];
    for (uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].valid() && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

LookupResult
Cache::access(Addr addr)
{
    ++ctrs_.accesses;
    const uint32_t set = setIndex(addr);
    Line *base = &lines_[static_cast<size_t>(set) * params_.ways];
    Line *line = findLine(addr);
    if (!line) {
        ++ctrs_.misses;
        return {};
    }

    ++ctrs_.hits;
    LookupResult res;
    res.hit = true;
    res.state = line->state;
    res.fastHit = params_.asymmetric && line == &base[0];
    if (params_.asymmetric) {
        if (res.fastHit) {
            ++ctrs_.fastHits;
        } else {
            // Promote the MRU line into the fast way by swapping the
            // hit line with the current way-0 occupant.
            ++ctrs_.slowHits;
            ++ctrs_.promotions;
            std::swap(*line, base[0]);
            line = &base[0];
        }
    }
    line->lruStamp = ++stampCounter_;
    return res;
}

LookupResult
Cache::probe(Addr addr) const
{
    const uint32_t set = setIndex(addr);
    const Line *base = &lines_[static_cast<size_t>(set) * params_.ways];
    const Line *line = findLine(addr);
    if (!line)
        return {};
    return {true, params_.asymmetric && line == &base[0], line->state};
}

Eviction
Cache::fill(Addr addr, CoherenceState state)
{
    hetsim_assert(state != CoherenceState::Invalid,
                  "cannot fill an invalid line");
    hetsim_assert(!contains(addr), "double fill of %llx",
                  static_cast<unsigned long long>(addr));
    ++ctrs_.fills;

    const uint32_t set = setIndex(addr);
    Line *base = &lines_[static_cast<size_t>(set) * params_.ways];

    // Pick the victim: an invalid way if any, else the LRU way among
    // the replacement candidates (the slow ways for asymmetric caches;
    // way 0 is never the victim there because the demoted fast line
    // takes the victim's slot).
    const uint32_t first = params_.asymmetric && params_.ways > 1 ? 1 : 0;
    Line *victim = nullptr;
    for (uint32_t w = first; w < params_.ways; ++w) {
        if (!base[w].valid()) {
            victim = &base[w];
            break;
        }
    }
    if (!victim) {
        victim = &base[first];
        for (uint32_t w = first + 1; w < params_.ways; ++w) {
            if (base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
    }

    Eviction ev;
    if (victim->valid()) {
        ev.valid = true;
        ev.lineAddr = rebuildAddr(set, victim->tag);
        ev.dirty = victim->dirty;
        ev.state = victim->state;
        ++ctrs_.evictions;
        if (victim->dirty)
            ++ctrs_.dirtyEvictions;
    }

    Line incoming;
    incoming.tag = tagOf(addr);
    incoming.state = state;
    incoming.dirty = false;
    incoming.lruStamp = ++stampCounter_;

    if (params_.asymmetric && params_.ways > 1) {
        // New line becomes the fast (MRU) line; the old fast line is
        // demoted into the victim slot.
        *victim = base[0];
        base[0] = incoming;
        if (victim != &base[0] && victim->valid())
            ++ctrs_.demotions;
    } else {
        *victim = incoming;
    }
    return ev;
}

void
Cache::setState(Addr addr, CoherenceState state)
{
    Line *line = findLine(addr);
    hetsim_assert(line, "setState on absent line %llx",
                  static_cast<unsigned long long>(addr));
    if (state == CoherenceState::Invalid) {
        line->state = state;
        line->dirty = false;
    } else {
        line->state = state;
    }
}

void
Cache::markDirty(Addr addr)
{
    Line *line = findLine(addr);
    hetsim_assert(line, "markDirty on absent line %llx",
                  static_cast<unsigned long long>(addr));
    line->dirty = true;
}

bool
Cache::invalidate(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    ++ctrs_.invalidations;
    const bool was_dirty = line->dirty;
    line->state = CoherenceState::Invalid;
    line->dirty = false;
    return was_dirty;
}

bool
Cache::downgradeToShared(Addr addr)
{
    Line *line = findLine(addr);
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
    return findLine(addr) != nullptr;
}

CoherenceState
Cache::stateOf(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->state : CoherenceState::Invalid;
}

uint32_t
Cache::residentLines() const
{
    uint32_t n = 0;
    for (const Line &l : lines_)
        if (l.valid())
            ++n;
    return n;
}

std::vector<Addr>
Cache::residentAddrs() const
{
    std::vector<Addr> out;
    for (uint32_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[static_cast<size_t>(set)
                                   * params_.ways];
        for (uint32_t w = 0; w < params_.ways; ++w)
            if (base[w].valid())
                out.push_back(rebuildAddr(set, base[w].tag));
    }
    return out;
}

void
Cache::saveState(Serializer &ser) const
{
    ser.beginSection("cache");
    ser.putString(params_.name);
    ser.putU32(numSets_);
    ser.putU32(params_.ways);
    ser.putU64(stampCounter_);
    // Invalid lines are dead state (every reader tests valid() before
    // a tag or stamp), so only resident lines are written.
    ser.putU32(residentLines());
    for (uint32_t i = 0; i < lines_.size(); ++i) {
        const Line &l = lines_[i];
        if (!l.valid())
            continue;
        ser.putU32(i);
        ser.putU64(l.tag);
        ser.putU8(static_cast<uint8_t>(l.state));
        ser.putBool(l.dirty);
        ser.putU64(l.lruStamp);
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
    stampCounter_ = des.getU64();
    std::fill(lines_.begin(), lines_.end(), Line{});
    SparseIndexReader resident(des, lines_.size());
    for (size_t i = 0; resident.next(i);) {
        Line &l = lines_[i];
        l.tag = des.getU64();
        const uint8_t st = des.getU8();
        if (st == static_cast<uint8_t>(CoherenceState::Invalid) ||
            st > static_cast<uint8_t>(CoherenceState::Modified)) {
            des.fail("resident line with invalid coherence state");
            return;
        }
        l.state = static_cast<CoherenceState>(st);
        l.dirty = des.getBool();
        l.lruStamp = des.getU64();
    }
    stats_.restoreState(des);
    des.closeSection();
}

} // namespace hetsim::mem
