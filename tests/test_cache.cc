/**
 * @file
 * Unit and property tests for the set-associative cache, including
 * the asymmetric (fast-way) mode of the AdvHet DL1 and the sparse
 * checkpoint section.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "mem/cache.hh"
#include "checkpoint_sections.hh"

using namespace hetsim;
using namespace hetsim::mem;

namespace
{

CacheParams
smallParams(bool asym = false)
{
    // 4 sets x 4 ways x 64B = 1 KB: small enough to force evictions.
    return {"test", 1024, 4, 64, asym};
}

/** The resident line addresses, in (set, way) order. */
std::vector<Addr>
residentAddrs(const Cache &c)
{
    std::vector<Addr> out;
    c.forEachResident([&](Addr a) { out.push_back(a); });
    return out;
}

Addr
addrFor(uint32_t set, uint32_t tag, uint32_t num_sets = 4)
{
    // Build an address that lands in `set` under the additive fold:
    // (low + tag) mod sets == set.
    const uint64_t low =
        (set + num_sets - (tag % num_sets)) % num_sets;
    return ((static_cast<uint64_t>(tag) * num_sets) + low) << 6;
}

} // namespace

TEST(Cache, MissOnEmpty)
{
    Cache c(smallParams());
    EXPECT_FALSE(c.access(0x1000).hit);
    EXPECT_EQ(c.stats().value("misses"), 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallParams());
    c.fill(0x1000, CoherenceState::Exclusive);
    const LookupResult r = c.access(0x1000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.state, CoherenceState::Exclusive);
}

TEST(Cache, SubLineOffsetsHitSameLine)
{
    Cache c(smallParams());
    c.fill(0x1000, CoherenceState::Shared);
    EXPECT_TRUE(c.access(0x1004).hit);
    EXPECT_TRUE(c.access(0x103f).hit);
    EXPECT_FALSE(c.access(0x1040).hit);
}

TEST(Cache, FillEvictsLru)
{
    Cache c(smallParams());
    // Five lines into the same 4-way set.
    std::vector<Addr> addrs;
    for (uint32_t t = 1; t <= 5; ++t)
        addrs.push_back(addrFor(2, t));
    for (int i = 0; i < 4; ++i)
        c.fill(addrs[i], CoherenceState::Shared);
    // Touch in order: addrs[0] is LRU.
    for (int i = 3; i >= 1; --i)
        c.access(addrs[i]);
    c.access(addrs[0]);
    // Now addrs[3]... touched order: 3,2,1,0 -> LRU is addrs[3].
    const Eviction ev = c.fill(addrs[4], CoherenceState::Shared);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, addrs[3]);
    EXPECT_FALSE(c.contains(addrs[3]));
    EXPECT_TRUE(c.contains(addrs[4]));
}

TEST(Cache, EvictionReportsDirty)
{
    Cache c(smallParams());
    std::vector<Addr> addrs;
    for (uint32_t t = 1; t <= 5; ++t)
        addrs.push_back(addrFor(1, t));
    c.fill(addrs[0], CoherenceState::Modified);
    c.markDirty(addrs[0]);
    for (int i = 1; i < 4; ++i)
        c.fill(addrs[i], CoherenceState::Shared);
    const Eviction ev = c.fill(addrs[4], CoherenceState::Shared);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, addrs[0]);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().value("dirty_evictions"), 1u);
}

TEST(Cache, EvictedAddressRebuildsExactly)
{
    // The folded set index must be invertible: the eviction
    // reports the original line address.
    Cache c(smallParams());
    Rng rng(3);
    std::set<Addr> inserted;
    std::set<Addr> seen_evicted;
    for (int i = 0; i < 200; ++i) {
        const Addr a = lineAlign(rng.range(1 << 20));
        if (!c.contains(a)) {
            const Eviction ev = c.fill(a, CoherenceState::Shared);
            inserted.insert(a);
            if (ev.valid)
                seen_evicted.insert(ev.lineAddr);
        }
    }
    for (Addr e : seen_evicted)
        EXPECT_TRUE(inserted.count(e)) << std::hex << e;
}

TEST(Cache, WidestTagsRoundTrip)
{
    // One set: the tag is the whole line number, up to 2^58 - 1 for a
    // 64-bit address, and every address must come back intact from
    // lookups, enumeration and eviction.
    Cache c({"wide", 4 * 64, 4, 64, false});
    ASSERT_EQ(c.numSets(), 1u);
    const Addr top = (uint64_t{1} << 58) - 1;
    const std::vector<Addr> lines = {top, top - 1, uint64_t{1} << 57,
                                     (uint64_t{1} << 40) + 5};
    std::vector<Addr> addrs;
    for (Addr line : lines) {
        addrs.push_back(line << 6);
        ASSERT_FALSE(c.fill(addrs.back(), CoherenceState::Exclusive).valid);
    }
    for (Addr a : addrs) {
        ASSERT_TRUE(c.contains(a)) << std::hex << a;
        EXPECT_EQ(c.stateOf(a), CoherenceState::Exclusive) << std::hex << a;
    }
    EXPECT_EQ(residentAddrs(c), addrs); // ways fill in order
    c.markDirty(addrs[0]);

    // Each fill of a small line evicts the LRU wide line, in fill
    // order, dirty bit included.
    for (size_t i = 0; i < addrs.size(); ++i) {
        const Eviction ev = c.fill(i << 6, CoherenceState::Shared);
        ASSERT_TRUE(ev.valid);
        EXPECT_EQ(ev.lineAddr, addrs[i]) << std::hex << ev.lineAddr;
        EXPECT_EQ(ev.dirty, i == 0);
        EXPECT_EQ(ev.state, CoherenceState::Exclusive);
    }
}

TEST(Cache, InvalidateReturnsDirtyState)
{
    Cache c(smallParams());
    c.fill(0x2000, CoherenceState::Modified);
    c.markDirty(0x2000);
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000)); // absent now
}

TEST(Cache, DowngradeClearsDirty)
{
    Cache c(smallParams());
    c.fill(0x2000, CoherenceState::Modified);
    c.markDirty(0x2000);
    EXPECT_TRUE(c.downgradeToShared(0x2000));
    EXPECT_EQ(c.stateOf(0x2000), CoherenceState::Shared);
    // A second downgrade reports clean.
    EXPECT_FALSE(c.downgradeToShared(0x2000));
    EXPECT_FALSE(c.downgradeToShared(0x9999000)); // absent
}

TEST(Cache, SetStateTransitions)
{
    Cache c(smallParams());
    c.fill(0x3000, CoherenceState::Exclusive);
    c.setState(0x3000, CoherenceState::Modified);
    EXPECT_EQ(c.stateOf(0x3000), CoherenceState::Modified);
    c.setState(0x3000, CoherenceState::Shared);
    EXPECT_EQ(c.stateOf(0x3000), CoherenceState::Shared);
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache c(smallParams());
    std::vector<Addr> addrs;
    for (uint32_t t = 1; t <= 5; ++t)
        addrs.push_back(addrFor(0, t));
    for (int i = 0; i < 4; ++i)
        c.fill(addrs[i], CoherenceState::Shared);
    // Probe (not access) the would-be LRU: must not refresh it.
    c.probe(addrs[0]);
    const Eviction ev = c.fill(addrs[4], CoherenceState::Shared);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, addrs[0]);
}

TEST(Cache, ResidentLinesCount)
{
    Cache c(smallParams());
    EXPECT_EQ(c.residentLines(), 0u);
    c.fill(0x1000, CoherenceState::Shared);
    c.fill(0x2000, CoherenceState::Shared);
    EXPECT_EQ(c.residentLines(), 2u);
    c.invalidate(0x1000);
    EXPECT_EQ(c.residentLines(), 1u);
}

TEST(CacheDeath, DoubleFillPanics)
{
    Cache c(smallParams());
    c.fill(0x1000, CoherenceState::Shared);
    EXPECT_DEATH(c.fill(0x1000, CoherenceState::Shared),
                 "double fill");
}

TEST(CacheDeath, InvalidFillStatePanics)
{
    Cache c(smallParams());
    EXPECT_DEATH(c.fill(0x1000, CoherenceState::Invalid), "invalid");
}

// ---------------- Asymmetric (AdvHet DL1) mode -------------------

TEST(AsymCache, FillLandsInFastWay)
{
    Cache c(smallParams(true));
    c.fill(0x4000, CoherenceState::Shared);
    const LookupResult r = c.access(0x4000);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.fastHit);
    EXPECT_EQ(c.stats().value("fast_hits"), 1u);
}

TEST(AsymCache, SlowHitPromotesToFast)
{
    Cache c(smallParams(true));
    const Addr a = addrFor(3, 1);
    const Addr b = addrFor(3, 2);
    c.fill(a, CoherenceState::Shared); // a in fast way
    c.fill(b, CoherenceState::Shared); // b in fast way, a demoted

    const LookupResult first = c.access(a);
    EXPECT_TRUE(first.hit);
    EXPECT_FALSE(first.fastHit); // a was demoted
    EXPECT_EQ(c.stats().value("promotions"), 1u);

    // The promotion swapped a into the fast way.
    const LookupResult second = c.access(a);
    EXPECT_TRUE(second.fastHit);
    // And b is now a slow hit.
    EXPECT_FALSE(c.access(b).fastHit);
}

TEST(AsymCache, MruLineIsAlwaysFast)
{
    Cache c(smallParams(true));
    Rng rng(11);
    std::vector<Addr> addrs;
    for (uint32_t t = 1; t <= 4; ++t)
        addrs.push_back(addrFor(2, t));
    for (Addr a : addrs)
        c.fill(a, CoherenceState::Shared);
    for (int i = 0; i < 100; ++i) {
        const Addr a = addrs[rng.range(addrs.size())];
        c.access(a);
        // Immediately re-accessing the MRU line must hit fast.
        EXPECT_TRUE(c.access(a).fastHit);
    }
}

TEST(AsymCache, DemotionEvictsSlowLru)
{
    Cache c(smallParams(true));
    std::vector<Addr> addrs;
    for (uint32_t t = 1; t <= 5; ++t)
        addrs.push_back(addrFor(1, t));
    for (int i = 0; i < 4; ++i)
        c.fill(addrs[i], CoherenceState::Shared);
    // Fast way holds addrs[3]; slow ways hold 0,1,2. Access 1 and 2
    // so addrs[0] is the slow LRU.
    c.access(addrs[1]);
    c.access(addrs[2]);
    const Eviction ev = c.fill(addrs[4], CoherenceState::Shared);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, addrs[0]);
    // The new line is fast, the old fast line was demoted, not lost.
    EXPECT_TRUE(c.access(addrs[4]).fastHit);
    EXPECT_TRUE(c.contains(addrs[3]));
}

// ---------------- Property test vs a reference model --------------

namespace
{

/** Naive fully-explicit reference: per-set vector ordered by
 *  recency (front = MRU). */
class RefCache
{
  public:
    RefCache(uint32_t sets, uint32_t ways) : sets_(sets), ways_(ways)
    {
        lines_.resize(sets);
    }

    bool
    access(Addr line_addr, uint32_t set)
    {
        auto &v = lines_[set];
        auto it = std::find(v.begin(), v.end(), line_addr);
        if (it == v.end())
            return false;
        v.erase(it);
        v.insert(v.begin(), line_addr);
        return true;
    }

    void
    fill(Addr line_addr, uint32_t set)
    {
        auto &v = lines_[set];
        if (v.size() == ways_)
            v.pop_back();
        v.insert(v.begin(), line_addr);
    }

  private:
    uint32_t sets_, ways_;
    std::vector<std::vector<Addr>> lines_;
};

uint32_t
foldedSet(Addr addr, uint32_t sets)
{
    const uint64_t line = addr >> 6;
    return static_cast<uint32_t>(
        (line % sets + line / sets) % sets);
}

} // namespace

/** Array size and associativity of one reference-model run. */
struct RefGeometry
{
    uint32_t sizeBytes;
    uint32_t ways;
};

using RefModelCase = std::tuple<RefGeometry, uint64_t>;

class CacheRefModelTest : public ::testing::TestWithParam<RefModelCase>
{
};

/** Random traffic: hit/miss decisions must match the reference LRU
 *  model exactly (non-asymmetric mode). */
TEST_P(CacheRefModelTest, MatchesReferenceLru)
{
    const auto [geom, seed] = GetParam();
    CacheParams params{"ref", geom.sizeBytes, geom.ways, 64, false};
    Cache c(params);
    RefCache ref(c.numSets(), geom.ways);
    Rng rng(seed);

    for (int i = 0; i < 20000; ++i) {
        const Addr a = lineAlign(rng.range(1 << 15));
        const uint32_t set = foldedSet(a, c.numSets());
        const bool ref_hit = ref.access(a, set);
        const bool hit = c.access(a).hit;
        ASSERT_EQ(hit, ref_hit) << "step " << i;
        if (!hit) {
            c.fill(a, CoherenceState::Shared);
            ref.fill(a, set);
        }
    }
}

/** In asymmetric mode the same traffic has identical hit/miss
 *  behaviour (the fast way only changes latency classes), and every
 *  hit is either fast or slow. */
TEST_P(CacheRefModelTest, AsymmetricSameHitMissAsLru)
{
    const auto [geom, seed] = GetParam();
    CacheParams params{"asym", geom.sizeBytes, geom.ways, 64, true};
    Cache c(params);
    RefCache ref(c.numSets(), geom.ways);
    Rng rng(seed ^ 0xabcdef);

    uint64_t fast = 0, slow = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = lineAlign(rng.range(1 << 15));
        const uint32_t set = foldedSet(a, c.numSets());
        const bool ref_hit = ref.access(a, set);
        const LookupResult r = c.access(a);
        ASSERT_EQ(r.hit, ref_hit) << "step " << i;
        if (!r.hit) {
            c.fill(a, CoherenceState::Shared);
            ref.fill(a, set);
        } else {
            ++(r.fastHit ? fast : slow);
        }
    }
    EXPECT_EQ(fast, c.stats().value("fast_hits"));
    EXPECT_EQ(slow, c.stats().value("slow_hits"));
    EXPECT_EQ(fast + slow, c.stats().value("hits"));
}

// 8 sets take the mask-and-shift index path and 6 sets the division
// path; in the 8 MiB array the 512 lines of traffic fill 512 of 8192
// sets, so nearly every set is never filled.
INSTANTIATE_TEST_SUITE_P(
    GeometriesAndSeeds, CacheRefModelTest,
    ::testing::Combine(
        ::testing::Values(RefGeometry{2048, 4}, RefGeometry{1536, 4},
                          RefGeometry{8 * 1024 * 1024, 16}),
        ::testing::Values(1, 2, 3, 42, 99, 1234)),
    [](const ::testing::TestParamInfo<RefModelCase> &info) {
        const RefGeometry g = std::get<0>(info.param);
        return std::to_string(g.sizeBytes / (g.ways * 64)) + "Sets_Seed" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------- Differential test vs per-line LRU stamps ---------

namespace
{

/** The replacement rules written with a 64-bit stamp per line: a hit
 *  or fill stamps its line from a counter, an asymmetric promotion
 *  swaps the hit line with way 0, a fill demotes way 0 into the victim
 *  slot, and the victim is the first invalid candidate, else the
 *  candidate with the smallest stamp. Lines hold full line addresses,
 *  so the model shares only the set index with Cache. */
class StampCache
{
  public:
    StampCache(uint32_t sets, uint32_t ways, bool asym)
        : sets_(sets), ways_(ways), asym_(asym), lines_(sets * ways)
    {
    }

    LookupResult
    access(Addr addr)
    {
        const uint32_t set = foldedSet(addr, sets_);
        int w = find(addr, set);
        if (w < 0)
            return {};
        Way *base = &lines_[set * ways_];
        LookupResult res{true, asym_ && w == 0, base[w].state};
        if (asym_ && w != 0) {
            std::swap(base[w], base[0]);
            w = 0;
        }
        base[w].stamp = ++counter_;
        return res;
    }

    Eviction
    fill(Addr addr, CoherenceState state)
    {
        const uint32_t set = foldedSet(addr, sets_);
        Way *base = &lines_[set * ways_];
        const bool demote = asym_ && ways_ > 1;
        const uint32_t first = demote ? 1 : 0;
        Way *victim = nullptr;
        for (uint32_t w = first; w < ways_ && !victim; ++w)
            if (!base[w].valid())
                victim = &base[w];
        if (!victim) {
            victim = &base[first];
            for (uint32_t w = first + 1; w < ways_; ++w)
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
        }
        Eviction ev;
        if (victim->valid())
            ev = {true, victim->line << 6, victim->dirty, victim->state};
        const Way incoming{lineNumber(addr), state, false, ++counter_};
        if (demote) {
            *victim = base[0];
            base[0] = incoming;
        } else {
            *victim = incoming;
        }
        return ev;
    }

    bool
    invalidate(Addr addr)
    {
        Way *l = line(addr);
        if (!l)
            return false;
        const bool was_dirty = l->dirty;
        l->state = CoherenceState::Invalid;
        l->dirty = false;
        return was_dirty;
    }

    bool
    downgradeToShared(Addr addr)
    {
        Way *l = line(addr);
        if (!l)
            return false;
        const bool was_dirty = l->dirty;
        l->state = CoherenceState::Shared;
        l->dirty = false;
        return was_dirty;
    }

    void
    setState(Addr addr, CoherenceState state)
    {
        Way *l = line(addr);
        l->state = state;
        if (state == CoherenceState::Invalid)
            l->dirty = false;
    }

    void markDirty(Addr addr) { line(addr)->dirty = true; }
    bool contains(Addr addr) { return line(addr) != nullptr; }

  private:
    struct Way
    {
        Addr line = 0;
        CoherenceState state = CoherenceState::Invalid;
        bool dirty = false;
        uint64_t stamp = 0;

        bool valid() const { return state != CoherenceState::Invalid; }
    };

    int
    find(Addr addr, uint32_t set) const
    {
        for (uint32_t w = 0; w < ways_; ++w) {
            const Way &l = lines_[set * ways_ + w];
            if (l.valid() && l.line == lineNumber(addr))
                return static_cast<int>(w);
        }
        return -1;
    }

    Way *
    line(Addr addr)
    {
        const uint32_t set = foldedSet(addr, sets_);
        const int w = find(addr, set);
        return w < 0 ? nullptr : &lines_[set * ways_ + w];
    }

    uint32_t sets_, ways_;
    bool asym_;
    std::vector<Way> lines_;
    uint64_t counter_ = 0;
};

} // namespace

/** Set count, associativity and mode of one differential run. */
using StampCase = std::tuple<uint32_t, uint32_t, bool>;

class CacheStampModelTest : public ::testing::TestWithParam<StampCase>
{
};

/** Fills, hits, stores, downgrades and both kinds of invalidation
 *  through a Cache and the stamp model: every hit, fast hit, state,
 *  eviction and dirty report must agree, so the ranks pick exactly
 *  the victims the stamps pick. */
TEST_P(CacheStampModelTest, MatchesPerLineStamps)
{
    const auto [sets, ways, asym] = GetParam();
    Cache c({"diff", sets * ways * 64, ways, 64, asym});
    ASSERT_EQ(c.numSets(), sets);
    StampCache ref(sets, ways, asym);
    Rng rng(sets * 131 + ways * 7 + asym);
    // Three lines of traffic per way: hits, evictions and refills.
    const uint64_t lines = uint64_t{sets} * ways * 3;
    uint64_t evictions = 0;

    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng.range(lines) << 6;
        const std::string at = "step " + std::to_string(i);
        switch (rng.range(10)) {
          case 0:
            ASSERT_EQ(c.invalidate(a), ref.invalidate(a)) << at;
            break;
          case 1:
            ASSERT_EQ(c.downgradeToShared(a), ref.downgradeToShared(a))
                << at;
            break;
          case 2:
            ASSERT_EQ(c.contains(a), ref.contains(a)) << at;
            if (c.contains(a)) {
                const CoherenceState s =
                    static_cast<CoherenceState>(rng.range(4));
                c.setState(a, s);
                ref.setState(a, s);
            }
            break;
          default: {
            const LookupResult x = ref.access(a);
            const LookupResult y = c.access(a);
            ASSERT_EQ(y.hit, x.hit) << at;
            ASSERT_EQ(y.fastHit, x.fastHit) << at;
            ASSERT_EQ(y.state, x.state) << at;
            if (!x.hit) {
                const CoherenceState s = rng.range(2)
                    ? CoherenceState::Exclusive
                    : CoherenceState::Shared;
                const Eviction ex = ref.fill(a, s);
                const Eviction ey = c.fill(a, s);
                ASSERT_EQ(ey.valid, ex.valid) << at;
                ASSERT_EQ(ey.lineAddr, ex.lineAddr) << at;
                ASSERT_EQ(ey.dirty, ex.dirty) << at;
                ASSERT_EQ(ey.state, ex.state) << at;
                evictions += ex.valid;
            }
            if (rng.range(4) == 0) {
                c.markDirty(a);
                ref.markDirty(a);
            }
            break;
          }
        }
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(c.stats().value("invalidations"), 0u);
    if (asym && ways > 1) {
        EXPECT_GT(c.stats().value("promotions"), 0u);
        EXPECT_GT(c.stats().value("demotions"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheStampModelTest,
    ::testing::Combine(::testing::Values(1u, 8u, 6u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<StampCase> &info) {
        return std::to_string(std::get<0>(info.param)) + "Sets" +
               std::to_string(std::get<1>(info.param)) + "Ways" +
               (std::get<2>(info.param) ? "Asymmetric" : "Uniform");
    });

// ---------------- Checkpoint section (resident lines only) --------

namespace
{

using test::restoreSection;
using test::savedSection;

/** Random fills, hits, stores, downgrades and invalidations, so the
 *  array holds lines in every valid state next to invalid lines that
 *  keep stale tags and stamps. */
void
churn(Cache &c, Rng &rng, int steps)
{
    for (int i = 0; i < steps; ++i) {
        const Addr a = lineAlign(rng.range(1 << 15));
        switch (rng.range(8)) {
          case 0:
            c.invalidate(a);
            break;
          case 1:
            c.downgradeToShared(a);
            break;
          default:
            if (!c.access(a).hit) {
                c.fill(a, rng.range(2) ? CoherenceState::Exclusive
                                       : CoherenceState::Shared);
            }
            if (rng.range(4) == 0)
                c.markDirty(a);
            break;
        }
    }
}

} // namespace

class CacheCheckpointTest : public ::testing::TestWithParam<bool>
{
};

/** Save, restore into a fresh array and into one churned with other
 *  traffic: every probe, the re-saved bytes, and every later victim
 *  choice match the original, although the original's invalid lines
 *  still hold stale tags and stamps and the churned array's sets were
 *  live before the restore. */
TEST_P(CacheCheckpointTest, RoundTripIsExact)
{
    const CacheParams params{"rt", 8192, 4, 64, GetParam()};
    Cache orig(params);
    Rng rng(17);
    churn(orig, rng, 20000);
    ASSERT_GT(orig.residentLines(), 0u);
    ASSERT_LT(orig.residentLines(), orig.numSets() * params.ways);
    ASSERT_GT(orig.stats().value("invalidations"), 0u);
    if (params.asymmetric) {
        ASSERT_GT(orig.stats().value("promotions"), 0u);
    }

    const std::string bytes = savedSection(orig);
    Cache fresh(params);
    Cache reused(params);
    Rng other(23);
    churn(reused, other, 20000);
    for (Cache *copy : {&fresh, &reused}) {
        const Status st = restoreSection(*copy, bytes);
        ASSERT_TRUE(st.ok()) << st.toString();
        EXPECT_EQ(savedSection(*copy), bytes);
        EXPECT_EQ(residentAddrs(*copy), residentAddrs(orig));
    }
    for (Addr a = 0; a < (1 << 15); a += 64) {
        const LookupResult x = orig.probe(a);
        for (const Cache *copy : {&fresh, &reused}) {
            const LookupResult y = copy->probe(a);
            ASSERT_EQ(x.hit, y.hit) << a;
            ASSERT_EQ(x.fastHit, y.fastHit) << a;
            ASSERT_EQ(x.state, y.state) << a;
        }
    }

    // Identical later traffic, including lines never seen before:
    // every hit and every victim choice must agree.
    for (int i = 0; i < 5000; ++i) {
        const Addr a = lineAlign(rng.range(1 << 16));
        const LookupResult x = orig.access(a);
        const Eviction ex =
            x.hit ? Eviction{} : orig.fill(a, CoherenceState::Shared);
        for (Cache *copy : {&fresh, &reused}) {
            const LookupResult y = copy->access(a);
            ASSERT_EQ(x.hit, y.hit) << "step " << i;
            ASSERT_EQ(x.fastHit, y.fastHit) << "step " << i;
            if (x.hit)
                continue;
            const Eviction ey = copy->fill(a, CoherenceState::Shared);
            ASSERT_EQ(ex.valid, ey.valid) << "step " << i;
            ASSERT_EQ(ex.lineAddr, ey.lineAddr) << "step " << i;
            ASSERT_EQ(ex.dirty, ey.dirty) << "step " << i;
            ASSERT_EQ(ex.state, ey.state) << "step " << i;
        }
    }
    EXPECT_EQ(savedSection(fresh), savedSection(orig));
    EXPECT_EQ(savedSection(reused), savedSection(orig));
}

INSTANTIATE_TEST_SUITE_P(
    Ways, CacheCheckpointTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return info.param ? "Asymmetric" : "Uniform";
    });

/** An 8 MiB array whose sets were never filled: every lookup and
 *  update reports the line absent, and nothing is resident. One fill
 *  makes exactly one set live. */
TEST(Cache, NeverFilledSetsHoldNothing)
{
    Cache c({"big", 8 * 1024 * 1024, 16, 64, false});
    const uint32_t sets = c.numSets();
    ASSERT_EQ(sets, 8192u);
    const auto expectAbsent = [&](Addr a) {
        EXPECT_FALSE(c.probe(a).hit) << a;
        EXPECT_FALSE(c.access(a).hit) << a;
        EXPECT_FALSE(c.contains(a)) << a;
        EXPECT_EQ(c.stateOf(a), CoherenceState::Invalid) << a;
        EXPECT_FALSE(c.invalidate(a)) << a;
        EXPECT_FALSE(c.downgradeToShared(a)) << a;
    };
    for (uint32_t set : {0u, 1u, 4097u, sets - 1})
        expectAbsent(addrFor(set, 12345, sets));
    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_TRUE(residentAddrs(c).empty());
    EXPECT_EQ(c.stats().value("misses"), 4u);
    EXPECT_EQ(c.stats().value("invalidations"), 0u);
    EXPECT_EQ(c.stats().value("downgrades"), 0u);

    const Addr filled = addrFor(7, 3, sets);
    c.fill(filled, CoherenceState::Modified);
    expectAbsent(addrFor(7, 4, sets)); // live set, other tag
    expectAbsent(addrFor(8, 3, sets)); // neighbouring set
    EXPECT_EQ(c.residentLines(), 1u);
    EXPECT_EQ(residentAddrs(c), std::vector<Addr>{filled});
    EXPECT_EQ(c.stateOf(filled), CoherenceState::Modified);
}

/** The section's size follows the resident lines, not the geometry:
 *  empty 32 KiB and 8 MiB arrays write the same number of bytes. */
TEST(CacheCheckpoint, EmptySectionSizeIsIndependentOfGeometry)
{
    const Cache small({"c", 32 * 1024, 8, 64, false});
    const Cache large({"c", 8 * 1024 * 1024, 16, 64, false});
    EXPECT_EQ(savedSection(small).size(), savedSection(large).size());
}

namespace
{

struct CraftedLine
{
    uint32_t index;
    uint8_t state;
    uint8_t rank = 0;
};

/** A hand-built "cache" section in the sparse layout: geometry, entry
 *  count, then (index, tag, state, dirty, rank) per entry, then the
 *  stats of a fresh cache. */
std::string
craftSection(const CacheParams &params, uint32_t count,
             const std::vector<CraftedLine> &lines)
{
    const Cache fresh(params);
    Serializer ser;
    ser.beginSection("cache");
    ser.putString(params.name);
    ser.putU32(fresh.numSets());
    ser.putU32(params.ways);
    ser.putU32(count);
    for (const CraftedLine &l : lines) {
        ser.putU32(l.index);
        ser.putU64(l.index + 1);
        ser.putU8(l.state);
        ser.putBool(false);
        ser.putU8(l.rank);
    }
    fresh.stats().saveState(ser);
    ser.endSection();
    return ser.take();
}

} // namespace

/** A saved line whose tag locate() could not have produced (here
 *  wider than any line number) fails the restore instead of being
 *  truncated into another line. */
TEST(CacheCheckpoint, ImpossibleTagIsRejected)
{
    const CacheParams params = smallParams();
    Cache orig(params);
    orig.fill(addrFor(2, 5), CoherenceState::Modified);
    const std::string bytes = savedSection(orig);
    {
        Cache control(params);
        ASSERT_TRUE(restoreSection(control, bytes).ok());
        ASSERT_TRUE(control.contains(addrFor(2, 5)));
    }

    // The one resident line's tag follows the name (u64 length and
    // bytes), the set and way counts, the entry count and the line's
    // index.
    std::string patched = bytes;
    ASSERT_TRUE(test::rewriteSection(
        patched, "cache", [&](std::string &payload) {
            const size_t at = 8 + params.name.size() + 4 + 4 + 4 + 4;
            ASSERT_EQ(test::readLe(payload, at, 8), 5u);
            test::writeLe(payload, at, 8, uint64_t{1} << 63);
        }));
    Cache c(params);
    const Status st = restoreSection(c, patched);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("tag"), std::string::npos)
        << st.toString();
}

TEST(CacheCheckpoint, CraftedSectionsAreRejected)
{
    const CacheParams params = smallParams(); // 16 lines
    const uint32_t capacity = 16;
    const auto byte = [](CoherenceState s) {
        return static_cast<uint8_t>(s);
    };
    const uint8_t shared = byte(CoherenceState::Shared);

    // Control: the crafted layout is one restore accepts. Indices 1
    // and 2 share set 0 and rank 1 then 0; index 15 is alone in set 3.
    Cache control(params);
    const Status good = restoreSection(
        control,
        craftSection(params, 3,
                     {{1, shared, 1},
                      {2, shared, 0},
                      {15, byte(CoherenceState::Modified), 0}}));
    ASSERT_TRUE(good.ok()) << good.toString();
    EXPECT_EQ(control.residentLines(), 3u);

    struct Case
    {
        const char *what;
        uint32_t count;
        std::vector<CraftedLine> lines;
        const char *error;
    };
    const std::vector<Case> cases = {
        {"count above capacity", capacity + 1, {}, "count above"},
        {"descending index", 2, {{9, shared}, {3, shared}},
         "not ascending"},
        {"repeated index", 2, {{3, shared}, {3, shared}},
         "not ascending"},
        {"index out of range", 1, {{capacity, shared}}, "out of range"},
        {"invalid state", 1, {{3, byte(CoherenceState::Invalid)}},
         "coherence state"},
        {"unknown state", 1, {{3, 4}}, "coherence state"},
        {"repeated rank", 2, {{1, shared, 0}, {2, shared, 0}}, "rank"},
        {"rank at the resident count", 2,
         {{1, shared, 0}, {2, shared, 2}}, "rank"},
        {"rank of a lone line", 1, {{3, shared, 1}}, "rank"},
    };
    for (const Case &k : cases) {
        Cache c(params);
        const Status bad =
            restoreSection(c, craftSection(params, k.count, k.lines));
        EXPECT_FALSE(bad.ok()) << k.what;
        EXPECT_NE(bad.message().find(k.error), std::string::npos)
            << k.what << ": " << bad.toString();
    }
}
