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

class CacheRefModelTest : public ::testing::TestWithParam<uint64_t>
{
};

/** Random traffic: hit/miss decisions must match the reference LRU
 *  model exactly (non-asymmetric mode). */
TEST_P(CacheRefModelTest, MatchesReferenceLru)
{
    CacheParams params{"ref", 2048, 4, 64, false};
    Cache c(params);
    RefCache ref(c.numSets(), 4);
    Rng rng(GetParam());

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
    CacheParams params{"asym", 2048, 4, 64, true};
    Cache c(params);
    RefCache ref(c.numSets(), 4);
    Rng rng(GetParam() ^ 0xabcdef);

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

INSTANTIATE_TEST_SUITE_P(Seeds, CacheRefModelTest,
                         ::testing::Values(1, 2, 3, 42, 99, 1234));

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

/** Save, restore into a fresh array: every probe, the re-saved bytes,
 *  and every later victim choice match the original, although the
 *  original's invalid lines still hold stale tags and stamps. */
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
    Cache copy(params);
    const Status st = restoreSection(copy, bytes);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(savedSection(copy), bytes);
    EXPECT_EQ(copy.residentAddrs(), orig.residentAddrs());
    for (Addr a = 0; a < (1 << 15); a += 64) {
        const LookupResult x = orig.probe(a);
        const LookupResult y = copy.probe(a);
        ASSERT_EQ(x.hit, y.hit) << a;
        ASSERT_EQ(x.fastHit, y.fastHit) << a;
        ASSERT_EQ(x.state, y.state) << a;
    }

    // Identical later traffic, including lines never seen before:
    // every hit and every victim choice must agree.
    for (int i = 0; i < 5000; ++i) {
        const Addr a = lineAlign(rng.range(1 << 16));
        const LookupResult x = orig.access(a);
        const LookupResult y = copy.access(a);
        ASSERT_EQ(x.hit, y.hit) << "step " << i;
        ASSERT_EQ(x.fastHit, y.fastHit) << "step " << i;
        if (x.hit)
            continue;
        const Eviction ex = orig.fill(a, CoherenceState::Shared);
        const Eviction ey = copy.fill(a, CoherenceState::Shared);
        ASSERT_EQ(ex.valid, ey.valid) << "step " << i;
        ASSERT_EQ(ex.lineAddr, ey.lineAddr) << "step " << i;
        ASSERT_EQ(ex.dirty, ey.dirty) << "step " << i;
        ASSERT_EQ(ex.state, ey.state) << "step " << i;
    }
    EXPECT_EQ(savedSection(copy), savedSection(orig));
}

INSTANTIATE_TEST_SUITE_P(
    Ways, CacheCheckpointTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return info.param ? "Asymmetric" : "Uniform";
    });

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
};

/** A hand-built "cache" section in the sparse layout: geometry, stamp
 *  counter, entry count, then (index, tag, state, dirty, stamp) per
 *  entry, then the stats of a fresh cache. */
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
    ser.putU64(64);
    ser.putU32(count);
    for (const CraftedLine &l : lines) {
        ser.putU32(l.index);
        ser.putU64(l.index + 1);
        ser.putU8(l.state);
        ser.putBool(false);
        ser.putU64(l.index + 1);
    }
    fresh.stats().saveState(ser);
    ser.endSection();
    return ser.data();
}

} // namespace

TEST(CacheCheckpoint, CraftedSectionsAreRejected)
{
    const CacheParams params = smallParams(); // 16 lines
    const uint32_t capacity = 16;
    const auto byte = [](CoherenceState s) {
        return static_cast<uint8_t>(s);
    };
    const uint8_t shared = byte(CoherenceState::Shared);

    // Control: the crafted layout is one restore accepts.
    Cache control(params);
    const Status good = restoreSection(
        control,
        craftSection(params, 2,
                     {{3, shared}, {15, byte(CoherenceState::Modified)}}));
    ASSERT_TRUE(good.ok()) << good.toString();
    EXPECT_EQ(control.residentLines(), 2u);

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
