/**
 * @file
 * Unit, protocol, and property tests for the coherent memory
 * hierarchy (MESI directory, inclusive L3, prefetcher, asymmetric
 * DL1 latencies), and restore-time validation of its directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "checkpoint_sections.hh"

using namespace hetsim;
using namespace hetsim::mem;

namespace
{

HierarchyParams
smallParams(uint32_t cores = 2, bool asym = false)
{
    HierarchyParams p;
    p.numCores = cores;
    p.asymDl1 = asym;
    p.il1SizeBytes = 4 * 1024;
    p.dl1SizeBytes = 4 * 1024;
    p.dl1Ways = 4;
    p.l2SizeBytes = 16 * 1024;
    p.l3SizePerCoreBytes = 64 * 1024;
    p.prefetchDegree = 0; // deterministic latency tests
    return p;
}

} // namespace

TEST(Hierarchy, ColdLoadGoesToDram)
{
    MemHierarchy h(smallParams());
    const auto r = h.access(0, 0x10000, AccessType::Load, 0);
    EXPECT_EQ(r.source, AccessSource::Dram);
    EXPECT_EQ(r.latency, h.params().lat.l3Rt + h.params().lat.dramRt);
}

TEST(Hierarchy, Dl1HitLatency)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Load, 0);
    const auto r = h.access(0, 0x10000, AccessType::Load, 1);
    EXPECT_EQ(r.source, AccessSource::Dl1);
    EXPECT_EQ(r.latency, h.params().lat.dl1Rt);
}

TEST(Hierarchy, L2HitAfterDl1Eviction)
{
    HierarchyParams p = smallParams();
    MemHierarchy h(p);
    // Fill more lines mapping broadly than the DL1 holds.
    for (Addr a = 0; a < 2 * p.dl1SizeBytes; a += 64)
        h.access(0, 0x100000 + a, AccessType::Load, 0);
    // Some early line must now be DL1-miss / L2-hit.
    const auto r = h.access(0, 0x100000, AccessType::Load, 100);
    EXPECT_EQ(r.source, AccessSource::L2);
    EXPECT_EQ(r.latency, p.lat.l2Rt);
}

TEST(Hierarchy, L3HitLatency)
{
    HierarchyParams p = smallParams();
    MemHierarchy h(p);
    h.access(0, 0x200000, AccessType::Load, 0);
    // Thrash DL1 and L2 so only L3 retains the line.
    for (Addr a = 0; a < 3 * p.l2SizeBytes; a += 64)
        h.access(0, 0x400000 + a, AccessType::Load, 0);
    const auto r = h.access(0, 0x200000, AccessType::Load, 100);
    EXPECT_EQ(r.source, AccessSource::L3);
    EXPECT_EQ(r.latency, p.lat.l3Rt);
}

TEST(Hierarchy, IfetchPath)
{
    MemHierarchy h(smallParams());
    const auto miss = h.access(0, 0x300000, AccessType::Ifetch, 0);
    EXPECT_EQ(miss.source, AccessSource::Dram);
    const auto hit = h.access(0, 0x300000, AccessType::Ifetch, 1);
    EXPECT_EQ(hit.source, AccessSource::Il1);
    EXPECT_EQ(hit.latency, h.params().lat.il1Rt);
}

TEST(Hierarchy, StoreAllocatesModified)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Store, 0);
    EXPECT_EQ(h.dl1(0).stateOf(0x10000), CoherenceState::Modified);
    EXPECT_TRUE(h.checkSingleWriter(0x10000));
}

TEST(Hierarchy, LoadGrantsExclusiveWhenSole)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Load, 0);
    EXPECT_EQ(h.dl1(0).stateOf(0x10000), CoherenceState::Exclusive);
}

TEST(Hierarchy, SecondReaderDowngradesToShared)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Load, 0);
    const auto r = h.access(1, 0x10000, AccessType::Load, 1);
    EXPECT_EQ(r.source, AccessSource::RemoteCore);
    EXPECT_EQ(h.dl1(0).stateOf(0x10000), CoherenceState::Shared);
    EXPECT_EQ(h.dl1(1).stateOf(0x10000), CoherenceState::Shared);
    EXPECT_TRUE(h.checkSingleWriter(0x10000));
}

TEST(Hierarchy, StoreInvalidatesSharers)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Load, 0);
    h.access(1, 0x10000, AccessType::Load, 1);
    h.access(0, 0x10000, AccessType::Store, 2);
    EXPECT_EQ(h.dl1(0).stateOf(0x10000), CoherenceState::Modified);
    EXPECT_FALSE(h.dl1(1).contains(0x10000));
    EXPECT_FALSE(h.l2(1).contains(0x10000));
    EXPECT_TRUE(h.checkSingleWriter(0x10000));
    EXPECT_GT(h.stats().value("upgrade_invalidations"), 0u);
}

TEST(Hierarchy, RemoteModifiedReadPullsData)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Store, 0);
    const auto r = h.access(1, 0x10000, AccessType::Load, 1);
    EXPECT_EQ(r.source, AccessSource::RemoteCore);
    // Both end Shared; the line's data moved into L3 (dirty there).
    EXPECT_EQ(h.dl1(0).stateOf(0x10000), CoherenceState::Shared);
    EXPECT_EQ(h.dl1(1).stateOf(0x10000), CoherenceState::Shared);
    EXPECT_GT(h.stats().value("owner_downgrades"), 0u);
}

TEST(Hierarchy, RfoStealsModifiedLine)
{
    MemHierarchy h(smallParams());
    h.access(0, 0x10000, AccessType::Store, 0);
    h.access(1, 0x10000, AccessType::Store, 1);
    EXPECT_FALSE(h.dl1(0).contains(0x10000));
    EXPECT_EQ(h.dl1(1).stateOf(0x10000), CoherenceState::Modified);
    EXPECT_TRUE(h.checkSingleWriter(0x10000));
}

TEST(Hierarchy, WritebackReachesDramOnL3Eviction)
{
    HierarchyParams p = smallParams(1);
    MemHierarchy h(p);
    h.access(0, 0x10000, AccessType::Store, 0);
    // Evict everything from L3 by streaming far past its capacity.
    const uint64_t lines = 4ull * p.l3SizePerCoreBytes / 64;
    for (uint64_t i = 0; i < lines; ++i)
        h.access(0, 0x4000000 + i * 64, AccessType::Load, i);
    EXPECT_FALSE(h.l3().contains(0x10000));
    EXPECT_GT(h.dram().stats().value("writes"), 0u);
    EXPECT_FALSE(h.dl1(0).contains(0x10000));
}

TEST(Hierarchy, L3EvictionBackInvalidatesPrivateCopies)
{
    // With an L3 smaller than the private caches, inclusion forces
    // back-invalidations as soon as the L3 churns.
    HierarchyParams p = smallParams(1);
    p.l3SizePerCoreBytes = 8 * 1024; // smaller than the 16 KB L2
    MemHierarchy h(p);
    for (uint64_t i = 0; i < 1024; ++i)
        h.access(0, 0x900000 + i * 64, AccessType::Load, i);
    EXPECT_GT(h.stats().value("back_invalidations"), 0u);
    EXPECT_TRUE(h.checkInclusion());
    EXPECT_TRUE(h.checkDirectoryConsistent());
}

TEST(Hierarchy, AsymmetricDl1Latencies)
{
    HierarchyParams p = smallParams(1, true);
    p.lat.dl1FastRt = 1;
    p.lat.dl1Rt = 5;
    MemHierarchy h(p);
    h.access(0, 0x10000, AccessType::Load, 0);
    // Fill lands in the fast way.
    EXPECT_EQ(h.access(0, 0x10000, AccessType::Load, 1).latency, 1u);
    // Fill the DL1 exactly (4 KB / 64 B = 64 lines, incl. the one
    // above): every set ends up with multiple lines, so the first
    // line is no longer its set's MRU and hits the slow ways.
    for (uint64_t i = 1; i < 64; ++i)
        h.access(0, 0x10000 + i * 64, AccessType::Load, 1 + i);
    const auto r = h.access(0, 0x10000, AccessType::Load, 100);
    EXPECT_EQ(r.source, AccessSource::Dl1);
    EXPECT_EQ(r.latency, 5u);
    // The promotion made it fast again.
    EXPECT_EQ(h.access(0, 0x10000, AccessType::Load, 101).latency,
              1u);
}

TEST(Hierarchy, PrefetcherTurnsStreamIntoHits)
{
    HierarchyParams p = smallParams(1);
    p.prefetchDegree = 2;
    p.prefetchTrain = 2;
    MemHierarchy h(p);
    uint64_t dl1_miss_latency = 0, accesses = 0;
    for (uint64_t i = 0; i < 512; ++i) {
        const auto r = h.access(0, 0x800000 + i * 64,
                                AccessType::Load, i * 4);
        ++accesses;
        if (r.latency > p.lat.dl1Rt)
            ++dl1_miss_latency;
    }
    // Once trained (a few lines), every demand access hits DL1.
    EXPECT_LT(dl1_miss_latency, 8u);
    EXPECT_GT(h.stats().value("prefetches"), 400u);
}

TEST(Hierarchy, PrefetcherDisabledMissesEveryLine)
{
    HierarchyParams p = smallParams(1);
    p.prefetchDegree = 0;
    MemHierarchy h(p);
    uint64_t misses = 0;
    for (uint64_t i = 0; i < 128; ++i) {
        const auto r = h.access(0, 0x800000 + i * 64,
                                AccessType::Load, i * 4);
        misses += r.latency > p.lat.dl1Rt;
    }
    EXPECT_EQ(misses, 128u);
}

TEST(Hierarchy, InterleavedStreamsBothPrefetched)
{
    // The multi-entry stream table must track two streams at once.
    HierarchyParams p = smallParams(1);
    p.prefetchDegree = 2;
    MemHierarchy h(p);
    uint64_t late = 0;
    for (uint64_t i = 0; i < 256; ++i) {
        auto r1 = h.access(0, 0x800000 + i * 64, AccessType::Load,
                           8 * i);
        auto r2 = h.access(0, 0xA00000 + i * 64, AccessType::Load,
                           8 * i + 4);
        if (i > 8) {
            late += r1.latency > p.lat.dl1Rt;
            late += r2.latency > p.lat.dl1Rt;
        }
    }
    EXPECT_LT(late, 10u);
}

// -------------------- Protocol property tests ---------------------

class HierarchyPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HierarchyPropertyTest, InvariantsUnderRandomSharedTraffic)
{
    HierarchyParams p = smallParams(4);
    MemHierarchy h(p);
    Rng rng(GetParam());

    // A small shared region maximizes protocol churn.
    const uint64_t kLines = 96;
    for (int i = 0; i < 20000; ++i) {
        const uint32_t core = static_cast<uint32_t>(rng.range(4));
        const Addr addr = rng.range(kLines) * 64;
        const double roll = rng.uniform();
        const AccessType type = roll < 0.5 ? AccessType::Load
            : roll < 0.8 ? AccessType::Store
                         : AccessType::Ifetch;
        h.access(core, addr, type, i);

        if (i % 500 == 0) {
            ASSERT_TRUE(h.checkInclusion()) << "step " << i;
            ASSERT_TRUE(h.checkDirectoryConsistent()) << "step " << i;
        }
    }
    EXPECT_TRUE(h.checkInclusion());
    EXPECT_TRUE(h.checkDirectoryConsistent());
    for (uint64_t l = 0; l < kLines; ++l)
        EXPECT_TRUE(h.checkSingleWriter(l * 64)) << "line " << l;
}

TEST_P(HierarchyPropertyTest, MixedPrivateSharedTraffic)
{
    HierarchyParams p = smallParams(4, true);
    p.prefetchDegree = 2;
    MemHierarchy h(p);
    Rng rng(GetParam() ^ 0x5555);

    for (int i = 0; i < 20000; ++i) {
        const uint32_t core = static_cast<uint32_t>(rng.range(4));
        Addr addr;
        if (rng.chance(0.3)) {
            addr = rng.range(64) * 64; // shared
        } else {
            addr = ((core + 1ull) << 24) +
                rng.range(1024) * 64; // private
        }
        const AccessType type =
            rng.chance(0.7) ? AccessType::Load : AccessType::Store;
        h.access(core, addr, type, i);
    }
    EXPECT_TRUE(h.checkInclusion());
    EXPECT_TRUE(h.checkDirectoryConsistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyPropertyTest,
                         ::testing::Values(1, 7, 21, 77, 424242));

// -------------------- Checkpoint restore --------------------------

/** Recalls index the private caches by directory owner and sharer
 *  bit, so a checksum-valid payload whose directory names a core the
 *  chip lacks, an owner that is not the sole sharer, or sharers that
 *  are not exactly the L2s holding the line must be rejected at
 *  restore, while an entry rewritten with its own true mask restores.
 *  Entries follow the L3's (set, way) order. */
TEST(HierarchyCheckpoint, RestoreRejectsInconsistentDirectoryEntries)
{
    const HierarchyParams p = smallParams(4);
    MemHierarchy h(p);
    Rng rng(3);
    for (int i = 0; i < 4000; ++i) {
        h.access(static_cast<uint32_t>(rng.range(4)),
                 rng.range(64) * 64,
                 rng.chance(0.5) ? AccessType::Load : AccessType::Store,
                 i);
    }
    const std::string saved = test::savedSection(h);

    // An unowned entry with two or more sharers and an owned entry.
    std::string dir;
    std::string copy = saved;
    ASSERT_TRUE(test::rewriteSection(
        copy, "directory", [&](std::string &payload) { dir = payload; }));
    const size_t n = test::readLe(dir, 0, 8);
    size_t shared = n;
    size_t owned = n;
    for (size_t i = 0; i < n; ++i) {
        if (test::dirOwner(dir, i) >= 0)
            owned = std::min(owned, i);
        else if (std::popcount(test::dirSharers(dir, i)) >= 2)
            shared = std::min(shared, i);
    }
    ASSERT_LT(shared, n);
    ASSERT_LT(owned, n);
    const uint32_t shared_mask = test::dirSharers(dir, shared);
    const int64_t owner = test::dirOwner(dir, owned);

    struct Case
    {
        const char *what;
        size_t entry;
        uint32_t sharers;
        int64_t owner;
        const char *error; ///< Empty: restore must succeed.
    };
    const std::vector<Case> cases = {
        {"unowned, two sharers", shared, shared_mask, -1, ""},
        {"owner is the sole sharer", owned, 1u << owner, owner, ""},
        {"owner past the last core", 0, 0b10000, 4, "owner out of range"},
        {"owner below -1", 0, 0, -2, "owner out of range"},
        {"sharer bit past the last core", 0, 0b10001, -1,
         "sharer bit out of range"},
        {"owner not the sole sharer", 0, 0b0011, 0,
         "not the sole sharer"},
        {"a sharer whose L2 lacks the line", owned,
         (1u << owner) | (1u << ((owner + 1) % 4)), -1,
         "contradicts inclusion or the directory"},
        {"a holder missing from the sharers", shared,
         shared_mask & (shared_mask - 1), -1,
         "contradicts inclusion or the directory"},
    };
    for (const Case &k : cases) {
        std::string bytes = saved;
        ASSERT_TRUE(test::rewriteSection(
            bytes, "directory", [&](std::string &payload) {
                test::setDirEntry(payload, k.entry, k.sharers, k.owner);
            }));
        MemHierarchy fresh(p);
        const Status st = test::restoreSection(fresh, bytes);
        if (*k.error == '\0') {
            EXPECT_TRUE(st.ok()) << k.what << ": " << st.toString();
        } else {
            EXPECT_FALSE(st.ok()) << k.what;
            EXPECT_NE(st.message().find(k.error), std::string::npos)
                << k.what << ": " << st.toString();
        }
    }
}
