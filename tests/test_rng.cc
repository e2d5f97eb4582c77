/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

using hetsim::GeometricP;
using hetsim::Rng;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedWorks)
{
    Rng r(0);
    // SplitMix expansion guarantees a non-degenerate state.
    std::set<uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, RangeBounds)
{
    Rng r(9);
    for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(r.range(bound), bound);
    }
}

TEST(Rng, RangeCoversAllValues)
{
    Rng r(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.range(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = r.rangeInclusive(-5, 5);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 5);
    }
    // Degenerate interval.
    EXPECT_EQ(r.rangeInclusive(3, 3), 3);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, GeometricMean)
{
    // Each draw equals the textbook inversion with log1p(-p)
    // evaluated per draw, so precomputing it moves no trace.
    Rng r(23);
    Rng ref(23);
    const double p = 0.25;
    const GeometricP dist(p);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const uint64_t g = r.geometric(dist);
        ASSERT_GE(g, 1u);
        double u = ref.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        ASSERT_EQ(g, 1 + static_cast<uint64_t>(std::log(u) /
                                               std::log1p(-p)));
        sum += static_cast<double>(g);
    }
    EXPECT_NEAR(sum / n, 1.0 / p, 0.1);
}

TEST(Rng, GeometricWithCertainSuccess)
{
    // Certain success draws nothing: the stream is untouched.
    Rng r(29);
    Rng untouched(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.geometric(GeometricP(1.0)), 1u);
    EXPECT_EQ(r.next(), untouched.next());
}

TEST(Rng, ZipfSkew)
{
    Rng r(31);
    const uint64_t n = 1000;
    uint64_t low = 0, total = 20000;
    for (uint64_t i = 0; i < total; ++i) {
        const uint64_t k = r.zipf(n, 1.1);
        ASSERT_LT(k, n);
        low += k < n / 10;
    }
    // A Zipf distribution concentrates mass on low indices.
    EXPECT_GT(static_cast<double>(low) / total, 0.5);
}

TEST(Rng, ZipfSingleElement)
{
    Rng r(37);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.zipf(1, 1.2), 0u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(41);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

/** Property: every seed yields values in range and nonzero variety. */
class RngSeedTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngSeedTest, HealthyStream)
{
    Rng r(GetParam());
    std::set<uint64_t> seen;
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        seen.insert(r.next());
        sum += r.uniform();
    }
    EXPECT_GT(seen.size(), 1990u);
    EXPECT_NEAR(sum / 2000, 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0, 1, 2, 42, 1337,
                                           0xdeadbeef, ~0ull));
