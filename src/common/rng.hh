/**
 * @file
 * Deterministic pseudo-random number generation for hetsim.
 *
 * All stochastic behaviour in the simulator (workload generation, random
 * test programs, tie breaking) flows through Rng so that every experiment
 * is exactly reproducible from a 64-bit seed. The generator is
 * xoshiro256**, which is fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef HETSIM_COMMON_RNG_HH
#define HETSIM_COMMON_RNG_HH

#include <cassert>
#include <cmath>
#include <cstdint>

namespace hetsim
{

/**
 * Success probability p of Rng::geometric(), with the log1p(-p) that
 * every draw divides by computed once. Callers whose p is a constant
 * build one up front.
 */
struct GeometricP
{
    explicit GeometricP(double p) : log1mP(std::log1p(-p))
    {
        assert(p > 0.0 && p <= 1.0);
    }

    double log1mP; ///< log(1 - p); -inf when p is 1.
};

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * A freshly constructed Rng with the same seed always produces the same
 * sequence. Copying an Rng forks the stream.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 state expansion. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 expands the single word into four state words,
        // guaranteeing a non-zero state for any seed.
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    range(uint64_t bound)
    {
        assert(bound > 0);
        // Lemire's multiply-shift rejection method (bias-free).
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t lo = static_cast<uint64_t>(m);
        if (lo < bound) {
            uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    rangeInclusive(int64_t lo, int64_t hi)
    {
        assert(hi >= lo);
        return lo + static_cast<int64_t>(
            range(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Geometrically distributed value >= 1 with success probability p.
     * Used for dependency distances. A certain success (p = 1)
     * returns 1 without drawing.
     */
    uint64_t
    geometric(GeometricP p)
    {
        if (std::isinf(p.log1mP))
            return 1;
        double u = uniform();
        // Avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return 1 + static_cast<uint64_t>(std::log(u) / p.log1mP);
    }

    /**
     * Zipf-like index in [0, n): index k is picked with probability
     * proportional to 1/(k+1)^s. Uses rejection-inversion; cheap enough
     * for workload generation.
     */
    uint64_t
    zipf(uint64_t n, double s)
    {
        assert(n > 0);
        if (n == 1)
            return 0;
        // Inverse-CDF on the continuous approximation, then clamp.
        const double h = std::pow(static_cast<double>(n), 1.0 - s);
        const double u = uniform();
        const double x = std::pow(u * (h - 1.0) + 1.0, 1.0 / (1.0 - s));
        uint64_t k = static_cast<uint64_t>(x) - 1;
        if (k >= n)
            k = n - 1;
        return k;
    }

    /** Fork an independent stream (e.g. one per simulated thread). */
    Rng
    fork()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ULL);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace hetsim

#endif // HETSIM_COMMON_RNG_HH
