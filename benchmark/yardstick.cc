/**
 * @file
 * HetBench yardstick: a fixed amount of host work, independent of the
 * simulator, that run.py times before every job to gauge how fast the
 * host is at that moment.
 *
 *   hetbench_yardstick
 *
 * The host the benchmark runs on is shared: other tenants' use of the
 * caches, the memory system and the cores moves the speed of every job
 * by tens of percent over minutes. Which resource they contend for
 * changes from one episode to the next, and no single kind of work slows
 * by as much as the simulator in all of them: dependent DRAM reads slow
 * far more in some, a multiply chain far less in all. The yardstick
 * therefore mixes three kinds, weighted by time about as follows:
 *
 *   - 35%: a random cyclic permutation over 8 MiB, built (random
 *     writes) and chased (dependent random reads), and freshly
 *     allocated, zero-filled buffers;
 *   - 30%: a small cache model: set-associative LRU tag lookups through
 *     three levels (about 1.7 MiB of tables, rebuilt per pass) for an
 *     address stream with streaming, hot-set and scattered parts, which
 *     is the kind of work the simulator does;
 *   - 35%: a dependent multiply chain.
 *
 * Its code never changes with the simulator, so the ratio of a job's
 * time to the yardstick's, both taken in the same minutes, moves far
 * less with the host's load than the job's time alone.
 *
 * Prints a checksum of its work, so none of it can be optimized away.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace
{

constexpr uint32_t kEntries = 2u << 20;  // 8 MiB of uint32_t
constexpr uint32_t kChase = 200000;
constexpr int kBuffers = 2;
constexpr size_t kBufferBytes = 4u << 20;
constexpr int kCachePasses = 2;
constexpr uint32_t kCacheAccesses = 400000;
constexpr uint64_t kAlu = 35000000;

uint64_t
lcgNext(uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
}

/** Set-associative tag store with LRU replacement. */
class TagStore
{
  public:
    TagStore(uint32_t sets, uint32_t ways)
        : sets_(sets), ways_(ways), tags_(size_t(sets) * ways, ~0ull),
          stamps_(size_t(sets) * ways)
    {
    }

    /** Look up a line; on a miss, fill it over the LRU way. */
    bool
    access(uint64_t line)
    {
        const size_t base = size_t(line % sets_) * ways_;
        ++clock_;
        uint32_t victim = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == line) {
                stamps_[base + w] = clock_;
                return true;
            }
            if (stamps_[base + w] < stamps_[base + victim])
                victim = w;
        }
        tags_[base + victim] = line;
        stamps_[base + victim] = clock_;
        return false;
    }

  private:
    uint32_t sets_;
    uint32_t ways_;
    std::vector<uint64_t> tags_;
    std::vector<uint32_t> stamps_;
    uint32_t clock_ = 0;
};

uint64_t
memoryWork()
{
    // Sattolo's algorithm: one cycle through every entry.
    std::vector<uint32_t> next(kEntries);
    for (uint32_t i = 0; i < kEntries; ++i)
        next[i] = i;
    uint64_t lcg = 1;
    for (uint32_t i = kEntries - 1; i > 0; --i) {
        const uint32_t j = static_cast<uint32_t>((lcgNext(lcg) >> 33) % i);
        const uint32_t t = next[i];
        next[i] = next[j];
        next[j] = t;
    }
    uint32_t p = 0;
    for (uint32_t i = 0; i < kChase; ++i)
        p = next[p];

    uint64_t sum = p;
    for (int b = 0; b < kBuffers; ++b) {
        std::unique_ptr<char[]> buf(new char[kBufferBytes]());
        buf[(b * 4099u) % kBufferBytes] = static_cast<char>(b);
        sum += static_cast<unsigned char>(buf[(p + b) % kBufferBytes]);
    }
    return sum;
}

uint64_t
cacheModelWork()
{
    uint64_t rng = 2, hits = 0;
    for (int pass = 0; pass < kCachePasses; ++pass) {
        TagStore l1(64, 8), l2(1024, 8), l3(8192, 16);
        uint64_t stream = 0;
        for (uint32_t i = 0; i < kCacheAccesses; ++i) {
            const uint64_t r = lcgNext(rng) >> 16;
            uint64_t line;
            if (r % 16 < 10)
                line = stream += (r >> 8) & 1;      // streaming
            else if (r % 16 < 14)
                line = (r >> 8) % 8192;             // hot 512 KiB
            else
                line = (r >> 8) % (1u << 20);       // 64 MiB footprint
            hits += l1.access(line) || l2.access(line) || l3.access(line);
        }
    }
    return hits;
}

uint64_t
aluWork()
{
    uint64_t x = 3;
    for (uint64_t i = 0; i < kAlu; ++i)
        x = x * 6364136223846793005ull + 1;
    return x;
}

} // namespace

int
main()
{
    const uint64_t sum = memoryWork() ^ cacheModelWork() ^ aluWork();
    std::printf("%llu\n", static_cast<unsigned long long>(sum));
    return 0;
}
