/**
 * @file
 * Storage for a set-associative array that holds a set's ways only
 * from the set's first fill.
 *
 * A simulated cache or BTB has a fixed geometry, but a run fills a
 * fraction of its sets: a 0.01-scale figure run fills 115-419 of an
 * 8 MiB L3's 8192 sets. SetStore keeps one pointer per set, null until
 * the set is filled, and places each filled set's ways next to the
 * previously filled ones in fixed-size chunks. So the memory a run
 * commits, and the cost of building and destroying the array, follow
 * the sets it fills and not the geometry. A chunk never moves once
 * allocated: a set's ways keep their address, and growing copies
 * nothing.
 */

#ifndef HETSIM_COMMON_SET_STORE_HH
#define HETSIM_COMMON_SET_STORE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace hetsim
{

template <typename Entry>
class SetStore
{
    // Chunks are allocated uninitialized; a set's ways are written
    // when the set is first filled.
    static_assert(std::is_trivially_default_constructible_v<Entry> &&
                  std::is_trivially_copyable_v<Entry>);

  public:
    /** `ways` must be at least 1. */
    SetStore(uint32_t sets, uint32_t ways)
        : ways_(ways),
          setsPerChunk_(std::max<size_t>(
              1, std::min<size_t>(sets,
                                  kChunkBytes / (sizeof(Entry) * ways)))),
          index_(sets, nullptr)
    {
    }

    /** The ways of `set`, or null when the set was never filled. */
    Entry *find(uint32_t set) { return index_[set]; }
    const Entry *find(uint32_t set) const { return index_[set]; }

    /** The ways of `set`, each written to `empty` on its first fill. */
    Entry *
    fill(uint32_t set, const Entry &empty)
    {
        Entry *&ways = index_[set];
        if (ways == nullptr)
            ways = place(empty);
        return ways;
    }

    /** Forget every set. The chunks stay allocated for later fills. */
    void
    clear()
    {
        std::fill(index_.begin(), index_.end(), nullptr);
        placed_ = 0;
    }

  private:
    static constexpr size_t kChunkBytes = 4096;

    /** The next free slot of `ways_` entries, set to `empty`. */
    Entry *
    place(const Entry &empty)
    {
        const size_t chunk = placed_ / setsPerChunk_;
        if (chunk == chunks_.size())
            chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(
                setsPerChunk_ * ways_));
        Entry *ways =
            &chunks_[chunk][(placed_ % setsPerChunk_) * ways_];
        std::fill_n(ways, ways_, empty);
        ++placed_;
        return ways;
    }

    size_t ways_;
    size_t setsPerChunk_;
    size_t placed_ = 0; ///< Sets filled since construction or clear().
    std::vector<Entry *> index_;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_SET_STORE_HH
