/**
 * @file
 * Fixed-capacity FIFO ring for the out-of-order core's in-flight
 * queues (ROB, fetch queue, store queue).
 *
 * Storage is allocated once, at construction; push_back and pop_front
 * only move indices, so the simulation tick loop never allocates.
 * Pushing past the capacity is a simulator bug and panics.
 */

#ifndef HETSIM_CPU_RING_QUEUE_HH
#define HETSIM_CPU_RING_QUEUE_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace hetsim::cpu
{

/** FIFO of at most `capacity` elements in a circular buffer. Index 0
 *  is the oldest element (the front). */
template <typename T>
class RingQueue
{
  public:
    explicit RingQueue(size_t capacity) : slots_(capacity) {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](size_t i) { return slots_[slot(i)]; }
    const T &operator[](size_t i) const { return slots_[slot(i)]; }
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void push_back(const T &value)
    {
        hetsim_assert(size_ < slots_.size(),
                      "ring queue overflow (capacity %zu)", slots_.size());
        slots_[slot(size_)] = value;
        ++size_;
    }

    void pop_front()
    {
        hetsim_assert(size_ > 0, "pop_front on an empty ring queue");
        head_ = slot(1);
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Slot of element i. head_ < capacity and i <= size_ <= capacity,
     *  so one conditional subtraction wraps any index in use. */
    size_t slot(size_t i) const
    {
        const size_t s = head_ + i;
        return s >= slots_.size() ? s - slots_.size() : s;
    }

    std::vector<T> slots_;
    size_t head_ = 0; ///< Slot of the oldest element.
    size_t size_ = 0;
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_RING_QUEUE_HH
