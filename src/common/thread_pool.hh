/**
 * @file
 * Fixed-size worker thread pool — the repo's concurrency substrate.
 *
 * The simulator itself stays single-threaded and deterministic; what
 * parallelizes is the *workload around it*: a design-space exploration
 * evaluates hundreds of independent (design, workload) cells, each a
 * full simulation. The pool fans those cells out across cores.
 *
 * Determinism contract: the pool schedules tasks in an unspecified
 * order, so callers that need reproducible output must make each task
 * independent and write its result into a caller-owned slot (see
 * parallelFor). Under that discipline the result vector is bit-
 * identical for any thread count, which core/dse relies on for its
 * "--jobs 1 == --jobs N" guarantee.
 */

#ifndef HETSIM_COMMON_THREAD_POOL_HH
#define HETSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hetsim
{

/** A fixed set of workers draining one FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count. 0 or 1 creates no workers at all:
     *                every task runs inline on the submitting thread,
     *                which keeps single-job runs trivially serial.
     */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Tasks must not throw. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Run fn(0) .. fn(n-1), blocking until all complete. Each index
     * runs exactly once; with workers, indices run concurrently in
     * unspecified order. The canonical deterministic-fan-out helper:
     * have fn(i) write only to slot i of a pre-sized result vector.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** Workers owned by the pool (0 = inline execution). */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** A sensible default job count: the CPUs in the calling
     *  thread's affinity mask (the hardware concurrency when the mask
     *  cannot be read). */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    size_t inFlight_ = 0; ///< Queued + currently executing tasks.
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace hetsim

#endif // HETSIM_COMMON_THREAD_POOL_HH
