#include "common/thread_pool.hh"

#include <sched.h>

#include <atomic>

#include "common/logging.hh"

namespace hetsim
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads <= 1)
        return; // Inline mode: submit() runs tasks directly.
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    hetsim_assert(task != nullptr, "null task submitted to pool");
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    if (workers_.empty())
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (workers_.empty()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // A shared atomic cursor instead of n queue entries: workers
    // claim indices until the range is exhausted, so the queue holds
    // one entry per worker regardless of n.
    auto cursor = std::make_shared<std::atomic<size_t>>(0);
    const size_t tasks = std::min(n, workers_.size());
    for (size_t t = 0; t < tasks; ++t) {
        submit([cursor, n, &fn] {
            for (size_t i = (*cursor)++; i < n; i = (*cursor)++)
                fn(i);
        });
    }
    wait();
}

unsigned
ThreadPool::defaultThreads()
{
    // The CPUs this thread may run on, so a process pinned with
    // taskset starts no more workers than it has CPUs.
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and nothing left to run.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
        }
        allDone_.notify_all();
    }
}

} // namespace hetsim
