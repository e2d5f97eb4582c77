/**
 * @file
 * Unit tests for the ThreadPool concurrency substrate: inline mode,
 * task completion, parallelFor coverage, reuse across waves, and the
 * default worker count under a narrowed CPU affinity mask.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

using namespace hetsim;

TEST(ThreadPool, InlineModeRunsOnCallingThread)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 0u); // No workers: inline mode.

    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, SingleThreadRequestIsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 0u); // 1 also means inline.
    int x = 0;
    pool.submit([&] { x = 42; });
    pool.wait();
    EXPECT_EQ(x, 42);
}

TEST(ThreadPool, AllSubmittedTasksRun)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    std::atomic<int> count{0};
    constexpr int kTasks = 200;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, WaitIsReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (wave + 1) * 20);
    }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    pool.parallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForInlineMatchesParallel)
{
    // The same indexed-slot pattern the DSE evaluator relies on:
    // results land in their own slot regardless of worker count.
    constexpr size_t kN = 257;
    std::vector<uint64_t> serial(kN), parallel(kN);

    ThreadPool one(1);
    one.parallelFor(kN, [&](size_t i) { serial[i] = i * i + 7; });

    ThreadPool many(8);
    many.parallelFor(kN, [&](size_t i) { parallel[i] = i * i + 7; });

    EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ParallelForZeroAndOneElement)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallelFor(0, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(1, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WorkSpreadsAcrossThreads)
{
    // With enough slow-ish tasks, more than one worker should
    // participate. (Not a determinism requirement, just a sanity
    // check that tasks are not serialized onto one worker.)
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> ids;
    pool.parallelFor(64, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, DefaultThreadsFollowsTheAffinityMask)
{
    // A process pinned to one CPU (taskset -c N) must not start a
    // worker per hardware thread.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = ThreadPool::defaultThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(ThreadPool::defaultThreads(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}
