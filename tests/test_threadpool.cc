/** @file Tests for the exec substrate: fixed-size thread pool and the
 *  deterministic parallelFor/parallelForChunks helpers. */

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "exec/threadpool.hh"

namespace
{

using namespace interf;
using namespace interf::exec;

TEST(ThreadPool, ResolvesZeroToHardware)
{
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
    EXPECT_EQ(ThreadPool::resolveJobs(0), ThreadPool::hardwareWorkers());
    EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), ThreadPool::hardwareWorkers());
}

TEST(ThreadPool, SubmitWaitRunsAllTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait(); // nothing submitted: must not hang
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(pool, hits.size(),
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRange)
{
    ThreadPool pool(4);
    int calls = 0;
    parallelFor(pool, 0, [&calls](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    parallelFor(pool, hits.size(),
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionTheRange)
{
    ThreadPool pool(4);
    // 10 indices over 4 workers: chunk sizes differ by at most one and
    // the chunks tile [0, 10) without gaps or overlap.
    std::vector<std::atomic<int>> hits(10);
    std::atomic<int> chunks{0};
    std::atomic<int> max_len{0};
    std::atomic<int> min_len{1000};
    parallelForChunks(pool, hits.size(),
                      [&](size_t begin, size_t end) {
                          chunks.fetch_add(1);
                          int len = static_cast<int>(end - begin);
                          int seen = max_len.load();
                          while (len > seen &&
                                 !max_len.compare_exchange_weak(seen, len)) {
                          }
                          seen = min_len.load();
                          while (len < seen &&
                                 !min_len.compare_exchange_weak(seen, len)) {
                          }
                          for (size_t i = begin; i < end; ++i)
                              hits[i].fetch_add(1);
                      });
    EXPECT_EQ(chunks.load(), 4);
    EXPECT_LE(max_len.load() - min_len.load(), 1);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 100,
                             [](size_t i) {
                                 if (i == 37)
                                     throw std::runtime_error("task 37");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, LowestChunkExceptionWins)
{
    ThreadPool pool(4);
    // Every chunk throws its begin index; the rethrown one must be
    // chunk 0's regardless of which worker finishes first.
    try {
        parallelForChunks(pool, 100, [](size_t begin, size_t) {
            throw std::runtime_error("chunk@" + std::to_string(begin));
        });
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk@0");
    }
}

TEST(ThreadPool, UsableAfterException)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(pool, 8,
                             [](size_t) {
                                 throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The workers survived; the next batch runs normally.
    std::atomic<int> done{0};
    parallelFor(pool, 64, [&done](size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    // With one chunk the body runs on the calling thread, so thread-
    // local effects are visible to the caller.
    ThreadPool pool(1);
    std::thread::id body_thread;
    parallelForChunks(pool, 5, [&body_thread](size_t, size_t) {
        body_thread = std::this_thread::get_id();
    });
    EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&done] { done.fetch_add(1); });
        // No wait(): the destructor must finish the queue, not drop it.
    }
    EXPECT_EQ(done.load(), 200);
}

} // anonymous namespace
