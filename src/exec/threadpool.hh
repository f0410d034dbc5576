/**
 * @file
 * Fixed-size thread pool and deterministic parallel-for helpers.
 *
 * The measurement pipeline fans hundreds of independent layouts out to
 * worker threads (campaigns measure each layout from power-on state, so
 * there is no cross-layout coupling). The design goals, in order:
 *
 *  1. **Determinism.** Results must be byte-identical to the serial
 *     path regardless of scheduling. The helpers therefore never hand
 *     out work dynamically: parallelForChunks() splits [0, n) into at
 *     most workers() contiguous chunks up front (work-stealing-free),
 *     callers write results into position-indexed slots, and the
 *     iteration order *within* a chunk is ascending, so any per-chunk
 *     state (an owned Machine, say) sees the same sequence it would
 *     see serially.
 *  2. **Shared-immutable / owned-mutable split.** Tasks may read
 *     anything immutable (Program, Trace, configs) and must own every
 *     piece of mutable state they touch. The pool adds no hidden
 *     shared state of its own beyond the task queue.
 *  3. **Exceptions propagate.** A throwing task never takes down a
 *     worker: the helpers capture per-chunk exceptions and rethrow the
 *     lowest-indexed one on the calling thread after the batch drains,
 *     which again keeps error behaviour scheduling-independent.
 */

#ifndef INTERF_EXEC_THREADPOOL_HH
#define INTERF_EXEC_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace interf::exec
{

/**
 * A fixed-size pool of worker threads draining one FIFO task queue.
 *
 * Workers are spawned in the constructor and joined in the destructor;
 * there is no work stealing and no resizing. Intended usage is
 * batch-at-a-time: submit() a batch, then wait() for it to drain. The
 * pool itself is thread-compatible, not thread-safe to *wait on* from
 * several threads at once — give each concurrent batch its own pool.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Number of worker threads; 0 means one per
     *        hardware thread (hardwareWorkers()).
     */
    explicit ThreadPool(u32 workers = 0);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (>= 1). */
    u32 workers() const { return static_cast<u32>(threads_.size()); }

    /**
     * Enqueue one task. Tasks must not throw out of the pool — wrap
     * bodies that can throw (the parallelFor helpers do this for you).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

    /** Hardware concurrency, clamped to at least 1. */
    static u32 hardwareWorkers();

    /** Resolve a jobs knob: 0 -> hardwareWorkers(), else the value. */
    static u32 resolveJobs(u32 jobs);

  private:
    void workerLoop(u32 index);

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    size_t inFlight_ = 0; ///< Queued + currently-running tasks.
    bool stop_ = false;
};

/**
 * Run body(begin, end) over a static partition of [0, n) — at most
 * pool.workers() contiguous chunks, sizes differing by at most one.
 *
 * The chunk boundaries depend only on (n, pool.workers()), never on
 * scheduling, so per-chunk state is deterministic. With one chunk (or
 * n <= 1) the body runs inline on the calling thread. Rethrows the
 * lowest-chunk-index exception after all chunks finish.
 */
void parallelForChunks(ThreadPool &pool, size_t n,
                       const std::function<void(size_t, size_t)> &body);

/** Run body(i) for every i in [0, n) via parallelForChunks. */
void parallelFor(ThreadPool &pool, size_t n,
                 const std::function<void(size_t)> &body);

} // namespace interf::exec

#endif // INTERF_EXEC_THREADPOOL_HH
