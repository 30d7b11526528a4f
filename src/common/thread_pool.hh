/**
 * @file
 * Persistent host work pool behind every data-parallel loop in the
 * simulator. One process-wide pool owns long-lived worker threads and
 * a FIFO task queue; parallel loops submit closures through a
 * TaskGroup and wait for just their own tasks. This replaces the old
 * spawn-and-join parallelFor body: thread creation is paid once, not
 * per gate.
 *
 * Exception contract: a task that throws never terminates the
 * process. The first exception raised within a TaskGroup is captured,
 * every remaining task still runs to completion, and the exception is
 * rethrown on the thread that calls TaskGroup::wait().
 *
 * Nesting: wait() lends the calling thread to the pool (it drains
 * queued tasks while waiting), so a pool task may itself run a nested
 * parallel loop without deadlocking, even on a single-worker pool.
 */

#ifndef QGPU_COMMON_THREAD_POOL_HH
#define QGPU_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qgpu
{

/**
 * Fixed-queue thread pool. Workers are started on demand (grow-only)
 * and joined on destruction. Tasks are plain closures; completion and
 * exception tracking live in TaskGroup so that independent loops can
 * share the pool without waiting on each other's work.
 */
class ThreadPool
{
  public:
    /** Upper bound on workers, matching setSimThreads' range. */
    static constexpr int kMaxWorkers = 256;

    /** @param workers initial worker threads (0 is a valid pool:
     *  tasks then run only via helpRunOneTask / TaskGroup::wait). */
    explicit ThreadPool(int workers = 0);

    /** Drains nothing: outstanding tasks must be waited on by their
     *  TaskGroup before the pool dies. Joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Current worker-thread count. */
    int numWorkers() const;

    /** Grow the pool to at least @p workers threads (capped at
     *  kMaxWorkers; never shrinks). */
    void ensureWorkers(int workers);

    /** Enqueue @p task for execution by any worker. */
    void submit(std::function<void()> task);

    /**
     * Run one queued task on the calling thread, if any is queued.
     * Returns false when the queue was empty. This is how waiting
     * threads donate their cycles to the pool.
     */
    bool helpRunOneTask();

    /**
     * The process-wide pool shared by parallelFor, the chunked apply
     * fan-out, and the GFC codec. Created on first use; sized lazily
     * by ensureWorkers from each call site's thread request.
     */
    static ThreadPool &global();

    /** max(1, std::thread::hardware_concurrency()), probed once per
     *  process (the probe is a sysfs read). */
    static int hardwareThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

/**
 * Completion scope for a batch of pool tasks. run() submits, wait()
 * blocks (helping the pool) until every task submitted through THIS
 * group finished, then rethrows the first captured exception.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool = ThreadPool::global());

    /** Waits for outstanding tasks; never throws (errors are dropped
     *  if wait() was not called). */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit @p task to the pool under this group. */
    void run(std::function<void()> task);

    /**
     * Block until every task run() through this group completed,
     * executing queued pool tasks on this thread while waiting. If
     * any task threw, rethrows the first exception afterwards.
     */
    void wait();

  private:
    void waitNoThrow();

    ThreadPool &pool_;
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t pending_ = 0;
    std::exception_ptr firstError_;
};

} // namespace qgpu

#endif // QGPU_COMMON_THREAD_POOL_HH
