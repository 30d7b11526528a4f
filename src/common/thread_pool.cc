#include "common/thread_pool.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace qgpu
{

ThreadPool::ThreadPool(int workers)
{
    if (workers < 0 || workers > kMaxWorkers)
        QGPU_PANIC("bad worker count ", workers);
    ensureWorkers(workers);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
ThreadPool::numWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size());
}

void
ThreadPool::ensureWorkers(int workers)
{
    workers = std::min(workers, kMaxWorkers);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
        QGPU_PANIC("ensureWorkers on a stopping pool");
    while (static_cast<int>(workers_.size()) < workers)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            QGPU_PANIC("submit on a stopping pool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

bool
ThreadPool::helpRunOneTask()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task(); // exceptions are caught by the TaskGroup wrapper
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

ThreadPool &
ThreadPool::global()
{
    // Workers are added lazily by call sites (parallelFor grows the
    // pool to its request); the pool itself lives until exit.
    static ThreadPool pool(0);
    return pool;
}

int
ThreadPool::hardwareThreads()
{
    // Probed once: hardware_concurrency() reads sysfs on every call,
    // and parallelFor asks on every dispatch.
    static const int threads = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : static_cast<int>(n);
    }();
    return threads;
}

TaskGroup::TaskGroup(ThreadPool &pool) : pool_(pool)
{
}

TaskGroup::~TaskGroup()
{
    waitNoThrow();
}

void
TaskGroup::run(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_.submit([this, task = std::move(task)] {
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && !firstError_)
            firstError_ = error;
        if (--pending_ == 0)
            done_.notify_all();
    });
}

void
TaskGroup::waitNoThrow()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (pending_ == 0)
                return;
        }
        // Donate this thread to the pool. The task run may belong to
        // another group; that still makes progress towards ours
        // (workers freed up) and keeps nested loops deadlock-free.
        if (pool_.helpRunOneTask())
            continue;
        std::unique_lock<std::mutex> lock(mutex_);
        // Tasks of this group are either queued (handled above) or
        // running on workers; sleep until one completes. Re-check the
        // queue on wake via the loop.
        done_.wait(lock, [this] { return pending_ == 0; });
        return;
    }
}

void
TaskGroup::wait()
{
    waitNoThrow();
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        error = std::exchange(firstError_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace qgpu
