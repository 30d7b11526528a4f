#include "common/parallel.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace qgpu
{

namespace
{

int
resolveThreads(int threads)
{
    return threads == 0 ? ThreadPool::hardwareThreads() : threads;
}

int
initialSimThreads()
{
    const char *env = std::getenv("QGPU_SIM_THREADS");
    if (!env || !*env)
        return 1;
    const int value = std::atoi(env);
    if (value < 0 || value > ThreadPool::kMaxWorkers) {
        QGPU_WARN("ignoring QGPU_SIM_THREADS='", env,
                  "' (want 0..", ThreadPool::kMaxWorkers, ")");
        return 1;
    }
    return resolveThreads(value);
}

int &
simThreadsRef()
{
    static int threads = initialSimThreads();
    return threads;
}

double
initialParallelCutoff()
{
    const char *env = std::getenv("QGPU_PAR_CUTOFF");
    if (!env || !*env)
        return 16384.0;
    char *tail = nullptr;
    const double value = std::strtod(env, &tail);
    if (tail == env) {
        QGPU_WARN("ignoring QGPU_PAR_CUTOFF='", env,
                  "' (want a number; <= 0 disables the cutoff)");
        return 16384.0;
    }
    return value;
}

/** The small-work cutoff, read once from QGPU_PAR_CUTOFF. */
double
parallelCutoff()
{
    static const double cutoff = initialParallelCutoff();
    return cutoff;
}

} // namespace

void
parallelFor(std::uint64_t begin, std::uint64_t end, int threads,
            const std::function<void(std::uint64_t, std::uint64_t)>
                &body,
            std::uint64_t min_grain, double cost_hint)
{
    if (begin >= end)
        return;
    const std::uint64_t count = end - begin;
    // Oversubscription clamp: extra workers past the hardware thread
    // count only add scheduling churn; results don't depend on the
    // worker count, so this is purely a dispatch decision.
    if (threads > ThreadPool::hardwareThreads())
        threads = ThreadPool::hardwareThreads();
    // Small-work cutoff for callers that know their per-item cost:
    // fan-out latency dominates ranges whose total estimated work is
    // under the cutoff, so run those inline.
    if (cost_hint > 0.0) {
        const double cutoff = parallelCutoff();
        if (cutoff > 0.0 &&
            static_cast<double>(count) * cost_hint < cutoff) {
            body(begin, end);
            return;
        }
    }
    const int usable = std::min<std::uint64_t>(
        threads <= 1 ? 1 : threads,
        std::max<std::uint64_t>(1, count / std::max<std::uint64_t>(
                                           1, min_grain)));
    if (usable <= 1) {
        body(begin, end);
        return;
    }

    auto &pool = ThreadPool::global();
    pool.ensureWorkers(usable - 1);
    const std::uint64_t per =
        (count + static_cast<std::uint64_t>(usable) - 1) /
        static_cast<std::uint64_t>(usable);
    TaskGroup group(pool);
    for (int w = 0; w < usable; ++w) {
        const std::uint64_t lo =
            begin + per * static_cast<std::uint64_t>(w);
        const std::uint64_t hi = std::min(end, lo + per);
        if (lo >= hi)
            break;
        group.run([&body, lo, hi] { body(lo, hi); });
    }
    // The calling thread drains queued sub-ranges itself, so the
    // first range typically runs right here, as before the pool.
    group.wait();
}

int
simThreads()
{
    return simThreadsRef();
}

void
setSimThreads(int threads)
{
    if (threads < 0 || threads > ThreadPool::kMaxWorkers)
        QGPU_FATAL("bad thread count ", threads);
    simThreadsRef() = resolveThreads(threads);
}

} // namespace qgpu
