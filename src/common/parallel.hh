/**
 * @file
 * Data-parallel helpers for host-side state-vector passes: an index
 * range split across the persistent process-wide thread pool (see
 * common/thread_pool.hh). This is the OpenMP-style parallelism of the
 * CPU comparators, kept dependency-free.
 *
 * Thread-count resolution, in priority order:
 *  1. setSimThreads(k) - explicit programmatic override;
 *  2. the QGPU_SIM_THREADS environment variable, read once on first
 *     use (honored by qgpu_sim, the harness, and every bench binary);
 *  3. the default of 1 (sequential, deterministic-by-default).
 * A value of 0 in either channel means "all hardware threads".
 *
 * Two dispatch guards keep small or oversubscribed work off the pool
 * (fan-out costs real microseconds; a range whose total work is
 * smaller than that is faster inline, and more workers than hardware
 * threads only adds scheduler churn):
 *  - requests above the hardware thread count are clamped to it
 *    (results are bit-identical at any worker count, so clamping is
 *    purely a performance decision);
 *  - callers that know their per-item cost pass @c cost_hint, and the
 *    range runs inline when (end - begin) * cost_hint falls under the
 *    small-work cutoff, in amplitude-update units: the
 *    QGPU_PAR_CUTOFF environment variable, read once on first use,
 *    default 16384, <= 0 disables it. A zero hint (the default) skips
 *    the cutoff, so sites with unknown item cost keep the old
 *    behavior.
 */

#ifndef QGPU_COMMON_PARALLEL_HH
#define QGPU_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace qgpu
{

/**
 * Run @p body over [begin, end) split into contiguous sub-ranges
 * executed concurrently on the shared thread pool. @p threads <= 1
 * (or a range smaller than @p min_grain, or estimated total work
 * @c (end - begin) * cost_hint under the small-work cutoff when
 * @p cost_hint > 0) runs inline on the calling thread. Requests above
 * the hardware thread count are clamped to it.
 *
 * If a body invocation throws, every other sub-range still runs to
 * completion and the first exception is rethrown on the calling
 * thread. Safe to call concurrently from several threads and to nest
 * (a pool task may itself call parallelFor).
 *
 * @param body callable taking (range_begin, range_end).
 * @param cost_hint estimated work per index in amplitude-update
 *        units; 0 means unknown (no small-work cutoff).
 */
void parallelFor(std::uint64_t begin, std::uint64_t end, int threads,
                 const std::function<void(std::uint64_t,
                                          std::uint64_t)> &body,
                 std::uint64_t min_grain = 1024,
                 double cost_hint = 0.0);

/**
 * Worker count used by the hot paths (flat apply, chunked group
 * fan-out, sweep executor, GFC codec). Defaults to 1 unless
 * QGPU_SIM_THREADS is set.
 */
int simThreads();

/**
 * Set the worker count for subsequent host-side passes. 0 resolves
 * to the hardware thread count; values outside [0, 256] are fatal.
 */
void setSimThreads(int threads);

} // namespace qgpu

#endif // QGPU_COMMON_PARALLEL_HH
