/**
 * @file
 * Process-wide metrics registry: named monotonic counters and value
 * histograms, thread-safe, with JSON and CSV exporters. Engines and
 * the harness publish per-run headline numbers here so long-lived
 * processes (sweeps, services) can report aggregates without keeping
 * every RunResult alive. Complements StatSet, which is per-run and
 * unsynchronized.
 *
 * Canonical names published by the harness:
 *   runs.total              counter, one per completed run
 *   runs.<engine>           counter, one per run of that engine
 *   run.total_time          histogram of virtual run times (s)
 *   run.bytes_h2d           histogram of host-to-device bytes
 *   run.bytes_d2h           histogram of device-to-host bytes
 *
 * Wall-clock histograms (real seconds, next to the virtual times, so
 * host-parallelism speedups are measurable in-process):
 *   run.wall_time           histogram of engine-run wall seconds
 *   apply.wall_time         histogram of per-gate chunked/flat apply
 *                           wall seconds
 *
 * Kernel-dispatch counters (statevec/kernel_dispatch.hh), one pair
 * per KernelKind name (diag1q, diag2q, diagk, perm1q, ctrl1q,
 * dense1q, dense2q, densek):
 *   kernel.<kind>.invocations  counter, one per gate application
 *   kernel.<kind>.amps         counter, amplitudes touched (recorded
 *                              once per gate per sweep with the full
 *                              modeled total, never per chunk)
 *
 * Sweep-executor counters (statevec/apply.hh, applySweepChunked; the
 * memory-traffic model is passes-over-the-state = sweeps, not gates):
 *   sweep.count             counter, one per executed sweep: the
 *                           full passes over the chunked state
 *   sweep.gates_per_sweep   histogram of gates batched per sweep
 *
 * Chunk-integrity counters (fault/integrity.hh; accumulated per run
 * in the StatSet and mirrored here by ExecutionEngine::run, nonzero
 * entries only):
 *   integrity.checksum.computed   chunk checksums recorded at
 *                                 compress/D2H time
 *   integrity.checksum.verified   successful H2D/decompress-time
 *                                 verifications
 *   integrity.checksum.mismatch   corruptions detected (and then
 *                                 recovered via the raw fallback)
 *   integrity.fallback.raw        chunks recovered from / degraded to
 *                                 their raw payload
 *   integrity.fault.<point>       injected faults per point (h2d,
 *                                 d2h, codec, alloc)
 *   integrity.retry.h2d / .d2h    transfer attempts repeated after an
 *                                 injected failure
 *   integrity.sim_error           runs ended by a structured SimError
 *   runs.failed                   runs whose RunResult carries an
 *                                 error (harness::publishRunMetrics)
 *
 * Chunk-storage counters (statevec/chunk_storage.hh; per-run gauges
 * and counters exported by exportStorageStats and mirrored here by
 * ExecutionEngine::run, nonzero entries only):
 *   storage.compressed_chunks   chunks in the cold backend at run end
 *   storage.evictions           working-set evictions performed
 *   storage.decompress_hits     accesses served by a resident slot
 *   storage.decompress_misses   accesses that decoded from cold
 *   storage.zero_fills          refills served by zero-filling
 *   storage.resident_bytes      decompressed working-set bytes
 *   storage.cold_bytes          compressed host bytes (cold chunks)
 *   storage.spill_bytes         scratch-file bytes (spill backend)
 *   storage.peak_host_bytes     high-water resident + cold bytes
 *   storage.verified            payload checksums verified on decode
 *   storage.retries             eviction-write verification retries
 *   storage.fallback_raw        evictions degraded to raw payloads
 *   storage.working_set         configured resident-chunk bound
 *
 * Batched-shot counters (engine/batched.hh; accumulated per batch in
 * BatchResult::stats and mirrored here by runBatched, nonzero entries
 * only):
 *   shots.total             shots executed across every batch
 *   shots.schedule_builds   shared sweep schedules built (one per
 *                           Shared-mode batch — the amortization)
 *   shots.plan_sweeps       sweeps in the shared plan
 *   shots.sweep_replays     sweep replays executed across all shots
 *   shots.sweep_splits      replays split mid-sweep by a sampled
 *                           error insertion
 *   noise.events            sampled error gates inserted
 *   noise.armed_sites       plan gate sites whose attached noise can
 *                           involve a new qubit (union-mask arming)
 *   noise.readout_flips     readout bit flips applied to outcomes
 *
 * Job-service counters (service/scheduler.hh; every JobService
 * mirrors its internal counters here, so a process hosting one
 * service reads them directly and a multi-service process reads
 * process-wide totals):
 *   service.submitted           jobs accepted past admission (any
 *                               outcome, including instant cache hits
 *                               and coalesced followers)
 *   service.rejected            submissions refused at admission
 *                               (invalid request or full queue)
 *   service.completed           jobs that reached Done
 *   service.failed              jobs that reached Failed (structured
 *                               SimError; never takes the process
 *                               down)
 *   service.cancelled           queued jobs cancelled before dispatch
 *   service.cache.hit           result-cache lookups that hit
 *   service.cache.miss          result-cache lookups that missed
 *   service.singleflight.coalesced
 *                               submissions attached to an identical
 *                               in-flight leader instead of running
 *   service.queue_depth         gauge via +-1 deltas: jobs currently
 *                               queued (not yet dispatched)
 *
 * Slot model. Every name owns one heap slot (CounterSlot or
 * HistogramSlot) created on first use and never freed or moved while
 * the registry lives; the slot is the metric's only storage. Updates
 * are relaxed atomics on the slot (fetch-add for counters and sums,
 * compare-exchange for histogram min/max), so they never take the
 * registry lock. The lock guards only the name -> slot maps: add() and
 * observe() by name take it shared to find the slot, and a first use
 * takes it exclusively to insert one. Hot paths resolve their slots
 * once (counterSlot / histogramSlot, typically into a function-local
 * static) and update them with no lookup at all: the kernel counters,
 * the sweep.* counters and apply.wall_time are recorded this way from
 * every worker of a shot fan-out at once.
 *
 * clear() zeroes every slot and hides it; it never erases one, so a
 * slot reference cached before clear() stays valid. A hidden name is
 * absent from counterNames(), histogramNames(), toJson() and toCsv()
 * until its next update. Resolving a slot does not count as an
 * update: a slot nobody has written is hidden too.
 */

#ifndef QGPU_COMMON_METRICS_HH
#define QGPU_COMMON_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace qgpu
{

/**
 * Monotonic wall-clock stopwatch, running from construction.
 * Complements the virtual VTime clocks: every hot path that got a
 * real parallel execution layer reports real seconds through one of
 * these into the wall-time histograms above.
 */
class WallClock
{
  public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last restart). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void restart() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Streaming summary of observed values (no sample retention). */
class Histogram
{
  public:
    void observe(double value);
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

  private:
    friend class HistogramSlot;

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Storage of one registry counter: a lock-free atomic sum. Obtained
 * from MetricsRegistry::counterSlot and valid for the registry's
 * lifetime. Cache-line aligned so hot slots updated from different
 * workers do not share a line.
 */
class alignas(64) CounterSlot
{
  public:
    void
    add(double delta = 1.0)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
        if (!visible_.load(std::memory_order_relaxed))
            visible_.store(true, std::memory_order_relaxed);
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    friend class MetricsRegistry;

    std::atomic<double> value_{0.0};
    std::atomic<bool> visible_{false};
};

/**
 * Storage of one registry histogram: count, sum, min and max as
 * separate atomics (a snapshot taken during concurrent observes may
 * mix values from before and after one of them). Obtained from
 * MetricsRegistry::histogramSlot; same lifetime and alignment as
 * CounterSlot.
 */
class alignas(64) HistogramSlot
{
  public:
    void observe(double value);

    /** The summary as a plain Histogram. */
    Histogram snapshot() const;

  private:
    friend class MetricsRegistry;

    /** Zero and hide (MetricsRegistry::clear). */
    void reset();

    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
    std::atomic<bool> visible_{false};
};

/**
 * Named counters and histograms in stable slots (see the slot model
 * above). Instances are independent (tests use their own); global()
 * is the process-wide registry.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &global();

    /** Add @p delta to counter @p name (created at zero). */
    void add(const std::string &name, double delta = 1.0);

    /** Value of counter @p name; zero if absent. */
    double counter(const std::string &name) const;

    /** Record @p value into histogram @p name (created empty). */
    void observe(const std::string &name, double value);

    /** Copy of histogram @p name; empty histogram if absent. */
    Histogram histogram(const std::string &name) const;

    /**
     * The slot of counter / histogram @p name, created hidden if
     * absent. The reference stays valid for the registry's lifetime,
     * across clear().
     */
    CounterSlot &counterSlot(const std::string &name);
    HistogramSlot &histogramSlot(const std::string &name);

    /** Names updated since creation or the last clear(), sorted. */
    std::vector<std::string> counterNames() const;
    std::vector<std::string> histogramNames() const;

    /** Zero and hide every counter and histogram (slots survive). */
    void clear();

    /** {"counters": {...}, "histograms": {name: {summary...}}}. */
    std::string toJson() const;

    /** kind,name,count,sum,min,max,mean rows (counters: count=1). */
    std::string toCsv() const;

  private:
    template <class Slot>
    using SlotMap = std::map<std::string, std::unique_ptr<Slot>>;

    template <class Slot>
    Slot &slot(SlotMap<Slot> &slots, const std::string &name);

    template <class Slot>
    const Slot *find(const SlotMap<Slot> &slots,
                     const std::string &name) const;

    /** Guards the maps' structure; slot contents are atomics. */
    mutable std::shared_mutex mutex_;
    SlotMap<CounterSlot> counters_;
    SlotMap<HistogramSlot> histograms_;
};

} // namespace qgpu

#endif // QGPU_COMMON_METRICS_HH
