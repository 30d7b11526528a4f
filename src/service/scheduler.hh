/**
 * @file
 * JobService: the multi-tenant front end that multiplexes concurrent
 * simulation jobs onto the shared process-wide ThreadPool.
 *
 * Flow of one submission:
 *
 *   submit(request)
 *     |- admission: reject on invalid request or a full queue
 *     |  (maxQueueDepth) -> JobStatus::Rejected
 *     |- cache lookup (cacheable jobs): hit -> JobStatus::Done
 *     |  immediately, no queue slot, no engine run
 *     |- single-flight: an identical cacheable job already queued or
 *     |  running -> attach as follower; the leader's completion fans
 *     |  the shared result out (counted service.singleflight.coalesced)
 *     '- otherwise enqueue (small or large class) and pump
 *
 * Dispatch ("pump") runs under the service mutex whenever a slot
 * frees or work arrives; it never blocks. Up to maxActiveJobs jobs
 * run concurrently, each as one ThreadPool task that builds its own
 * Machine and engine, so jobs share worker threads with the
 * data-parallel loops inside each engine (the pool's help-based
 * waiting keeps that nesting deadlock-free).
 *
 * Fairness: jobs are classed small/large by modeled cost
 * (2^qubits * gates vs smallCostThreshold). The dispatcher
 * alternates up to fairShareSmallBurst small jobs, then one large
 * job, whenever both classes are waiting — so a tenant streaming
 * 30-qubit monsters cannot starve interactive 10-qubit traffic,
 * while the burst bound keeps large jobs from starving in turn.
 * fairShareSmallBurst = 0 degenerates to strict FIFO.
 *
 * Determinism: results are bit-identical regardless of concurrency,
 * because thread count, device count, and storage backend do not
 * affect amplitudes (PRs 2/6/8) and every job executes the canonical
 * circuit form (qc/canonical.hh). The kernel tier is a per-run value
 * taken from JobRequest::fastMath (and part of the simulation key),
 * so exact and fast jobs run side by side in one service.
 *
 * Counters (mirrored into MetricsRegistry::global(), see
 * common/metrics.hh): service.submitted, service.rejected,
 * service.completed, service.failed, service.cancelled,
 * service.cache.hit, service.cache.miss,
 * service.singleflight.coalesced, service.queue_depth (gauge-like:
 * add +1/-1).
 */

#ifndef QGPU_SERVICE_SCHEDULER_HH
#define QGPU_SERVICE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/job.hh"
#include "service/result_cache.hh"
#include "sim/machine.hh"

namespace qgpu
{
namespace service
{

/** Service-wide configuration (scheduling-only; never keyed). */
struct ServiceConfig
{
    /** GPU preset name for per-job machines ("p100", "v100",
     *  "v100nvl", "a100", "p4"). */
    std::string gpu = "p100";
    /** Device-memory fraction of the state (makeScaled). */
    double deviceFraction = 1.0 / 16.0;
    /** Simulated devices per job. */
    int devices = 1;
    /** Host worker threads (ThreadPool::global() is grown to this). */
    int hostThreads = 0; ///< 0 = hardware concurrency
    /** Queued-job bound; submissions beyond it are Rejected. */
    int maxQueueDepth = 256;
    /** Concurrently running jobs. */
    int maxActiveJobs = 2;
    /** Small jobs dispatched per large job when both wait (0 = FIFO). */
    int fairShareSmallBurst = 4;
    /** Small/large class boundary on modeled cost 2^qubits * gates. */
    double smallCostThreshold = 1.0e9;
    /** Result-cache budget in bytes (0 disables the cache). */
    std::size_t cacheBytes = std::size_t{512} << 20;
    int cacheShards = 8;
    /** Start with dispatch paused (tests: queue, then resume()). */
    bool startPaused = false;
};

/**
 * The job service. Thread-safe: submit/cancel/wait/result may be
 * called concurrently from any thread.
 */
class JobService
{
  public:
    explicit JobService(ServiceConfig config = {});

    /** Drains all outstanding work before destruction. */
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /**
     * Submit one job. Always returns a job id; inspect result(id)
     * for Rejected / immediate cache-hit Done. Never blocks on
     * simulation work.
     */
    std::uint64_t submit(const JobRequest &request);

    /**
     * Cancel a queued job. Returns true when the job was still
     * queued (it becomes Cancelled and never runs); false when it
     * already started, finished, or never existed. Followers of an
     * in-flight leader can be cancelled while the leader runs.
     */
    bool cancel(std::uint64_t id);

    /** Block until job @p id reaches a terminal status. */
    JobResult wait(std::uint64_t id);

    /** Block until every submitted job is terminal. */
    void drain();

    /** Snapshot of a job's current result (terminal or not). */
    JobResult result(std::uint64_t id);

    /** Stop dispatching new jobs (running jobs finish). */
    void pause();

    /** Resume dispatching. */
    void resume();

    /** Currently queued (not yet dispatched) jobs. */
    int queueDepth() const;

    const ServiceConfig &config() const { return config_; }

    ResultCacheStats cacheStats() const { return cache_.stats(); }

    /**
     * The cache entry @p request would hit, or nullptr. Introspection
     * for tests and tooling: this is how the differential suite
     * checks a cached state bitwise against a fresh engine run.
     * Counts a cache hit/miss like any lookup.
     */
    std::shared_ptr<const CachedSim>
    cachedFor(const JobRequest &request);

    /** Monotonic counters, keyed as in the file doc block. */
    std::uint64_t counter(const std::string &name) const;

  private:
    struct Job
    {
        std::uint64_t id = 0;
        JobRequest request;
        Circuit circuit{1};
        std::uint64_t key = 0;
        bool cacheable = false;
        bool small = false;
        JobResult result;
        /** Followers coalesced onto this leader (ids). */
        std::vector<std::uint64_t> followers;
    };

    using JobPtr = std::shared_ptr<Job>;

    /** Dispatch queued jobs while slots are free (mutex held). */
    void pumpLocked();

    int queueDepthLocked() const;

    /** Pick the next job honoring the fair-share policy (mutex
     *  held); null when both queues are empty. */
    JobPtr takeNextLocked();

    /** Run one job on the calling pool thread (no service mutex). */
    void execute(const JobPtr &job);

    /** Leader finished: fan out to followers, cache, free the slot
     *  (takes the mutex). */
    void complete(const JobPtr &job,
                  std::shared_ptr<const CachedSim> sim);

    /** Fill @p result from @p sim + per-job sampling (no mutex). */
    void fillFromSim(const JobRequest &request, JobResult &result,
                     const CachedSim &sim) const;

    void bumpLocked(const std::string &name, double delta = 1.0);

    ServiceConfig config_;
    ResultCache cache_;

    mutable std::mutex mutex_;
    std::condition_variable terminal_; ///< job reached terminal state
    std::uint64_t nextId_ = 1;
    std::uint64_t nextDispatch_ = 1;
    bool paused_ = false;
    int active_ = 0;
    int burstUsed_ = 0; ///< small jobs dispatched since last large
    std::deque<JobPtr> smallQueue_;
    std::deque<JobPtr> largeQueue_;
    std::unordered_map<std::uint64_t, JobPtr> jobs_;
    /** Single-flight: simulation key -> leader job. */
    std::unordered_map<std::uint64_t, JobPtr> inflight_;
    std::unordered_map<std::string, std::uint64_t> counters_;
};

} // namespace service
} // namespace qgpu

#endif // QGPU_SERVICE_SCHEDULER_HH
