#include "service/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "circuits/circuits.hh"
#include "common/logging.hh"
#include "engine/batched.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "harness/experiment.hh"
#include "qc/canonical.hh"
#include "qc/qasm.hh"
#include "statevec/measure.hh"

namespace qgpu
{
namespace service
{

namespace
{

/** Service-relative wall clock (one epoch per process). */
const WallClock &
serviceClock()
{
    static const WallClock clock;
    return clock;
}

std::optional<DeviceSpec>
presetByName(const std::string &name)
{
    if (name == "p100")
        return machines::p100();
    if (name == "v100")
        return machines::v100Pcie();
    if (name == "v100nvl")
        return machines::v100Nvlink();
    if (name == "a100")
        return machines::a100();
    if (name == "p4")
        return machines::p4();
    return std::nullopt;
}

bool
knownEngine(const std::string &name)
{
    static const std::vector<std::string> engines = {
        "baseline", "naive", "overlap", "pruning", "reorder",
        "qgpu",     "cpu",   "qsim",    "qdk",
    };
    return std::find(engines.begin(), engines.end(), name) !=
           engines.end();
}

bool
knownFamily(const std::string &name)
{
    const auto &names = circuits::benchmarkNames();
    return name == "grqc" ||
           std::find(names.begin(), names.end(), name) !=
               names.end();
}

Circuit
fromQasmChecked(const std::string &text, std::string &reject)
{
    // fromQasm is fatal on malformed programs (it serves trusted
    // tooling); the service validates just enough up front to turn
    // garbage into a structured rejection instead of process exit.
    if (text.find("OPENQASM") == std::string::npos) {
        reject = "qasm program missing OPENQASM header";
        return Circuit{1};
    }
    return fromQasm(text);
}

/** Modeled cost used for the small/large fairness classes. */
double
jobCost(const Circuit &circuit)
{
    return std::ldexp(1.0, circuit.numQubits()) *
           static_cast<double>(circuit.numGates());
}

} // namespace

JobService::JobService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cacheBytes, config_.cacheShards),
      paused_(config_.startPaused)
{
    if (!presetByName(config_.gpu))
        QGPU_FATAL("unknown GPU preset '", config_.gpu, "'");
    const int workers = config_.hostThreads > 0
                            ? config_.hostThreads
                            : ThreadPool::hardwareThreads();
    // At least maxActiveJobs workers, else a lone worker running a
    // job would leave other dispatched jobs queued behind it.
    ThreadPool::global().ensureWorkers(
        std::max(workers, config_.maxActiveJobs));
    serviceClock(); // pin the epoch to service construction
}

JobService::~JobService()
{
    resume();
    drain();
}

std::uint64_t
JobService::submit(const JobRequest &request)
{
    auto job = std::make_shared<Job>();
    job->request = request;

    // Everything up to the queue decision happens on the caller's
    // thread: circuit construction and hashing are cheap relative to
    // simulation, and doing them here means the mutex only guards
    // queue/cache bookkeeping.
    std::string reject;
    if (!request.circuit.qasm.empty()) {
        job->circuit = canonicalCircuit(
            fromQasmChecked(request.circuit.qasm, reject));
    } else if (!knownFamily(request.circuit.family)) {
        reject = "unknown circuit family '" +
                 request.circuit.family + "'";
    } else if (request.circuit.qubits < 1 ||
               request.circuit.qubits > 40) {
        reject = "qubit count out of range";
    } else {
        job->circuit = canonicalCircuit(request.circuit.build());
    }
    if (reject.empty() && !knownEngine(request.engine))
        reject = "unknown engine '" + request.engine + "'";
    // Noise admission: the spec folds into the simulation key, so it
    // must be self-contained ("env" would make identity depend on
    // the service's environment), and a noisy job with no shots has
    // nothing to sample.
    if (reject.empty() && request.noiseSpec == "env")
        reject = "noise spec 'env' is environment-dependent; "
                 "submit the resolved spec string";
    if (reject.empty() && request.noiseArmed() &&
        request.shots == 0)
        reject = "noisy jobs need shots > 0";

    std::lock_guard<std::mutex> lock(mutex_);
    job->id = nextId_++;
    job->result.id = job->id;
    job->result.tenant = request.tenant;
    job->result.submitSeconds = serviceClock().seconds();
    jobs_.emplace(job->id, job);
    bumpLocked("service.submitted");

    if (!reject.empty()) {
        job->result.status = JobStatus::Rejected;
        job->result.error = SimError{};
        job->result.error->detail = reject;
        job->result.doneSeconds = job->result.submitSeconds;
        bumpLocked("service.rejected");
        terminal_.notify_all();
        return job->id;
    }

    job->key = simulationKey(request, job->circuit);
    job->result.key = job->key;
    job->cacheable = !request.faultsArmed();
    job->small = jobCost(job->circuit) <= config_.smallCostThreshold;

    if (job->cacheable) {
        if (const auto sim = cache_.lookup(job->key)) {
            // Hit: resolve on the spot; no queue slot, no run.
            fillFromSim(request, job->result, *sim);
            job->result.status = JobStatus::Done;
            job->result.cacheHit = true;
            job->result.startSeconds = job->result.submitSeconds;
            job->result.doneSeconds = serviceClock().seconds();
            job->result.dispatchIndex = nextDispatch_++;
            bumpLocked("service.cache.hit");
            bumpLocked("service.completed");
            terminal_.notify_all();
            return job->id;
        }
        bumpLocked("service.cache.miss");
        if (const auto it = inflight_.find(job->key);
            it != inflight_.end()) {
            // Single-flight: ride the identical queued/running job.
            it->second->followers.push_back(job->id);
            bumpLocked("service.singleflight.coalesced");
            return job->id;
        }
        inflight_.emplace(job->key, job);
    }

    const int depth = queueDepthLocked();
    if (depth >= config_.maxQueueDepth) {
        if (job->cacheable)
            inflight_.erase(job->key);
        job->result.status = JobStatus::Rejected;
        job->result.error = SimError{};
        job->result.error->detail =
            "queue full (" + std::to_string(depth) + "/" +
            std::to_string(config_.maxQueueDepth) + ")";
        job->result.doneSeconds = serviceClock().seconds();
        bumpLocked("service.rejected");
        terminal_.notify_all();
        return job->id;
    }

    (job->small ? smallQueue_ : largeQueue_).push_back(job);
    bumpLocked("service.queue_depth", 1.0);
    pumpLocked();
    return job->id;
}

int
JobService::queueDepthLocked() const
{
    return static_cast<int>(smallQueue_.size() +
                            largeQueue_.size());
}

JobService::JobPtr
JobService::takeNextLocked()
{
    const auto liveFollowers = [this](const JobPtr &job) {
        for (const std::uint64_t id : job->followers) {
            const auto it = jobs_.find(id);
            if (it != jobs_.end() &&
                it->second->result.status == JobStatus::Queued)
                return true;
        }
        return false;
    };
    const auto popDead = [&](std::deque<JobPtr> &queue) {
        // Skip jobs cancelled while queued (kept in the queue when
        // live followers still need the simulation).
        while (!queue.empty() &&
               queue.front()->result.status ==
                   JobStatus::Cancelled &&
               !liveFollowers(queue.front())) {
            if (queue.front()->cacheable)
                inflight_.erase(queue.front()->key);
            queue.pop_front();
            bumpLocked("service.queue_depth", -1.0);
        }
    };
    popDead(smallQueue_);
    popDead(largeQueue_);

    const bool haveSmall = !smallQueue_.empty();
    const bool haveLarge = !largeQueue_.empty();
    if (!haveSmall && !haveLarge)
        return nullptr;

    bool takeSmall;
    if (haveSmall && haveLarge) {
        // Fair share: up to fairShareSmallBurst smalls, then one
        // large. Burst 0 means strict FIFO by submission id.
        if (config_.fairShareSmallBurst <= 0)
            takeSmall =
                smallQueue_.front()->id < largeQueue_.front()->id;
        else
            takeSmall = burstUsed_ < config_.fairShareSmallBurst;
    } else {
        takeSmall = haveSmall;
    }

    auto &queue = takeSmall ? smallQueue_ : largeQueue_;
    JobPtr job = queue.front();
    queue.pop_front();
    bumpLocked("service.queue_depth", -1.0);
    if (config_.fairShareSmallBurst > 0)
        burstUsed_ = takeSmall ? burstUsed_ + 1 : 0;
    return job;
}

void
JobService::pumpLocked()
{
    while (!paused_ && active_ < config_.maxActiveJobs) {
        JobPtr job = takeNextLocked();
        if (!job)
            break;
        ++active_;
        job->result.dispatchIndex = nextDispatch_++;
        job->result.startSeconds = serviceClock().seconds();
        if (job->result.status == JobStatus::Queued)
            job->result.status = JobStatus::Running;
        ThreadPool::global().submit(
            [this, job] { execute(job); });
    }
}

void
JobService::execute(const JobPtr &job)
{
    const JobRequest &request = job->request;
    ExecOptions options = harness::benchOptions();
    options.keepState = true; // state feeds the cache and sampling
    options.precision = request.precision;
    options.adaptiveThreshold = request.adaptiveThreshold;
    options.fastMath = request.fastMath;
    options.faultSpec =
        request.faultsArmed() ? request.faultSpec : "none";
    options.faultSeed = request.faultSeed;

    Machine machine = machines::makeScaled(
        job->circuit.numQubits(), *presetByName(config_.gpu),
        config_.deviceFraction, config_.devices);

    if (request.noiseArmed()) {
        // Noisy batched job: run shot trajectories through
        // runBatched. The simulation key pins (canonical circuit,
        // noise spec, shots, shot seed), and the draw-path
        // determinism contract (engine/batched.hh) makes the counts
        // a pure function of that key — so the aggregated counts
        // are what gets cached, returned verbatim on every hit.
        options.keepState = false;
        options.noiseSpec = request.noiseSpec;
        options.shotSeed = request.shotSeed;
        const auto engine = harness::makeEngine(
            request.engine, machine, options);
        BatchResult batch =
            engine->runBatched(job->circuit, request.shots);
        std::shared_ptr<const CachedSim> sim;
        if (batch.ok()) {
            auto owned = std::make_shared<CachedSim>();
            owned->key = job->key;
            owned->engine = batch.engine;
            owned->noisy = true;
            owned->counts = std::move(batch.counts);
            owned->norm = 1.0;
            sim = std::move(owned);
        } else {
            job->result.error = batch.error;
            job->result.engine = batch.engine;
        }
        complete(job, std::move(sim));
        return;
    }

    // The canonical form IS what runs: hash-equal jobs execute the
    // exact same gate stream, which is what makes cached states
    // bit-identical to fresh runs (see qc/canonical.hh).
    RunResult run = harness::runOn(request.engine, machine,
                                   job->circuit, options);

    std::shared_ptr<const CachedSim> sim;
    if (run.ok()) {
        auto owned = std::make_shared<CachedSim>();
        owned->key = job->key;
        owned->engine = run.engine;
        owned->state = std::move(run.state);
        owned->totalVTime = run.totalTime;
        owned->norm = owned->state.norm();
        sim = std::move(owned);
    } else {
        job->result.error = run.error;
        job->result.engine = run.engine;
        job->result.totalVTime = run.totalTime;
    }
    complete(job, std::move(sim));
}

void
JobService::complete(const JobPtr &job,
                     std::shared_ptr<const CachedSim> sim)
{
    // Sampling for the leader happens outside the mutex; follower
    // sampling below is O(shots) under the lock only for coalesced
    // jobs, which is fine at service scale (sampling is post-hoc and
    // cheap next to simulation).
    const bool cancelled =
        job->result.status == JobStatus::Cancelled;
    if (sim && !cancelled)
        fillFromSim(job->request, job->result, *sim);

    std::lock_guard<std::mutex> lock(mutex_);
    const double now = serviceClock().seconds();
    if (!cancelled) {
        job->result.status =
            sim ? JobStatus::Done : JobStatus::Failed;
        job->result.doneSeconds = now;
        bumpLocked(sim ? "service.completed" : "service.failed");
    }
    for (const std::uint64_t id : job->followers) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            continue;
        const JobPtr &follower = it->second;
        if (follower->result.status != JobStatus::Queued)
            continue; // cancelled while coalesced
        if (sim) {
            fillFromSim(follower->request, follower->result, *sim);
            follower->result.status = JobStatus::Done;
        } else {
            follower->result.status = JobStatus::Failed;
            follower->result.error = job->result.error;
            follower->result.engine = job->result.engine;
        }
        follower->result.coalesced = true;
        follower->result.startSeconds = job->result.startSeconds;
        follower->result.doneSeconds = now;
        follower->result.dispatchIndex = nextDispatch_++;
        bumpLocked(sim ? "service.completed" : "service.failed");
    }
    if (job->cacheable) {
        inflight_.erase(job->key);
        if (sim)
            cache_.insert(std::move(sim));
    }
    --active_;
    pumpLocked();
    terminal_.notify_all();
}

void
JobService::fillFromSim(const JobRequest &request,
                        JobResult &result,
                        const CachedSim &sim) const
{
    result.engine = sim.engine;
    result.totalVTime = sim.totalVTime;
    result.norm = sim.norm;
    if (sim.noisy) {
        // The cached counts ARE the result of a noisy batch — the
        // shot seed is part of the key, so every hit must see the
        // exact same counts, never a resample.
        result.counts = sim.counts;
    } else if (request.shots > 0) {
        Rng rng(request.seed);
        result.counts = sampleCounts(sim.state, request.shots, rng);
    }
}

std::shared_ptr<const CachedSim>
JobService::cachedFor(const JobRequest &request)
{
    if (request.faultsArmed())
        return nullptr;
    const Circuit canon = canonicalCircuit(request.circuit.build());
    return cache_.lookup(simulationKey(request, canon));
}

bool
JobService::cancel(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    const JobPtr &job = it->second;
    if (job->result.status != JobStatus::Queued)
        return false;
    // Queued leaders stay in their queue when followers still need
    // the simulation (takeNextLocked skips dead entries); followers
    // are simply skipped at fan-out.
    job->result.status = JobStatus::Cancelled;
    job->result.doneSeconds = serviceClock().seconds();
    bumpLocked("service.cancelled");
    terminal_.notify_all();
    return true;
}

JobResult
JobService::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        QGPU_FATAL("wait on unknown job id ", id);
    const JobPtr job = it->second;
    terminal_.wait(lock, [&] {
        return jobStatusTerminal(job->result.status);
    });
    return job->result;
}

void
JobService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    terminal_.wait(lock, [&] {
        return active_ == 0 && (paused_ || (smallQueue_.empty() &&
                                            largeQueue_.empty()));
    });
}

JobResult
JobService::result(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        QGPU_FATAL("result for unknown job id ", id);
    return it->second->result;
}

void
JobService::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void
JobService::resume()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    pumpLocked();
}

int
JobService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queueDepthLocked();
}

std::uint64_t
JobService::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
JobService::bumpLocked(const std::string &name, double delta)
{
    // queue_depth is the one gauge: +1/-1. Everything else is a
    // monotonic count.
    if (delta >= 0.0)
        counters_[name] +=
            static_cast<std::uint64_t>(delta);
    else
        counters_[name] -=
            static_cast<std::uint64_t>(-delta);
    MetricsRegistry::global().add(name, delta);
}

} // namespace service
} // namespace qgpu
