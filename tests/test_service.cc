/**
 * @file
 * Job-service behavior: JSON round-trips, the job lifecycle,
 * admission control, exact and fast-math jobs sharing one service,
 * fair-share dispatch order, single-flight coalescing, result-cache
 * bookkeeping, cancellation, per-job fault isolation, and a
 * concurrent-submission stress (the TSan target for the service
 * layer — scripts/check.sh --tsan runs this binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "qc/canonical.hh"
#include "service/result_cache.hh"
#include "service/scheduler.hh"
#include "service/traffic.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{
namespace service
{
namespace
{

/** A distinct small job per @p variant (unique simulation key). */
JobRequest
smallJob(std::uint64_t variant)
{
    JobRequest r;
    r.circuit.family = "random";
    r.circuit.qubits = 6;
    r.circuit.seed = 1000 + variant;
    return r;
}

ServiceConfig
testConfig()
{
    ServiceConfig c;
    c.maxActiveJobs = 1; // deterministic dispatch order
    return c;
}

TEST(JobJson, RequestRoundTrips)
{
    JobRequest r;
    r.tenant = "acme";
    r.circuit.family = "iqp";
    r.circuit.qubits = 9;
    r.circuit.seed = 77;
    r.engine = "pruning";
    r.shots = 128;
    r.seed = 5;
    r.precision = Precision::adaptive;
    r.adaptiveThreshold = 1e-4;
    r.arrivalMs = 17.25;

    const std::string line = r.toJson().toString();
    const auto parsed = parseJson(line);
    ASSERT_TRUE(parsed.has_value());
    const auto back = JobRequest::fromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->tenant, r.tenant);
    EXPECT_EQ(back->circuit.family, r.circuit.family);
    EXPECT_EQ(back->circuit.qubits, r.circuit.qubits);
    EXPECT_EQ(back->circuit.seed, r.circuit.seed);
    EXPECT_EQ(back->engine, r.engine);
    EXPECT_EQ(back->shots, r.shots);
    EXPECT_EQ(back->seed, r.seed);
    EXPECT_EQ(back->precision, r.precision);
    EXPECT_DOUBLE_EQ(back->adaptiveThreshold, r.adaptiveThreshold);
    EXPECT_DOUBLE_EQ(back->arrivalMs, r.arrivalMs);
    // Identical serialization again: stable representation.
    EXPECT_EQ(back->toJson().toString(), line);
}

TEST(JobJson, BadRequestsAreRejectedStructurally)
{
    EXPECT_FALSE(
        JobRequest::fromJson(JsonValue::makeNumber(4)).has_value());
    const auto noCircuit = parseJson("{\"tenant\": \"x\"}");
    ASSERT_TRUE(noCircuit.has_value());
    EXPECT_FALSE(JobRequest::fromJson(*noCircuit).has_value());
    const auto badPrecision = parseJson(
        "{\"circuit\": {\"family\": \"qft\", \"qubits\": 8}, "
        "\"precision\": \"f13\"}");
    ASSERT_TRUE(badPrecision.has_value());
    EXPECT_FALSE(JobRequest::fromJson(*badPrecision).has_value());
}

TEST(Traffic, GenerationIsDeterministicAndRoundTrips)
{
    TrafficConfig cfg;
    cfg.jobs = 25;
    cfg.repeatFraction = 0.5;
    cfg.seed = 42;
    const auto a = generateTraffic(cfg);
    const auto b = generateTraffic(cfg);
    ASSERT_EQ(a.size(), 25u);
    EXPECT_EQ(trafficToJsonl(a), trafficToJsonl(b));

    std::vector<JobRequest> back;
    std::string error;
    ASSERT_TRUE(trafficFromJsonl(trafficToJsonl(a), back, error))
        << error;
    EXPECT_EQ(trafficToJsonl(back), trafficToJsonl(a));

    // Repeats reuse an earlier circuit spec; with 50% repeat over 25
    // jobs at least one must collide.
    bool repeated = false;
    for (std::size_t i = 1; i < a.size() && !repeated; ++i)
        for (std::size_t j = 0; j < i && !repeated; ++j)
            repeated = a[i].circuit.toJson().toString() ==
                       a[j].circuit.toJson().toString();
    EXPECT_TRUE(repeated);
}

TEST(JobService, LifecycleReachesDone)
{
    JobService svc(testConfig());
    JobRequest r = smallJob(1);
    r.shots = 16;
    const std::uint64_t id = svc.submit(r);
    const JobResult result = svc.wait(id);
    EXPECT_EQ(result.status, JobStatus::Done);
    EXPECT_FALSE(result.cacheHit);
    EXPECT_NEAR(result.norm, 1.0, 1e-9);
    EXPECT_GT(result.totalVTime, 0.0);
    EXPECT_GE(result.doneSeconds, result.startSeconds);
    std::uint64_t shots = 0;
    for (const auto &[outcome, hits] : result.counts)
        shots += hits;
    EXPECT_EQ(shots, 16u);
    EXPECT_EQ(svc.counter("service.completed"), 1u);
}

TEST(JobService, CacheHitSharesTheSimulation)
{
    JobService svc(testConfig());
    JobRequest r = smallJob(2);
    const JobResult first = svc.wait(svc.submit(r));
    ASSERT_EQ(first.status, JobStatus::Done);

    r.seed = 777; // scheduling-only: same key, fresh sampling
    r.shots = 8;
    const JobResult second = svc.wait(svc.submit(r));
    EXPECT_EQ(second.status, JobStatus::Done);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.key, first.key);
    EXPECT_EQ(second.totalVTime, first.totalVTime);
    EXPECT_EQ(svc.counter("service.cache.hit"), 1u);
    EXPECT_EQ(svc.counter("service.cache.miss"), 1u);
}

/**
 * ServiceConfig::hostThreads sizes the service's worker pool; the
 * simulated host's thread count (ExecOptions::hostThreads) is part of
 * the model, so a job's modeled time must not depend on the service
 * that ran it.
 */
TEST(JobService, WorkerCountDoesNotReachTheModeledHost)
{
    JobRequest r;
    r.circuit.family = "qft";
    r.circuit.qubits = 10;
    r.engine = "baseline";
    std::vector<double> vtimes;
    for (int threads : {0, 2}) {
        ServiceConfig cfg = testConfig();
        cfg.hostThreads = threads;
        JobService svc(cfg);
        const JobResult result = svc.wait(svc.submit(r));
        ASSERT_EQ(result.status, JobStatus::Done) << threads;
        vtimes.push_back(result.totalVTime);
    }
    EXPECT_EQ(vtimes[0], vtimes[1]);
}

TEST(JobJson, NoiseFieldsRoundTripOnlyWhenArmed)
{
    JobRequest r = smallJob(3);
    r.shots = 32;
    r.noiseSpec = "pauli1:0.05,readout:0.02";
    r.shotSeed = 0xabcdull;
    const std::string line = r.toJson().toString();
    EXPECT_NE(line.find("noise_spec"), std::string::npos);
    const auto back = JobRequest::fromJson(*parseJson(line));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->noiseSpec, r.noiseSpec);
    EXPECT_EQ(back->shotSeed, r.shotSeed);
    EXPECT_EQ(back->toJson().toString(), line);

    // Ideal jobs keep their wire format unchanged: no noise keys.
    JobRequest ideal = smallJob(3);
    ideal.shotSeed = 0xabcdull; // scheduling-only without a spec
    EXPECT_EQ(ideal.toJson().toString().find("noise_spec"),
              std::string::npos);
    EXPECT_EQ(ideal.toJson().toString().find("shot_seed"),
              std::string::npos);
}

TEST(JobService, NoisyJobsKeyOnSpecShotsAndSeed)
{
    JobService svc(testConfig());
    JobRequest r = smallJob(4);
    r.shots = 16;
    r.noiseSpec = "pauli1:0.1";
    const JobResult first = svc.wait(svc.submit(r));
    ASSERT_EQ(first.status, JobStatus::Done);
    EXPECT_FALSE(first.cacheHit);
    std::uint64_t shots = 0;
    for (const auto &[outcome, hits] : first.counts)
        shots += hits;
    EXPECT_EQ(shots, 16u);

    // A different shot seed is result-affecting for noisy jobs:
    // different key, cache miss.
    JobRequest reseeded = r;
    reseeded.shotSeed = 0x1234ull;
    const JobResult second = svc.wait(svc.submit(reseeded));
    ASSERT_EQ(second.status, JobStatus::Done);
    EXPECT_NE(second.key, first.key);
    EXPECT_FALSE(second.cacheHit);

    // So are the spec and the shot count.
    JobRequest respecced = r;
    respecced.noiseSpec = "pauli1:0.2";
    EXPECT_NE(svc.wait(svc.submit(respecced)).key, first.key);
    JobRequest reshot = r;
    reshot.shots = 32;
    EXPECT_NE(svc.wait(svc.submit(reshot)).key, first.key);

    // The identical request hits the cache and returns the cached
    // counts verbatim -- noisy results are never resampled.
    const JobResult replay = svc.wait(svc.submit(r));
    ASSERT_EQ(replay.status, JobStatus::Done);
    EXPECT_TRUE(replay.cacheHit);
    EXPECT_EQ(replay.key, first.key);
    EXPECT_EQ(replay.counts, first.counts);
    EXPECT_EQ(svc.counter("service.cache.hit"), 1u);
    EXPECT_EQ(svc.counter("service.cache.miss"), 4u);
}

TEST(JobService, IdealJobsIgnoreTheShotSeedInTheKey)
{
    // Without a noise spec the shot seed stays scheduling-only, so
    // the ideal cache keeps deduplicating across it.
    JobService svc(testConfig());
    JobRequest r = smallJob(5);
    r.shots = 8;
    const JobResult first = svc.wait(svc.submit(r));
    r.shotSeed = 0x9999ull;
    const JobResult second = svc.wait(svc.submit(r));
    EXPECT_EQ(second.key, first.key);
    EXPECT_TRUE(second.cacheHit);
}

TEST(JobService, NoiseAdmissionRejectsEnvAndShotlessJobs)
{
    JobService svc(testConfig());
    JobRequest env = smallJob(6);
    env.shots = 8;
    env.noiseSpec = "env"; // environment-dependent: not admissible
    const JobResult r1 = svc.wait(svc.submit(env));
    EXPECT_EQ(r1.status, JobStatus::Rejected);
    ASSERT_TRUE(r1.error.has_value());
    EXPECT_NE(r1.error->detail.find("env"), std::string::npos);

    JobRequest shotless = smallJob(7);
    shotless.noiseSpec = "pauli1:0.1"; // armed but shots == 0
    const JobResult r2 = svc.wait(svc.submit(shotless));
    EXPECT_EQ(r2.status, JobStatus::Rejected);
    ASSERT_TRUE(r2.error.has_value());
    EXPECT_NE(r2.error->detail.find("shots"), std::string::npos);
    EXPECT_EQ(svc.counter("service.rejected"), 2u);
}

TEST(JobService, AdmissionControlRejectsStructurally)
{
    ServiceConfig cfg = testConfig();
    cfg.maxQueueDepth = 2;
    cfg.startPaused = true;
    JobService svc(cfg);
    const std::uint64_t a = svc.submit(smallJob(10));
    const std::uint64_t b = svc.submit(smallJob(11));
    const std::uint64_t c = svc.submit(smallJob(12));
    EXPECT_EQ(svc.result(a).status, JobStatus::Queued);
    EXPECT_EQ(svc.result(b).status, JobStatus::Queued);
    const JobResult rejected = svc.result(c);
    EXPECT_EQ(rejected.status, JobStatus::Rejected);
    ASSERT_TRUE(rejected.error.has_value());
    EXPECT_NE(rejected.error->detail.find("queue full"),
              std::string::npos);
    EXPECT_EQ(svc.counter("service.rejected"), 1u);
    EXPECT_EQ(svc.queueDepth(), 2);
    svc.resume();
    svc.drain();
    EXPECT_EQ(svc.result(a).status, JobStatus::Done);
}

TEST(JobService, InvalidRequestsAreRejectedNotFatal)
{
    JobService svc(testConfig());
    JobRequest bad = smallJob(13);
    bad.circuit.family = "no-such-family";
    EXPECT_EQ(svc.wait(svc.submit(bad)).status,
              JobStatus::Rejected);

    bad = smallJob(14);
    bad.engine = "no-such-engine";
    EXPECT_EQ(svc.wait(svc.submit(bad)).status,
              JobStatus::Rejected);
}

TEST(JobService, ExactAndFastJobsShareTheService)
{
    // The kernel tier is a per-run value: an exact and a fast job per
    // family, all queued before the first wait, run side by side with
    // four jobs in flight.
    constexpr int kQubits = 8;
    ServiceConfig cfg;
    cfg.maxActiveJobs = 4;
    JobService svc(cfg);

    const auto &families = circuits::benchmarkNames();
    std::vector<JobRequest> exact, fast;
    std::vector<std::uint64_t> exact_ids, fast_ids;
    for (const auto &family : families) {
        JobRequest r;
        r.circuit.family = family;
        r.circuit.qubits = kQubits;
        r.engine = "qgpu";
        exact.push_back(r);
        exact_ids.push_back(svc.submit(r));
        r.fastMath = true;
        fast.push_back(r);
        fast_ids.push_back(svc.submit(r));
    }

    bool fast_differs = false;
    for (std::size_t i = 0; i < families.size(); ++i) {
        const std::string &family = families[i];
        ASSERT_EQ(svc.wait(exact_ids[i]).status, JobStatus::Done)
            << family;
        ASSERT_EQ(svc.wait(fast_ids[i]).status, JobStatus::Done)
            << family;
        const auto exact_sim = svc.cachedFor(exact[i]);
        const auto fast_sim = svc.cachedFor(fast[i]);
        ASSERT_NE(exact_sim, nullptr) << family;
        ASSERT_NE(fast_sim, nullptr) << family;

        // A fresh exact run, configured the way the service runs it.
        ExecOptions options = harness::benchOptions();
        options.keepState = true;
        options.faultSpec = "none";
        options.fastMath = false;
        Machine machine = machines::makeScaled(
            kQubits, machines::p100(), cfg.deviceFraction, cfg.devices);
        const RunResult fresh = harness::runOn(
            "qgpu", machine, canonicalCircuit(exact[i].circuit.build()),
            options);
        ASSERT_TRUE(fresh.ok()) << family;
        EXPECT_EQ(exact_sim->state.maxAbsDiff(fresh.state), 0.0)
            << "exact job diverged from a fresh exact run on "
            << family;

        const double diff =
            fast_sim->state.maxAbsDiff(exact_sim->state);
        EXPECT_LT(diff, 1e-12) << "fast job on " << family;
        fast_differs = fast_differs || diff > 0.0;
    }
    // Where the contracted copy runs, some fast state must differ
    // from exact: the job's tier reached the kernels.
    if (fastKernels().dispatch == &kernfast::dispatch) {
        EXPECT_TRUE(fast_differs);
    }
}

TEST(JobService, FairShareAlternatesSmallBurstsAndLarges)
{
    ServiceConfig cfg = testConfig();
    cfg.startPaused = true;
    cfg.fairShareSmallBurst = 2;
    // random@6 is small, random@12 is large under this boundary
    // (cost = 2^qubits * gates).
    cfg.smallCostThreshold = 1.0e5;
    JobService svc(cfg);

    std::vector<std::uint64_t> small_ids, large_ids;
    for (int i = 0; i < 4; ++i)
        small_ids.push_back(svc.submit(smallJob(20 + i)));
    for (int i = 0; i < 2; ++i) {
        JobRequest big = smallJob(30 + i);
        big.circuit.qubits = 12;
        large_ids.push_back(svc.submit(big));
    }
    svc.resume();
    svc.drain();

    // Expected dispatch: S S L S S L.
    std::vector<char> order(6, '?');
    const auto place = [&](const std::vector<std::uint64_t> &ids,
                           char tag) {
        for (const std::uint64_t id : ids) {
            const JobResult r = svc.result(id);
            EXPECT_EQ(r.status, JobStatus::Done);
            ASSERT_GE(r.dispatchIndex, 1u);
            ASSERT_LE(r.dispatchIndex, 6u);
            order[r.dispatchIndex - 1] = tag;
        }
    };
    place(small_ids, 'S');
    place(large_ids, 'L');
    EXPECT_EQ(std::string(order.begin(), order.end()), "SSLSSL");
}

TEST(JobService, ZeroBurstIsSubmissionOrderFifo)
{
    ServiceConfig cfg = testConfig();
    cfg.startPaused = true;
    cfg.fairShareSmallBurst = 0;
    cfg.smallCostThreshold = 1.0e5;
    JobService svc(cfg);

    std::vector<std::uint64_t> ids;
    JobRequest big = smallJob(40);
    big.circuit.qubits = 12;
    ids.push_back(svc.submit(big));
    ids.push_back(svc.submit(smallJob(41)));
    big = smallJob(42);
    big.circuit.qubits = 12;
    ids.push_back(svc.submit(big));
    svc.resume();
    svc.drain();

    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(svc.result(ids[i]).dispatchIndex, i + 1)
            << "job " << i << " dispatched out of order";
}

TEST(JobService, SingleFlightCoalescesIdenticalInFlightJobs)
{
    ServiceConfig cfg = testConfig();
    cfg.startPaused = true;
    JobService svc(cfg);
    JobRequest r = smallJob(50);
    r.shots = 4;
    const std::uint64_t leader = svc.submit(r);
    r.seed = 1;
    const std::uint64_t f1 = svc.submit(r);
    r.seed = 2;
    const std::uint64_t f2 = svc.submit(r);
    EXPECT_EQ(svc.queueDepth(), 1) << "followers hold no queue slot";
    svc.resume();
    svc.drain();

    const JobResult lead = svc.result(leader);
    EXPECT_EQ(lead.status, JobStatus::Done);
    EXPECT_FALSE(lead.coalesced);
    for (const std::uint64_t id : {f1, f2}) {
        const JobResult r2 = svc.result(id);
        EXPECT_EQ(r2.status, JobStatus::Done);
        EXPECT_TRUE(r2.coalesced);
        EXPECT_EQ(r2.key, lead.key);
        EXPECT_EQ(r2.totalVTime, lead.totalVTime);
    }
    EXPECT_EQ(svc.counter("service.singleflight.coalesced"), 2u);
    EXPECT_EQ(svc.counter("service.cache.hit"), 0u);
    EXPECT_EQ(svc.counter("service.completed"), 3u);
    // The run was shared, not repeated: one insertion.
    EXPECT_EQ(svc.cacheStats().insertions, 1u);
}

TEST(JobService, CancelQueuedJobNeverRuns)
{
    ServiceConfig cfg = testConfig();
    cfg.startPaused = true;
    JobService svc(cfg);
    const std::uint64_t id = svc.submit(smallJob(60));
    EXPECT_TRUE(svc.cancel(id));
    EXPECT_FALSE(svc.cancel(id)) << "already terminal";
    EXPECT_FALSE(svc.cancel(9999)) << "unknown id";
    svc.resume();
    svc.drain();
    const JobResult r = svc.result(id);
    EXPECT_EQ(r.status, JobStatus::Cancelled);
    EXPECT_EQ(r.engine, "") << "cancelled before any run";
    EXPECT_EQ(svc.counter("service.cancelled"), 1u);
    EXPECT_EQ(svc.counter("service.completed"), 0u);
}

TEST(JobService, CancelledLeaderStillServesFollowers)
{
    ServiceConfig cfg = testConfig();
    cfg.startPaused = true;
    JobService svc(cfg);
    JobRequest r = smallJob(61);
    const std::uint64_t leader = svc.submit(r);
    r.seed = 9;
    const std::uint64_t follower = svc.submit(r);
    EXPECT_TRUE(svc.cancel(leader));
    svc.resume();
    svc.drain();
    EXPECT_EQ(svc.result(leader).status, JobStatus::Cancelled);
    const JobResult f = svc.result(follower);
    EXPECT_EQ(f.status, JobStatus::Done);
    EXPECT_TRUE(f.coalesced);
}

TEST(JobService, FaultedJobsFailInIsolationAndBypassTheCache)
{
    JobService svc(testConfig());
    JobRequest faulty = smallJob(70);
    faulty.faultSpec = "d2h:1.0"; // every transfer fails: fatal
    const JobResult bad = svc.wait(svc.submit(faulty));
    EXPECT_EQ(bad.status, JobStatus::Failed);
    ASSERT_TRUE(bad.error.has_value());
    EXPECT_EQ(bad.error->code, SimErrorCode::TransferFailed);
    EXPECT_EQ(svc.counter("service.failed"), 1u);

    // The same circuit without faults: unaffected, and its key was
    // never polluted by the faulted run.
    JobRequest clean = smallJob(70);
    const JobResult good = svc.wait(svc.submit(clean));
    EXPECT_EQ(good.status, JobStatus::Done);
    EXPECT_FALSE(good.cacheHit);
    EXPECT_NEAR(good.norm, 1.0, 1e-9);
    EXPECT_EQ(svc.cacheStats().insertions, 1u);
}

TEST(ResultCache, LruEvictionRespectsTheByteBudget)
{
    const auto makeSim = [](std::uint64_t key, int qubits) {
        auto sim = std::make_shared<CachedSim>();
        sim->key = key;
        sim->state = StateVector(qubits);
        sim->norm = 1.0;
        return sim;
    };
    const std::size_t entry = makeSim(0, 6)->bytes();
    // One shard, room for exactly two entries.
    ResultCache cache(2 * entry, 1);

    EXPECT_TRUE(cache.insert(makeSim(1, 6)));
    EXPECT_TRUE(cache.insert(makeSim(2, 6)));
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch 1 so 2 is the LRU victim.
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_TRUE(cache.insert(makeSim(3, 6)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr) << "LRU entry evicted";
    EXPECT_NE(cache.lookup(3), nullptr);

    // An entry larger than the whole shard is not admitted.
    EXPECT_FALSE(cache.insert(makeSim(4, 10)));
    EXPECT_EQ(cache.stats().rejected, 1u);

    // A held reference survives eviction of its cache slot.
    const auto held = cache.lookup(1);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(held->key, 1u);
    EXPECT_EQ(held->state.numQubits(), 6);
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    ResultCache cache(0, 4);
    auto sim = std::make_shared<CachedSim>();
    sim->key = 5;
    sim->state = StateVector(4);
    EXPECT_FALSE(cache.insert(sim));
    EXPECT_EQ(cache.lookup(5), nullptr);
}

TEST(JobServiceStress, ConcurrentSubmissionFromManyThreads)
{
    ServiceConfig cfg;
    cfg.maxActiveJobs = 2;
    cfg.maxQueueDepth = 1024;
    JobService svc(cfg);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;
    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::atomic<int> cancelled{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // A mix of unique jobs, shared jobs (cross-thread
                // coalescing/caching), and the occasional cancel.
                JobRequest r = smallJob(
                    i % 3 == 0 ? 100 + static_cast<std::uint64_t>(i)
                               : 200 + static_cast<std::uint64_t>(
                                           t * kPerThread + i));
                r.shots = 2;
                r.seed = static_cast<std::uint64_t>(t) << 32 |
                         static_cast<std::uint64_t>(i);
                const std::uint64_t id = svc.submit(r);
                ids[t].push_back(id);
                if (i % 7 == 6 && svc.cancel(id))
                    cancelled.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    svc.drain();

    int done = 0, other = 0;
    for (const auto &mine : ids) {
        ASSERT_EQ(mine.size(),
                  static_cast<std::size_t>(kPerThread));
        for (const std::uint64_t id : mine) {
            const JobResult r = svc.result(id);
            EXPECT_TRUE(jobStatusTerminal(r.status));
            if (r.status == JobStatus::Done) {
                ++done;
                EXPECT_NEAR(r.norm, 1.0, 1e-9);
            } else {
                ++other;
                EXPECT_EQ(r.status, JobStatus::Cancelled);
            }
        }
    }
    EXPECT_EQ(done + other, kThreads * kPerThread);
    EXPECT_EQ(other, cancelled.load());
    EXPECT_EQ(svc.counter("service.submitted"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    // Shared keys must have been deduplicated by cache or
    // single-flight: strictly fewer simulations than submissions.
    EXPECT_LT(svc.cacheStats().insertions,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

} // namespace
} // namespace service
} // namespace qgpu
