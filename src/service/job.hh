/**
 * @file
 * Job model of the multi-tenant service layer: what a tenant submits
 * (JobRequest), how it moves through the service (JobStatus), and
 * what comes back (JobResult). Both ends serialize to single-line
 * JSON objects so traffic traces are .jsonl files that
 * `qgpu_serve --replay` can feed back deterministically.
 *
 * Identity: every request maps to a 64-bit simulation key =
 * canonical circuit hash (qc/canonical.hh) folded with the
 * result-affecting execution options — engine version, storage
 * precision (+ adaptive threshold), and the fast-math tier.
 * Scheduling-only knobs (host threads, device count/fabric, chunk
 * storage backend, working set, chunk count) are bit-identical by
 * construction (PRs 2/6/8) and deliberately NOT part of the key, so
 * a cache entry produced on one service configuration is valid on
 * any other. Jobs that arm fault injection have no stable result and
 * never participate in caching (simulationKey still computes; the
 * scheduler bypasses the cache for them).
 */

#ifndef QGPU_SERVICE_JOB_HH
#define QGPU_SERVICE_JOB_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/json.hh"
#include "common/types.hh"
#include "fault/sim_error.hh"
#include "qc/circuit.hh"

namespace qgpu
{
namespace service
{

/**
 * Lifecycle of a job. Terminal states: Done, Failed, Cancelled,
 * Rejected.
 *
 *   submit -> Queued -> Running -> Done | Failed
 *                 \--> Cancelled            (cancel before dispatch)
 *   submit -> Rejected                      (admission control)
 *   submit -> Done                          (cache hit: no queue, no
 *                                            engine run)
 */
enum class JobStatus
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
    Rejected,
};

/** Lower-case status name ("queued", "running", ...). */
const char *jobStatusName(JobStatus status);

/** True for Done/Failed/Cancelled/Rejected. */
bool jobStatusTerminal(JobStatus status);

/**
 * Which circuit a job wants simulated: a registered benchmark family
 * (family + qubits + generator seed) or an inline OpenQASM 2.0
 * program. Exactly one of family/qasm is set.
 */
struct CircuitSpec
{
    std::string family; ///< registry name; empty when qasm is used
    int qubits = 0;
    std::uint64_t seed = 0; ///< generator seed (0 = family default)
    std::string qasm;       ///< inline program; empty for families

    /** Materialize the circuit (fatal on unknown family/bad QASM). */
    Circuit build() const;

    JsonValue toJson() const;
    static std::optional<CircuitSpec> fromJson(const JsonValue &v);
};

/**
 * One tenant submission. Result-affecting execution options ride on
 * the request; scheduling-only options (threads, devices, storage)
 * are service configuration.
 */
struct JobRequest
{
    std::string tenant = "default";
    CircuitSpec circuit;
    /** Engine selector (harness::makeEngine names). */
    std::string engine = "qgpu";
    /** Measurement shots sampled from the final state (0 = none). */
    std::uint64_t shots = 0;
    /** Sampling seed (per-job; not part of the simulation key). */
    std::uint64_t seed = 2026;
    /** Amplitude storage precision (result-affecting). */
    Precision precision = Precision::f64;
    /** Adaptive-precision promotion threshold (used when adaptive). */
    double adaptiveThreshold = 1e-6;
    /** Fast-math kernel tier opt-in for this job's run
     *  (result-affecting, so part of the simulation key). */
    bool fastMath = false;
    /** Fault-injection spec ("" = none). Armed jobs bypass caching. */
    std::string faultSpec;
    std::uint64_t faultSeed = 0x517e57ull;
    /**
     * Noise-model spec for batched stochastic execution
     * (noise/model.hh; "" = ideal). Noisy jobs run through
     * runBatched and require shots > 0. Unlike the sampling seed,
     * the noise spec, shot count, and shot seed ARE result-affecting
     * (they change the trajectories), so they fold into the
     * simulation key — but only when armed, keeping every ideal
     * job's key unchanged. "env" is rejected at admission: a key
     * must not depend on the service's environment.
     */
    std::string noiseSpec;
    /** Base seed of the noisy batch (splitSeed(shotSeed, i) per
     *  shot); result-affecting, unlike the ideal sampling seed. */
    std::uint64_t shotSeed = 0x5407ull;
    /** Virtual arrival time in the generating trace (replay order). */
    double arrivalMs = 0.0;

    /** True when faultSpec arms injection ("" and "none" do not). */
    bool faultsArmed() const;

    /** True when noiseSpec arms stochastic noise ("" / "none" do
     *  not; "env" counts as armed and is rejected at admission). */
    bool noiseArmed() const;

    JsonValue toJson() const;
    static std::optional<JobRequest> fromJson(const JsonValue &v);
};

/**
 * The simulation identity of @p request given the already-built
 * @p circuit: canonical circuit hash x result-affecting options.
 */
std::uint64_t simulationKey(const JobRequest &request,
                            const Circuit &circuit);

/**
 * Terminal snapshot of one job, as returned by JobService::result.
 */
struct JobResult
{
    std::uint64_t id = 0;
    std::string tenant;
    JobStatus status = JobStatus::Queued;
    /** Simulation key (hex in JSON). Zero for rejected jobs. */
    std::uint64_t key = 0;
    /** Engine display name of the producing run. */
    std::string engine;
    /** Result came straight from the cache (no queue, no run). */
    bool cacheHit = false;
    /** Result shared from a concurrent identical in-flight run. */
    bool coalesced = false;
    /** Dispatch sequence number (order the scheduler started or
     *  resolved the job); for observing the fair-share policy. */
    std::uint64_t dispatchIndex = 0;
    /** Service-relative wall seconds. */
    double submitSeconds = 0.0;
    double startSeconds = 0.0; ///< == submitSeconds for cache hits
    double doneSeconds = 0.0;
    /** Modeled virtual time of the producing run (0 for hits shares
     *  the cached producing run's time). */
    double totalVTime = 0.0;
    /** Final-state norm (1.0 for a valid state). */
    double norm = 0.0;
    /** Sampled measurement outcomes (shots > 0 only). */
    std::map<Index, std::uint64_t> counts;
    /** Structured failure for status Failed; reason for Rejected is
     *  in detail with code left at its default. */
    std::optional<SimError> error;

    /** End-to-end latency (doneSeconds - submitSeconds). */
    double latencySeconds() const
    {
        return doneSeconds - submitSeconds;
    }

    JsonValue toJson() const;
};

} // namespace service
} // namespace qgpu

#endif // QGPU_SERVICE_JOB_HH
