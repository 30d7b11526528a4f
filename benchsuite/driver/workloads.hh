/**
 * @file
 * The benchmark's named workloads. Each one generates its inputs from
 * the seed, knows the oracle its outputs are checked against, and runs
 * a fixed unit of work (a pass) whose calls into the simulator are the
 * only code timed.
 *
 *   paper_versions   Fig. 12: ten families x the six paper versions on
 *                    the 1/16-device-memory bench machine
 *   multi_device     the qgpu engine, state resident, on 1/2/4/8
 *                    devices over a PCIe-like and an NVLink-like fabric
 *   large_state      the qgpu engine on states far beyond the per-core
 *                    L2, so the kernels stream from DRAM
 *   bounded_storage  the qgpu engine on compressed storage with an
 *                    8-chunk working set (eviction, refill, codec,
 *                    stream checksums)
 *   noisy_shots      runBatched, shared schedule, noisy shots on small
 *                    states (per-call overhead, sampling, replay loop)
 *   service_mix      JobService fed open-loop at a fixed rate
 *                    (queueing, hashing, result cache, single-flight)
 */

#ifndef QGPU_BENCHSUITE_WORKLOADS_HH
#define QGPU_BENCHSUITE_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hh"
#include "suite.hh"

namespace qgpu
{
namespace benchsuite
{

/** Run-wide settings every workload reads. */
struct Config
{
    std::uint64_t seed = 1;
    /** Host threads the simulator and the service use. */
    int threads = 1;
    /** Tiny inputs for the smoke test. */
    bool smoke = false;
};

/** What one pass measured. */
struct Pass
{
    /** Seconds inside the timed calls (service_mix: from the first
     *  job's due time to the last job's completion). */
    double wall = 0.0;
    /** Modeled GPU seconds of the pass. */
    double model = 0.0;
    /** Per-operation latency in seconds. */
    std::vector<double> latencies;
    std::uint64_t ops = 0;
    /** Operations that reported an error or failed their check. */
    std::uint64_t failed = 0;
};

/** What a traced pass adds: counters read from the results, and the
 *  calls it made, described for the layer replays. */
struct Traced
{
    Layers layers;
    std::vector<ReplayOp> replay;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed: compute the expected outputs later passes are checked
     *  against. */
    virtual void oracle() = 0;

    /** Build the inputs and construct the machines, engines and
     *  service a pass uses (replacing any earlier set-up). */
    virtual void setup() = 0;

    /**
     * One pass. With @p traced non-null the engines also record their
     * virtual-time traces, every call is logged as a span under
     * @p parent in @p spans, and counters and replay ops go to
     * @p traced.
     */
    virtual Pass pass(Traced *traced, SpanLog *spans, int parent) = 0;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** The workload called @p name, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Config &config);

} // namespace benchsuite
} // namespace qgpu

#endif // QGPU_BENCHSUITE_WORKLOADS_HH
