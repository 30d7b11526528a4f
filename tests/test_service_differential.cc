/**
 * @file
 * The service cache's correctness contract, end to end: a cache-hit
 * result is BIT-IDENTICAL (maxAbsDiff == 0, not epsilon-close) to
 * the state a fresh simulation of the same request would produce —
 * for every benchmark family and every paper engine version.
 *
 * Why this holds (qc/canonical.hh): hash-equal requests execute the
 * exact same canonical gate stream under the same result-affecting
 * options, and thread/device/storage scheduling cannot move a ULP.
 * The test drives the real JobService (so the canonical-execution
 * path is the one under test), then reruns the request's canonical
 * circuit directly through the harness on an identically configured
 * machine and compares states bitwise.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "qc/canonical.hh"
#include "service/scheduler.hh"

namespace qgpu
{
namespace service
{
namespace
{

class ServiceDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ServiceDifferential, CacheHitMatchesFreshSimulationBitwise)
{
    const std::string engine = GetParam();
    constexpr int kQubits = 8;

    ServiceConfig config;
    config.maxActiveJobs = 1;
    JobService svc(config);

    for (const auto &family : circuits::benchmarkNames()) {
        JobRequest request;
        request.circuit.family = family;
        request.circuit.qubits = kQubits;
        request.engine = engine;

        const JobResult result = svc.wait(svc.submit(request));
        ASSERT_EQ(result.status, JobStatus::Done)
            << engine << " on " << family;
        EXPECT_FALSE(result.cacheHit) << "first run must simulate";

        const auto cached = svc.cachedFor(request);
        ASSERT_NE(cached, nullptr) << engine << " on " << family;

        // Fresh simulation, identically configured: the service's
        // execution recipe is canonicalCircuit(request) on a
        // makeScaled machine with bench options + kept state.
        ExecOptions options = harness::benchOptions();
        options.keepState = true;
        options.faultSpec = "none";
        options.fastMath = request.fastMath;
        Machine machine = machines::makeScaled(
            kQubits, machines::p100(), config.deviceFraction,
            config.devices);
        const RunResult fresh = harness::runOn(
            engine, machine,
            canonicalCircuit(request.circuit.build()), options);
        ASSERT_TRUE(fresh.ok()) << engine << " on " << family;

        EXPECT_EQ(cached->state.maxAbsDiff(fresh.state), 0.0)
            << engine << " cached state diverged on " << family
            << ": a cache hit would not be bit-identical to a "
               "fresh simulation";
        EXPECT_EQ(cached->totalVTime, fresh.totalTime)
            << engine << " on " << family;

        // And the second submission is that hit.
        const JobResult second = svc.wait(svc.submit(request));
        EXPECT_EQ(second.status, JobStatus::Done);
        EXPECT_TRUE(second.cacheHit) << engine << " on " << family;
        EXPECT_EQ(second.totalVTime, fresh.totalTime);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, ServiceDifferential,
    ::testing::Values("baseline", "naive", "overlap", "pruning",
                      "reorder", "qgpu"),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace service
} // namespace qgpu
