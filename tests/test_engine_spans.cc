/**
 * @file
 * The trace is exact: every traced span is work a machine resource
 * actually ran, where it ran it. For every paper version on every
 * machine shape, with and without injected transfer faults:
 *
 *  - spans on one serial resource never overlap;
 *  - their durations sum to that resource's busy time;
 *  - no span ends after the run's total time.
 *
 * This is what makes per-phase busy times and the Fig. 6 chart agree
 * with the device model's own accounting; the last case checks the
 * chart of a baseline run ends at the run's total time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

constexpr int kQubits = 8;

struct Shape
{
    const char *name;
    std::function<Machine()> make;
};

const std::vector<Shape> &
shapes()
{
    static const std::vector<Shape> all = {
        {"bench1", [] { return harness::benchMachine(kQubits, 1); }},
        {"bench2", [] { return harness::benchMachine(kQubits, 2); }},
        {"p4x1",
         [] {
             return machines::makeScaled(kQubits, machines::p4(), 1.0,
                                         1);
         }},
        {"p4x4",
         [] {
             return machines::makeScaled(kQubits, machines::p4(), 1.0,
                                         4);
         }},
        {"nvlinkx2",
         [] {
             return machines::makeScaled(kQubits, machines::v100Nvlink(),
                                         1.0, 2);
         }},
    };
    return all;
}

ExecOptions
tracedOptions(bool faults)
{
    ExecOptions o;
    o.targetChunks = 32;
    o.fastMath = false;
    o.keepState = false;
    o.recordTrace = true;
    o.faultSpec = faults ? "h2d:0.05,d2h:0.05,peer:0.05,codec:0.02"
                         : "none";
    o.transferRetries = 8;
    return o;
}

/** Every serial resource of @p m, keyed by the name spans carry. */
std::map<std::string, const TimedResource *>
resourcesOf(const Machine &m)
{
    std::map<std::string, const TimedResource *> out;
    out["host.compute"] = &m.host().compute();
    for (int d = 0; d < m.numDevices(); ++d) {
        const DeviceModel &dev = m.device(d);
        for (const TimedResource *r :
             {&dev.compute(), &dev.h2dEngine(), &dev.d2hEngine(),
              &dev.peerEngine()})
            out[r->name()] = r;
    }
    return out;
}

void
expectExactSpans(const RunResult &r, const Machine &m,
                 const std::string &what)
{
    ASSERT_TRUE(r.ok()) << what;
    ASSERT_FALSE(r.trace.empty()) << what;
    const auto resources = resourcesOf(m);
    std::map<std::string, std::vector<const TraceSpan *>> by_resource;
    for (const TraceSpan &span : r.trace.spans()) {
        EXPECT_LE(span.end, r.totalTime)
            << what << ": " << span.resource << " " << span.label;
        if (span.end <= span.start)
            continue; // zero-length decision markers
        ASSERT_TRUE(resources.count(span.resource))
            << what << ": span on unknown resource " << span.resource;
        by_resource[span.resource].push_back(&span);
    }
    const double tol = 1e-9 * r.totalTime;
    for (const auto &[name, resource] : resources) {
        auto &spans = by_resource[name];
        std::sort(spans.begin(), spans.end(),
                  [](const TraceSpan *a, const TraceSpan *b) {
                      return a->start < b->start;
                  });
        double busy = 0.0;
        std::size_t overlaps = 0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            busy += spans[i]->duration();
            if (i > 0 && spans[i]->start < spans[i - 1]->end - tol)
                ++overlaps;
        }
        EXPECT_EQ(overlaps, 0u)
            << what << ": overlapping spans on " << name;
        EXPECT_NEAR(busy, resource->busyTime(),
                    1e-9 * std::max(resource->busyTime(), 1e-300))
            << what << ": span time on " << name
            << " differs from its busy time";
    }
}

class EngineSpans : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineSpans, MatchTheirResources)
{
    const Circuit circuit =
        circuits::makeBenchmark(GetParam(), kQubits);
    for (const Shape &shape : shapes()) {
        for (const bool faults : {false, true}) {
            for (const Version v : allVersions()) {
                Machine m = shape.make();
                const RunResult r =
                    makeVersion(v, m, tracedOptions(faults))
                        ->run(circuit);
                expectExactSpans(r, m,
                                 GetParam() + "/" + versionName(v) +
                                     "/" + shape.name +
                                     (faults ? "/faults" : ""));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EngineSpans,
    ::testing::ValuesIn(circuits::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(BaselineTimeline, SpansTheRun)
{
    // The baseline's initial load, reactive kernels and final drain
    // are traced like every other engine's work, so the Fig. 6 chart
    // of a run with a device-resident region ends where the run does.
    const int n = 10;
    Machine m = harness::benchMachine(n);
    ExecOptions o;
    o.recordTrace = true;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "baseline", m, circuits::makeBenchmark("hchain", n), o);
    std::ostringstream want;
    want << "total: " << r.totalTime << " s";
    EXPECT_NE(renderTimeline(r.trace, 60).find(want.str()),
              std::string::npos);
    EXPECT_EQ(r.trace.horizon(), r.totalTime);
}

} // namespace
} // namespace qgpu
