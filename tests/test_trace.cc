/**
 * @file
 * Trace subsystem tests: span recording and nesting, per-phase
 * busy/exposed aggregation, exporter shape, and the engine
 * integration (a full-flags StreamingEngine run must produce nonzero
 * h2d/d2h/compress phase totals whose exposed times partition the
 * run).
 */

#include <thread>

#include <gtest/gtest.h>

#include "common/trace.hh"
#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

TEST(Trace, DisabledRecordsNothing)
{
    Trace trace;
    EXPECT_FALSE(trace.enabled());
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 1.0);
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.horizon(), 0.0);
}

TEST(Trace, RecordAndAggregate)
{
    Trace trace;
    trace.enable();
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 2.0);
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 3.0, 4.0);
    trace.record(phases::compute, "kernel", "gpu0.compute", 1.0, 5.0);

    const auto totals = trace.phaseTotals();
    EXPECT_DOUBLE_EQ(totals.at(phases::h2d).busy, 3.0);
    EXPECT_EQ(totals.at(phases::h2d).spans, 2u);
    EXPECT_DOUBLE_EQ(totals.at(phases::compute).busy, 4.0);
    EXPECT_DOUBLE_EQ(trace.horizon(), 5.0);
}

TEST(Trace, ExposedTimePartitionsCoverage)
{
    // compute [1,5] outranks the transfers; h2d keeps [0,1], d2h
    // keeps [5,6]. Exposure must partition the covered span [0,6].
    Trace trace;
    trace.enable();
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 2.0);
    trace.record(phases::compute, "kernel", "gpu0.compute", 1.0, 5.0);
    trace.record(phases::d2h, "xfer", "gpu0.d2h", 4.0, 6.0);

    const auto totals = trace.phaseTotals();
    EXPECT_DOUBLE_EQ(totals.at(phases::compute).exposed, 4.0);
    EXPECT_DOUBLE_EQ(totals.at(phases::h2d).exposed, 1.0);
    EXPECT_DOUBLE_EQ(totals.at(phases::d2h).exposed, 1.0);
    EXPECT_DOUBLE_EQ(trace.coveredTime(), 6.0);

    double sum = 0.0;
    for (const auto &[phase, total] : totals)
        sum += total.exposed;
    EXPECT_DOUBLE_EQ(sum, trace.coveredTime());
}

TEST(Trace, ExposureHandlesFragmentedOverlap)
{
    // Two disjoint compute bursts over one long h2d: the transfer's
    // exposed time is exactly the gaps.
    Trace trace;
    trace.enable();
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 10.0);
    trace.record(phases::compute, "kernel", "gpu0.compute", 1.0, 3.0);
    trace.record(phases::compute, "kernel", "gpu0.compute", 6.0, 8.0);

    const auto totals = trace.phaseTotals();
    EXPECT_DOUBLE_EQ(totals.at(phases::compute).exposed, 4.0);
    EXPECT_DOUBLE_EQ(totals.at(phases::h2d).exposed, 6.0);
}

TEST(Trace, UnknownPhaseRanksAfterPriority)
{
    Trace trace;
    trace.enable();
    trace.record("custom", "x", "r", 0.0, 4.0);
    trace.record(phases::d2h, "xfer", "gpu0.d2h", 0.0, 2.0);
    const auto totals = trace.phaseTotals();
    EXPECT_DOUBLE_EQ(totals.at(phases::d2h).exposed, 2.0);
    EXPECT_DOUBLE_EQ(totals.at("custom").exposed, 2.0);
}

TEST(Trace, CountersAttachToSpans)
{
    Trace trace;
    trace.enable();
    trace.record(phases::prune, "decide", "host.prune", 1.0, 1.0,
                 {{"chunks.pruned", 12.0}, {"chunks.processed", 4.0}});
    ASSERT_EQ(trace.spans().size(), 1u);
    const auto &counters = trace.spans()[0].counters;
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0].first, "chunks.pruned");
    EXPECT_DOUBLE_EQ(counters[0].second, 12.0);
}

TEST(Trace, ScopedSpansNest)
{
    Trace trace;
    trace.enable();
    {
        ScopedSpan outer(trace, phases::hostCompute, "outer");
        {
            ScopedSpan inner(trace, phases::hostCompute, "inner");
            inner.counter("items", 3.0);
            inner.counter("items", 2.0);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    // Inner closes first, so it is recorded first, one level deeper.
    ASSERT_EQ(trace.spans().size(), 2u);
    const auto &inner = trace.spans()[0];
    const auto &outer = trace.spans()[1];
    EXPECT_EQ(inner.label, "inner");
    EXPECT_EQ(inner.depth, 1);
    EXPECT_EQ(outer.label, "outer");
    EXPECT_EQ(outer.depth, 0);
    EXPECT_GE(inner.start, outer.start);
    EXPECT_LE(inner.end, outer.end);
    EXPECT_GT(inner.duration(), 0.0);
    // Repeated counter() calls on one name aggregate.
    ASSERT_EQ(inner.counters.size(), 1u);
    EXPECT_DOUBLE_EQ(inner.counters[0].second, 5.0);
}

TEST(Trace, JsonExportShape)
{
    Trace trace;
    trace.enable();
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 2.0);
    trace.record(phases::compute, "kernel", "gpu0.compute", 2.0, 3.0,
                 {{"flops", 64.0}});

    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"h2d\""), std::string::npos);
    EXPECT_NE(json.find("\"busy\""), std::string::npos);
    EXPECT_NE(json.find("\"exposed\""), std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"flops\": 64"), std::string::npos);
    // Compact form drops the span array but keeps the totals.
    const std::string compact = trace.toJson(false);
    EXPECT_EQ(compact.find("\"resource\""), std::string::npos);
    EXPECT_NE(compact.find("\"phases\""), std::string::npos);
}

TEST(Trace, CsvExportShape)
{
    Trace trace;
    trace.enable();
    trace.record(phases::h2d, "xfer", "gpu0.h2d", 0.0, 2.0);
    trace.record(phases::d2h, "xfer", "gpu0.d2h", 2.0, 3.0);

    const std::string csv = trace.toCsv();
    // Header + one row per span.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_EQ(csv.rfind("phase,label,resource,start,end,depth", 0),
              0u);
    EXPECT_NE(csv.find("h2d,xfer,gpu0.h2d,0,2"), std::string::npos);
}

TEST(Trace, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(TraceEngine, StreamingRunProducesPhaseSpans)
{
    // Full Q-GPU flags on a machine that forces streaming: every
    // transfer/codec phase must show up with nonzero totals.
    const int n = 10;
    const Circuit c = circuits::makeBenchmark("qft", n);
    Machine m = harness::benchMachine(n);
    ExecOptions o;
    o.recordTrace = true;
    o.keepState = false;
    const RunResult r = harness::runOn("qgpu", m, c, o);

    ASSERT_FALSE(r.trace.empty());
    const auto totals = r.trace.phaseTotals();
    EXPECT_GT(totals.at(phases::h2d).busy, 0.0);
    EXPECT_GT(totals.at(phases::d2h).busy, 0.0);
    EXPECT_GT(totals.at(phases::compute).busy, 0.0);
    EXPECT_GT(totals.at(phases::compress).busy, 0.0);
    EXPECT_GT(totals.at(phases::prune).spans, 0u);

    // The exposed phase totals partition the covered time, which in
    // turn accounts for (nearly) the whole virtual run time — the
    // measurement contract of the breakdown figures.
    double exposed_sum = 0.0;
    for (const auto &[phase, total] : totals)
        exposed_sum += total.exposed;
    EXPECT_NEAR(exposed_sum, r.trace.coveredTime(),
                1e-9 * r.totalTime);
    EXPECT_GT(r.trace.coveredTime(), 0.95 * r.totalTime);
    EXPECT_LE(r.trace.horizon(), r.totalTime + 1e-12);
}

TEST(TraceEngine, TimelineDerivesFromTrace)
{
    const int n = 9;
    const Circuit c = circuits::makeBenchmark("gs", n);
    Machine m = harness::benchMachine(n);
    ExecOptions o;
    o.recordTrace = true;
    o.keepState = false;
    const RunResult r = harness::runOn("qgpu", m, c, o);

    ASSERT_FALSE(r.trace.empty());
    // Every resource with a positive-length span gets a row; the
    // zero-length prune markers do not.
    const std::string chart = renderTimeline(r.trace, 60);
    for (const auto &span : r.trace.spans()) {
        const bool drawn = chart.find(span.resource) != std::string::npos;
        EXPECT_EQ(drawn, span.resource != "host.prune") << span.resource;
    }
    EXPECT_NE(chart.find(".h2d"), std::string::npos);
}

TEST(TraceEngine, TraceOffByDefault)
{
    const Circuit c = circuits::makeBenchmark("bv", 8);
    Machine m = harness::benchMachine(8);
    const RunResult r = harness::runOn("naive", m, c);
    EXPECT_TRUE(r.trace.empty());
}

TEST(TraceEngine, RunReportJsonShape)
{
    const Circuit c = circuits::makeBenchmark("qft", 8);
    Machine m = harness::benchMachine(8);
    ExecOptions o;
    o.recordTrace = true;
    const RunResult r = harness::runOn("qgpu", m, c, o);
    const std::string json = harness::runReportJson(r);
    EXPECT_NE(json.find("\"engine\": \"Q-GPU\""), std::string::npos);
    EXPECT_NE(json.find("\"total_time\""), std::string::npos);
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
    EXPECT_NE(json.find("\"time.total\""), std::string::npos);
}

} // namespace
} // namespace qgpu
