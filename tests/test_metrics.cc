/**
 * @file
 * MetricsRegistry tests: counter aggregation, histogram summaries,
 * exporter shape, thread safety (by name and through cached slots),
 * clear() keeping slots valid, and the harness integration that
 * publishes per-run headline numbers into the global registry.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "harness/experiment.hh"
#include "statevec/apply.hh"

namespace qgpu
{
namespace
{

TEST(Metrics, CountersAggregate)
{
    MetricsRegistry registry;
    EXPECT_DOUBLE_EQ(registry.counter("absent"), 0.0);
    registry.add("runs.total");
    registry.add("runs.total");
    registry.add("bytes", 100.0);
    registry.add("bytes", 28.0);
    EXPECT_DOUBLE_EQ(registry.counter("runs.total"), 2.0);
    EXPECT_DOUBLE_EQ(registry.counter("bytes"), 128.0);
    EXPECT_EQ(registry.counterNames().size(), 2u);
}

TEST(Metrics, HistogramSummary)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.observe(2.0);
    h.observe(-1.0);
    h.observe(5.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Metrics, HistogramMerge)
{
    Histogram a, b;
    a.observe(1.0);
    b.observe(3.0);
    b.observe(-2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), -2.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
}

TEST(Metrics, RegistryHistograms)
{
    MetricsRegistry registry;
    registry.observe("run.total_time", 1.5);
    registry.observe("run.total_time", 2.5);
    const Histogram h = registry.histogram("run.total_time");
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_EQ(registry.histogram("absent").count(), 0u);
    EXPECT_EQ(registry.histogramNames(),
              std::vector<std::string>{"run.total_time"});
}

TEST(Metrics, ClearDropsEverything)
{
    MetricsRegistry registry;
    CounterSlot &c = registry.counterSlot("c");
    HistogramSlot &h = registry.histogramSlot("h");
    // Resolving a slot is not an update: the names stay hidden.
    EXPECT_TRUE(registry.counterNames().empty());
    EXPECT_TRUE(registry.histogramNames().empty());
    registry.add("c");
    registry.observe("h", 1.0);
    registry.clear();
    EXPECT_TRUE(registry.counterNames().empty());
    EXPECT_TRUE(registry.histogramNames().empty());
    EXPECT_EQ(registry.toJson(),
              "{\"counters\": {}, \"histograms\": {}}");
    EXPECT_EQ(registry.toCsv(), "kind,name,count,sum,min,max,mean\n");

    // Slots cached before clear() still work, start from zero, and
    // bring their names back on the next update.
    c.add(2.0);
    EXPECT_DOUBLE_EQ(registry.counter("c"), 2.0);
    EXPECT_EQ(registry.counterNames(), std::vector<std::string>{"c"});
    EXPECT_TRUE(registry.histogramNames().empty());
    h.observe(-3.0);
    const Histogram hist = registry.histogram("h");
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_DOUBLE_EQ(hist.min(), -3.0);
    EXPECT_DOUBLE_EQ(hist.max(), -3.0);
    EXPECT_EQ(registry.histogramNames(), std::vector<std::string>{"h"});
}

TEST(Metrics, JsonExportShape)
{
    MetricsRegistry registry;
    registry.add("runs.total", 3.0);
    registry.observe("run.total_time", 4.0);
    const std::string json = registry.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"runs.total\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"mean\": 4"), std::string::npos);
}

TEST(Metrics, CsvExportShape)
{
    MetricsRegistry registry;
    registry.add("runs.total", 2.0);
    registry.observe("run.total_time", 1.0);
    const std::string csv = registry.toCsv();
    EXPECT_EQ(csv.rfind("kind,name,count,sum,min,max,mean", 0), 0u);
    EXPECT_NE(csv.find("counter,runs.total"), std::string::npos);
    EXPECT_NE(csv.find("histogram,run.total_time,1,1"),
              std::string::npos);
}

TEST(Metrics, ConcurrentAddsAreExact)
{
    // Half the workers update by name, half through cached slots;
    // thread t observes t*kAdds + i, so every value is distinct and
    // the sum, min and max are known exactly.
    MetricsRegistry registry;
    constexpr int kThreads = 8, kAdds = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&registry, t] {
            CounterSlot &hits = registry.counterSlot("hits");
            HistogramSlot &values = registry.histogramSlot("values");
            for (int i = 0; i < kAdds; ++i) {
                const double v = t * kAdds + i;
                if (t % 2 == 0) {
                    registry.add("hits");
                    registry.observe("values", v);
                } else {
                    hits.add();
                    values.observe(v);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    constexpr int kTotal = kThreads * kAdds;
    EXPECT_DOUBLE_EQ(registry.counter("hits"), kTotal);
    const Histogram h = registry.histogram("values");
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kTotal));
    EXPECT_DOUBLE_EQ(h.sum(), kTotal * (kTotal - 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), kTotal - 1.0);
}

TEST(Metrics, GlobalIsASingleton)
{
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(Metrics, SweepRecordsKernelCountersOncePerGate)
{
    // The sweep executor touches every chunk in its fan-out but must
    // record the kernel counters once per gate per sweep with the
    // full modeled totals - a per-chunk recording bug would inflate
    // invocations by the chunk count. Run from one thread, then from
    // four at once (the shot fan-out's pattern): no update is lost.
    auto &registry = MetricsRegistry::global();
    const int n = 8, chunk_bits = 4; // 16 chunks
    const std::vector<Gate> gates = {Gate(GateKind::H, {0}),
                                     Gate(GateKind::H, {1})};
    const auto sweep = [&] {
        ChunkedStateVector state(n, chunk_bits);
        applySweepChunked(state, gates, {});
    };

    for (const int threads : {1, 4}) {
        const double inv0 =
            registry.counter("kernel.dense1q.invocations");
        const double amps0 = registry.counter("kernel.dense1q.amps");
        const double sweeps0 = registry.counter("sweep.count");
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t)
            workers.emplace_back(sweep);
        for (auto &w : workers)
            w.join();

        EXPECT_DOUBLE_EQ(
            registry.counter("kernel.dense1q.invocations") - inv0,
            2.0 * threads);
        EXPECT_DOUBLE_EQ(
            registry.counter("kernel.dense1q.amps") - amps0,
            2.0 * threads * static_cast<double>(stateSize(n)));
        EXPECT_DOUBLE_EQ(registry.counter("sweep.count") - sweeps0,
                         threads);
    }
}

TEST(Metrics, HarnessPublishesRunMetrics)
{
    auto &registry = MetricsRegistry::global();
    registry.clear();

    const Circuit c = circuits::makeBenchmark("bv", 8);
    Machine m = harness::benchMachine(8);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn("qgpu", m, c, o);

    EXPECT_DOUBLE_EQ(registry.counter("runs.total"), 1.0);
    EXPECT_DOUBLE_EQ(registry.counter("runs.Q-GPU"), 1.0);
    const Histogram total = registry.histogram("run.total_time");
    ASSERT_EQ(total.count(), 1u);
    EXPECT_DOUBLE_EQ(total.sum(), r.totalTime);
    EXPECT_GT(registry.histogram("run.bytes_h2d").sum(), 0.0);
    registry.clear();
}

} // namespace
} // namespace qgpu
