/**
 * @file
 * Virtual-time behaviour of the engines: the orderings the paper's
 * evaluation hinges on. Each optimization must help (or at least not
 * hurt) on the workloads the paper says it helps on.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

VTime
timeOf(const std::string &engine, const std::string &family, int n,
       ExecOptions o = {})
{
    Machine m = harness::benchMachine(n);
    o.keepState = false;
    return harness::runOn(engine, m,
                          circuits::makeBenchmark(family, n), o)
        .totalTime;
}

TEST(EngineTiming, OverlapBeatsNaiveEverywhere)
{
    for (const auto &family : {"qft", "gs", "qaoa", "hchain"}) {
        EXPECT_LT(timeOf("overlap", family, 12),
                  timeOf("naive", family, 12))
            << family;
    }
}

TEST(EngineTiming, PruningHelpsLateInvolvementCircuits)
{
    // iqp and gs have large pruning potential.
    for (const auto &family : {"iqp", "gs"}) {
        const VTime pruned = timeOf("pruning", family, 12);
        const VTime overlap = timeOf("overlap", family, 12);
        EXPECT_LT(pruned, 0.9 * overlap) << family;
    }
}

TEST(EngineTiming, PruningNeverHurts)
{
    for (const auto &family : {"qaoa", "qf", "hchain", "rqc"}) {
        EXPECT_LE(timeOf("pruning", family, 12),
                  timeOf("overlap", family, 12) * 1.02)
            << family;
    }
}

TEST(EngineTiming, ReorderHelpsQftAndGs)
{
    for (const auto &family : {"qft", "gs"}) {
        EXPECT_LT(timeOf("reorder", family, 12),
                  timeOf("pruning", family, 12) * 1.001)
            << family;
    }
}

TEST(EngineTiming, QgpuBeatsBaselineAlmostEverywhere)
{
    // qaoa is the documented deviation: its dense random-angle state
    // does not GFC-compress here, so the paper's compression win for
    // qaoa does not materialize; Q-GPU stays within ~1.4x of the
    // baseline there instead of beating it (EXPERIMENTS.md).
    for (const auto &family :
         {"hchain", "rqc", "gs", "hlf", "qft", "iqp", "qf", "bv"}) {
        EXPECT_LT(timeOf("qgpu", family, 12),
                  timeOf("baseline", family, 12))
            << family;
    }
    EXPECT_LT(timeOf("qgpu", "qaoa", 12),
              1.4 * timeOf("baseline", "qaoa", 12));
}

TEST(EngineTiming, CompressionHelpsCompressibleFamilies)
{
    for (const auto &family : {"gs", "qft", "bv", "hlf"}) {
        EXPECT_LT(timeOf("qgpu", family, 12),
                  0.9 * timeOf("reorder", family, 12))
            << family;
    }
}

TEST(EngineTiming, CompressionNeverHurts)
{
    // The adaptive raw fallback bounds the loss on incompressible
    // circuits to the sampling overhead.
    for (const auto &family : {"qaoa", "iqp", "hchain", "rqc"}) {
        EXPECT_LE(timeOf("qgpu", family, 12),
                  1.03 * timeOf("reorder", family, 12))
            << family;
    }
}

TEST(EngineTiming, NaiveIsNotFasterThanBaseline)
{
    // Fig. 3: dynamic allocation alone does not help; data movement
    // dominates.
    for (const auto &family : {"qft", "qaoa"}) {
        EXPECT_GE(timeOf("naive", family, 12) * 1.05,
                  timeOf("baseline", family, 12))
            << family;
    }
}

TEST(EngineTiming, BaselineIsCpuDominated)
{
    // Fig. 2: with the device holding 1/16 of the state, most of the
    // baseline's time is host compute.
    Machine m = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "baseline", m, circuits::makeBenchmark("qft", 12), o);
    const double host = r.stats.get(statkeys::hostCompute);
    EXPECT_GT(host / r.totalTime, 0.5);
}

TEST(EngineTiming, NaiveIsTransferDominated)
{
    // Fig. 4: in the naive version data movement dominates.
    Machine m = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "naive", m, circuits::makeBenchmark("qft", 12), o);
    const double transfer = r.stats.get(statkeys::transfer);
    EXPECT_GT(transfer / r.totalTime, 0.5);
    EXPECT_LT(r.stats.get(statkeys::deviceCompute) / r.totalTime,
              0.4);
}

TEST(EngineTiming, PruningMovesFewerBytes)
{
    Machine m1 = harness::benchMachine(12);
    Machine m2 = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    const Circuit c = circuits::makeBenchmark("iqp", 12);
    const RunResult pruned = harness::runOn("pruning", m1, c, o);
    const RunResult overlap = harness::runOn("overlap", m2, c, o);
    EXPECT_LT(pruned.stats.get(statkeys::bytesH2d),
              overlap.stats.get(statkeys::bytesH2d));
    EXPECT_GT(pruned.stats.get(statkeys::chunksPruned), 0.0);
}

TEST(EngineTiming, CompressionMovesFewerBytesOnGs)
{
    Machine m1 = harness::benchMachine(12);
    Machine m2 = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    o.codecSampleChunks = 0;
    const Circuit c = circuits::makeBenchmark("gs", 12);
    const RunResult qgpu = harness::runOn("qgpu", m1, c, o);
    const RunResult reorder = harness::runOn("reorder", m2, c, o);
    EXPECT_LT(qgpu.stats.get(statkeys::bytesD2h),
              reorder.stats.get(statkeys::bytesD2h));
    // Mean measured ratio must exceed 1 for gs.
    EXPECT_GT(qgpu.stats.get(statkeys::compressIn),
              qgpu.stats.get(statkeys::compressOut));
}

TEST(EngineTiming, CompressionOverheadAccounted)
{
    Machine m = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "qgpu", m, circuits::makeBenchmark("gs", 12), o);
    EXPECT_GT(r.stats.get(statkeys::compressTime), 0.0);
    EXPECT_GT(r.stats.get(statkeys::decompressTime), 0.0);
    // Bounded relative to the total. (The fraction runs higher than
    // the paper's ~3% average because compression shrinks gs's total
    // so much that the codec becomes a visible share of what's left.)
    EXPECT_LT(r.stats.get(statkeys::compressTime) / r.totalTime,
              0.4);
}

TEST(EngineTiming, AdaptiveBypassSkipsCodecOnIncompressibleData)
{
    // On qaoa the escape hatch ships almost everything raw (only the
    // sparse early-circuit chunks compress): codec time stays a tiny
    // fraction of the run instead of the ~30% a forced-compression
    // engine would pay.
    Machine m = harness::benchMachine(12);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "qgpu", m, circuits::makeBenchmark("qaoa", 12), o);
    EXPECT_LT(r.stats.get(statkeys::decompressTime) / r.totalTime,
              0.02);
    EXPECT_LT(r.stats.get(statkeys::compressTime) / r.totalTime,
              0.05);
}

TEST(EngineTiming, ResidentSmallCircuitIsFast)
{
    // Below the device capacity the GPU path must beat the CPU path
    // decisively (the paper's <30-qubit observation).
    const int n = 10;
    Machine m1 = machines::makeScaled(n, machines::p100(), 2.0);
    Machine m2 = machines::makeScaled(n, machines::p100(), 2.0);
    const Circuit c = circuits::makeBenchmark("qft", n);
    ExecOptions o;
    o.keepState = false;
    const VTime gpu = harness::runOn("qgpu", m1, c, o).totalTime;
    const VTime cpu = harness::runOn("cpu", m2, c, o).totalTime;
    EXPECT_LT(gpu, cpu);
}

TEST(EngineTiming, TimelineRecordsSpans)
{
    Machine m = harness::benchMachine(10);
    ExecOptions o;
    o.recordTrace = true;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "qgpu", m, circuits::makeBenchmark("gs", 10), o);
    EXPECT_FALSE(r.trace.empty());
    EXPECT_NE(renderTimeline(r.trace, 60).find("p100:0.h2d"),
              std::string::npos);
}

TEST(EngineTiming, StatsContainCanonicalKeys)
{
    Machine m = harness::benchMachine(10);
    ExecOptions o;
    o.keepState = false;
    const RunResult r = harness::runOn(
        "qgpu", m, circuits::makeBenchmark("bv", 10), o);
    for (const char *key :
         {statkeys::totalTime, statkeys::h2d, statkeys::d2h,
          statkeys::transfer, statkeys::deviceCompute,
          statkeys::flopsDevice}) {
        EXPECT_TRUE(r.stats.has(key)) << key;
    }
}

} // namespace
} // namespace qgpu
