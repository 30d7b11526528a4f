/**
 * @file
 * Engine accounting invariants: determinism, byte conservation,
 * overlap semantics, and counter consistency across versions.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

RunResult
runQuick(const std::string &engine, const std::string &family,
         int n = 11)
{
    Machine m = harness::benchMachine(n);
    ExecOptions o;
    o.keepState = false;
    return harness::runOn(engine, m,
                          circuits::makeBenchmark(family, n), o);
}

TEST(EngineStats, DeterministicAcrossRuns)
{
    for (const char *engine : {"baseline", "qgpu", "cpu"}) {
        const RunResult a = runQuick(engine, "qft");
        const RunResult b = runQuick(engine, "qft");
        EXPECT_DOUBLE_EQ(a.totalTime, b.totalTime) << engine;
        for (const auto &key : a.stats.names())
            EXPECT_DOUBLE_EQ(a.stats.get(key), b.stats.get(key))
                << engine << " " << key;
    }
}

TEST(EngineStats, StreamingBytesBalance)
{
    // Without pruning or compression, the streaming engines move the
    // same amount in as out (every chunk round-trips).
    for (const char *engine : {"naive", "overlap"}) {
        const RunResult r = runQuick(engine, "hlf");
        EXPECT_DOUBLE_EQ(r.stats.get(statkeys::bytesH2d),
                         r.stats.get(statkeys::bytesD2h))
            << engine;
        EXPECT_GT(r.stats.get(statkeys::bytesH2d), 0.0);
    }
}

TEST(EngineStats, PrunedPlusProcessedIsConstantPerGatePlan)
{
    // With a fixed chunk size, chunks.pruned + chunks.processed must
    // equal the total chunk visits an unpruned run performs (dynamic
    // chunk sizing changes the geometry, so pin it here). Checked on
    // the streamed path (device memory 1/16 of the state) and on the
    // resident one (the whole state fits the device).
    constexpr int kQubits = 11;
    const Circuit c = circuits::makeBenchmark("iqp", kQubits);
    for (const double fraction : {1.0 / 16.0, 1.0}) {
        SCOPED_TRACE(fraction);
        Machine m1 =
            machines::makeScaled(kQubits, machines::p100(), fraction);
        Machine m2 =
            machines::makeScaled(kQubits, machines::p100(), fraction);
        ExecOptions o;
        o.keepState = false;
        o.dynamicChunks = false;
        const RunResult pruned = harness::runOn("pruning", m1, c, o);
        const RunResult plain = harness::runOn("overlap", m2, c, o);
        EXPECT_GT(plain.stats.get(statkeys::chunksProcessed), 0.0);
        EXPECT_DOUBLE_EQ(
            pruned.stats.get(statkeys::chunksPruned) +
                pruned.stats.get(statkeys::chunksProcessed),
            plain.stats.get(statkeys::chunksProcessed));
    }
}

TEST(EngineStats, TransferMetricSemantics)
{
    // Serial engines report transfer = h2d + d2h; overlapped engines
    // report the exposed max of the two.
    const RunResult naive = runQuick("naive", "gs");
    EXPECT_DOUBLE_EQ(naive.stats.get(statkeys::transfer),
                     naive.stats.get(statkeys::h2d) +
                         naive.stats.get(statkeys::d2h));

    const RunResult overlap = runQuick("overlap", "gs");
    EXPECT_DOUBLE_EQ(
        overlap.stats.get(statkeys::transfer),
        std::max(overlap.stats.get(statkeys::h2d),
                 overlap.stats.get(statkeys::d2h)));
}

TEST(EngineStats, TotalTimeBoundsComponents)
{
    for (const char *engine :
         {"baseline", "naive", "overlap", "pruning", "reorder",
          "qgpu"}) {
        const RunResult r = runQuick(engine, "qft");
        EXPECT_GE(r.totalTime,
                  r.stats.get(statkeys::deviceCompute))
            << engine;
        EXPECT_GE(r.totalTime, r.stats.get(statkeys::hostCompute))
            << engine;
        EXPECT_GE(r.totalTime * 1.0000001,
                  std::max(r.stats.get(statkeys::h2d),
                           r.stats.get(statkeys::d2h)))
            << engine;
        EXPECT_DOUBLE_EQ(r.stats.get(statkeys::totalTime),
                         r.totalTime)
            << engine;
    }
}

TEST(EngineStats, FlopsMatchAcrossStreamingVersions)
{
    // Naive and overlap perform identical device work; pruning can
    // only reduce it.
    const RunResult naive = runQuick("naive", "bv");
    const RunResult overlap = runQuick("overlap", "bv");
    const RunResult pruning = runQuick("pruning", "bv");
    EXPECT_DOUBLE_EQ(naive.stats.get(statkeys::flopsDevice),
                     overlap.stats.get(statkeys::flopsDevice));
    EXPECT_LE(pruning.stats.get(statkeys::flopsDevice),
              overlap.stats.get(statkeys::flopsDevice));
}

TEST(EngineStats, BaselineAllocationCounters)
{
    Machine m = harness::benchMachine(11);
    ExecOptions o;
    o.keepState = false;
    o.targetChunks = 64;
    const RunResult r = harness::runOn(
        "baseline", m, circuits::makeBenchmark("gs", 11), o);
    EXPECT_DOUBLE_EQ(r.stats.get("chunks.total"), 64.0);
    EXPECT_DOUBLE_EQ(r.stats.get("chunks.on_device") +
                         r.stats.get("chunks.on_host"),
                     64.0);
    // 1/16 device fraction -> 4 of 64 chunks resident.
    EXPECT_DOUBLE_EQ(r.stats.get("chunks.on_device"), 4.0);
}

TEST(EngineStats, CompressionRatioReportedConsistently)
{
    const RunResult r = runQuick("qgpu", "gs");
    const double in = r.stats.get(statkeys::compressIn);
    const double out = r.stats.get(statkeys::compressOut);
    ASSERT_GT(in, 0.0);
    ASSERT_GT(out, 0.0);
    // Compressed D2H bytes cannot exceed raw.
    EXPECT_LE(out, in);
}

TEST(EngineStats, SyncChargedOnlyBySerialEngines)
{
    EXPECT_GT(runQuick("baseline", "gs").stats.get(statkeys::sync),
              0.0);
    EXPECT_GT(runQuick("naive", "gs").stats.get(statkeys::sync),
              0.0);
    EXPECT_DOUBLE_EQ(
        runQuick("overlap", "gs").stats.get(statkeys::sync), 0.0);
}

} // namespace
} // namespace qgpu
