/**
 * @file
 * Accuracy-tier differential harness: the fast-math kernel tier and
 * the fp32/adaptive storage precision must stay inside their
 * contracts against the exact tier, for every circuit family, every
 * engine version, the pruning ablations, and device counts 1/2/4.
 *
 * Contracts under test (DESIGN.md §14):
 *   fast-math (f64 storage)  max |amp diff| < 1e-12 vs exact
 *   f32 storage              max |amp diff| < 1e-5 vs exact
 *   f32 across device counts bit-identical to the 1-device f32 run
 *   adaptive, threshold 0    bit-identical to the f32 run
 *   adaptive, huge threshold bit-identical to the exact f64 run
 *   f32 transfer accounting  bytes.h2d exactly halved
 *
 * The binary also exercises the cache-geometry-derived sweep tiling:
 * ctest launches it with QGPU_L2_BYTES=64K (tests/CMakeLists.txt), so
 * chunks above 2^11 amplitudes run the tiled chunk-local path, whose
 * bit-identity the sweep differential below checks directly.
 */

#include <cstdlib>
#include <span>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/cacheinfo.hh"
#include "common/parallel.hh"
#include "harness/experiment.hh"
#include "prune/involvement.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{
namespace
{

constexpr int kQubits = 9;

RunResult
runTier(Version version, const Circuit &circuit, bool fast_math,
        Precision precision, int devices = 1,
        double adaptive_threshold = 1e-6)
{
    ExecOptions o;
    o.targetChunks = 32;
    o.codecSampleChunks = 0;
    o.faultSpec = "none";
    o.fastMath = fast_math;
    o.precision = precision;
    o.adaptiveThreshold = adaptive_threshold;
    // Fraction 1.0 so multi-device runs shard the whole state (the
    // cross-device-count bit-identity contract from
    // test_shard_differential carries over to the fp32 lane).
    Machine machine = machines::makeScaled(circuit.numQubits(),
                                           machines::p4(), 1.0,
                                           devices);
    return makeVersion(version, machine, o)->run(circuit);
}

class PrecisionDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PrecisionDifferential, TiersWithinContractForEveryVersion)
{
    const std::string &family = GetParam();
    const Circuit circuit = circuits::makeBenchmark(family, kQubits);

    // Exact reference: Baseline, exact kernels, f64 storage.
    const RunResult exact = runTier(Version::Baseline, circuit,
                                    false, Precision::f64);
    ASSERT_TRUE(exact.ok());

    for (const Version version : allVersions()) {
        const RunResult fast =
            runTier(version, circuit, true, Precision::f64);
        ASSERT_TRUE(fast.ok());
        EXPECT_LT(fast.state.maxAbsDiff(exact.state), 1e-12)
            << versionName(version) << " fast-math diverged on "
            << family;

        const RunResult narrow =
            runTier(version, circuit, false, Precision::f32);
        ASSERT_TRUE(narrow.ok());
        EXPECT_LT(narrow.state.maxAbsDiff(exact.state), 1e-5)
            << versionName(version) << " f32 diverged on " << family;

        const RunResult both =
            runTier(version, circuit, true, Precision::f32);
        ASSERT_TRUE(both.ok());
        EXPECT_LT(both.state.maxAbsDiff(exact.state), 1e-5)
            << versionName(version) << " fast+f32 diverged on "
            << family;
    }
}

struct PruneMode
{
    const char *name;
    bool dynamicChunks;
    InvolvementPolicy involvement;
};

constexpr PruneMode kModes[] = {
    {"dynamic_perop", true, InvolvementPolicy::PerOp},
    {"static_perop", false, InvolvementPolicy::PerOp},
    {"dynamic_nondiag", true, InvolvementPolicy::NonDiagonal},
};

TEST_P(PrecisionDifferential, F32BitIdenticalAcrossDeviceCounts)
{
    const std::string &family = GetParam();
    const Circuit circuit = circuits::makeBenchmark(family, kQubits);
    const RunResult exact = runTier(Version::Baseline, circuit,
                                    false, Precision::f64);
    ASSERT_TRUE(exact.ok());

    for (const PruneMode &mode : kModes) {
        ExecOptions o;
        o.targetChunks = 32;
        o.codecSampleChunks = 0;
        o.faultSpec = "none";
        o.precision = Precision::f32;
        o.dynamicChunks = mode.dynamicChunks;
        o.involvement = mode.involvement;

        Machine ref_machine = machines::makeScaled(
            kQubits, machines::p4(), 1.0, 1);
        const RunResult ref =
            makeVersion(Version::QGpu, ref_machine, o)->run(circuit);
        ASSERT_TRUE(ref.ok());
        EXPECT_LT(ref.state.maxAbsDiff(exact.state), 1e-5)
            << family << " " << mode.name;

        for (const int devices : {2, 4}) {
            Machine machine = machines::makeScaled(
                kQubits, machines::p4(), 1.0, devices);
            const RunResult r =
                makeVersion(Version::QGpu, machine, o)->run(circuit);
            ASSERT_TRUE(r.ok());
            // fp32 rounding happens per chunk at sweep boundaries,
            // identically on every device count: EXACT equality, as
            // in the f64 shard differential.
            EXPECT_EQ(r.state.maxAbsDiff(ref.state), 0.0)
                << family << " " << mode.name << " at " << devices
                << " devices";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PrecisionDifferential,
    ::testing::ValuesIn(circuits::benchmarkNames()),
    [](const auto &info) { return info.param; });

TEST(PrecisionBytes, F32HalvesModeledTransferBytes)
{
    // Transfer-bound check on streaming (Naive: no prune, no
    // compress): every chunk crosses the bus each sweep, so halving
    // the stored amp width must halve bytes.h2d exactly.
    for (const char *family : {"qft", "gs", "rqc"}) {
        const Circuit circuit =
            circuits::makeBenchmark(family, kQubits);
        const RunResult wide = runTier(Version::Naive, circuit,
                                       false, Precision::f64);
        const RunResult narrow = runTier(Version::Naive, circuit,
                                         false, Precision::f32);
        ASSERT_TRUE(wide.ok());
        ASSERT_TRUE(narrow.ok());
        const double wide_h2d = wide.stats.get(statkeys::bytesH2d);
        const double narrow_h2d =
            narrow.stats.get(statkeys::bytesH2d);
        ASSERT_GT(wide_h2d, 0.0) << family;
        EXPECT_DOUBLE_EQ(narrow_h2d * 2.0, wide_h2d) << family;
        EXPECT_LT(narrow.totalTime, wide.totalTime) << family;
    }
}

TEST(AdaptivePrecision, ThresholdZeroMatchesF32Exactly)
{
    const Circuit circuit = circuits::makeBenchmark("qft", kQubits);
    const RunResult narrow = runTier(Version::QGpu, circuit, false,
                                     Precision::f32);
    // Threshold 0: no chunk's max magnitude is below 0, so every
    // chunk lives in the fp32 lane — identical to Precision::f32.
    const RunResult adaptive = runTier(Version::QGpu, circuit, false,
                                       Precision::adaptive, 1, 0.0);
    ASSERT_TRUE(narrow.ok());
    ASSERT_TRUE(adaptive.ok());
    EXPECT_EQ(adaptive.state.maxAbsDiff(narrow.state), 0.0);
    EXPECT_EQ(adaptive.stats.get("precision.promoted_chunks"), 0.0);
}

TEST(AdaptivePrecision, HugeThresholdMatchesF64Exactly)
{
    const Circuit circuit = circuits::makeBenchmark("qft", kQubits);
    const RunResult exact = runTier(Version::QGpu, circuit, false,
                                    Precision::f64);
    // Every chunk's max magnitude falls below 1e9, so every chunk is
    // promoted to (kept in) the f64 lane: nothing is ever rounded.
    const RunResult adaptive = runTier(Version::QGpu, circuit, false,
                                       Precision::adaptive, 1, 1e9);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(adaptive.ok());
    EXPECT_EQ(adaptive.state.maxAbsDiff(exact.state), 0.0);
    EXPECT_GT(adaptive.stats.get("precision.promoted_chunks"), 0.0);
}

TEST(CacheInfo, DerivedSizesFollowGeometry)
{
    CacheGeometry g;
    g.l1dBytes = 48u * 1024;
    g.l2Bytes = 2048u * 1024;
    g.l3Bytes = 32u * 1024 * 1024;
    // Half of 2 MiB is 1 MiB = 2^16 amps.
    EXPECT_EQ(sweepTileBits(g), 16);
    // 4 * 48K / 8 = 24576 words, inside the clamp window.
    EXPECT_EQ(codecGrainWords(g), Index{24576});
    EXPECT_EQ(scratchRetainAmps(g),
              static_cast<std::size_t>(g.l3Bytes / 2 / ampBytes));

    g.l2Bytes = 1; // degenerate: clamp low
    EXPECT_EQ(sweepTileBits(g), 10);
    g.l2Bytes = 1ull << 40; // clamp high
    EXPECT_EQ(sweepTileBits(g), 26);

    g.l1dBytes = 1;
    EXPECT_EQ(codecGrainWords(g), Index{1} << 12);
    g.l1dBytes = 1ull << 30;
    EXPECT_EQ(codecGrainWords(g), Index{1} << 17);
}

TEST(CacheInfo, EnvOverridesParseSuffixes)
{
    ASSERT_EQ(setenv("QGPU_L2_BYTES", "3M", 1), 0);
    EXPECT_EQ(detectCacheGeometry().l2Bytes, 3ull << 20);
    ASSERT_EQ(setenv("QGPU_L2_BYTES", "64K", 1), 0);
    EXPECT_EQ(detectCacheGeometry().l2Bytes, 64ull << 10);
    ASSERT_EQ(setenv("QGPU_L2_BYTES", "1G", 1), 0);
    EXPECT_EQ(detectCacheGeometry().l2Bytes, 1ull << 30);
    ASSERT_EQ(setenv("QGPU_L2_BYTES", "123456", 1), 0);
    EXPECT_EQ(detectCacheGeometry().l2Bytes, 123456u);

    // Junk falls back to the detected/default value instead of 0.
    ASSERT_EQ(setenv("QGPU_L2_BYTES", "lots", 1), 0);
    EXPECT_GT(detectCacheGeometry().l2Bytes, 0u);
    ASSERT_EQ(unsetenv("QGPU_L2_BYTES"), 0);
}

/** Gate-by-gate reference for the tiling differential. */
void
runGateByGate(ChunkedStateVector &state, const Circuit &circuit)
{
    for (const Gate &gate : circuit.gates())
        applyGateChunked(state, gate);
}

void
runSweeps(ChunkedStateVector &state, const Circuit &circuit)
{
    const std::span<const Gate> gates{circuit.gates()};
    std::size_t at = 0;
    while (at < gates.size()) {
        const Sweep sw = nextSweep(gates, at, state.chunkBits());
        applySweepChunked(state,
                          gates.subspan(sw.begin, sw.size()),
                          sw.globalBits);
        at = sw.end;
    }
}

class SweepTiling : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(SweepTiling, TiledChunkLocalPathBitIdentical)
{
    // ctest runs this binary with QGPU_L2_BYTES=64K, deriving an
    // 11-bit sweep tile; chunks of 2^13 amplitudes then split into 4
    // tiles. Launched by hand on a big-L2 machine the tile swallows
    // the chunk and this differential degenerates to the untiled
    // path (still worth the run, but assert the intended config so a
    // lost CMake ENVIRONMENT property is caught).
    EXPECT_EQ(sweepTileBits(), 11)
        << "expected the QGPU_L2_BYTES=64K test environment";

    const std::string &family = GetParam();
    const int n = 14;
    const int chunk_bits = 13;
    const Circuit circuit = circuits::makeBenchmark(family, n);

    setSimThreads(1);
    ChunkedStateVector ref(n, chunk_bits);
    runGateByGate(ref, circuit);

    for (const int threads : {1, 4}) {
        setSimThreads(threads);
        ChunkedStateVector got(n, chunk_bits);
        runSweeps(got, circuit);
        setSimThreads(1);
        for (Index c = 0; c < ref.numChunks(); ++c) {
            const auto &want = ref.chunk(c);
            const auto &have = got.chunk(c);
            for (Index i = 0; i < static_cast<Index>(want.size());
                 ++i)
                ASSERT_EQ(want[i], have[i])
                    << family << " chunk " << c << " amp " << i
                    << " at " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SweepTiling,
    ::testing::ValuesIn(circuits::benchmarkNames()),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace qgpu
