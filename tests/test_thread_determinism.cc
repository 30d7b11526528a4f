/**
 * @file
 * Thread-count determinism: the parallel execution layer fans
 * independent work items (chunk groups, amplitude ranges, codec
 * ranges) across the pool with no cross-item floating-point
 * accumulation, so every engine and every hot path must produce
 * BIT-IDENTICAL results at any worker count. Tolerance here is zero
 * by design — "close enough" would hide a partitioning bug.
 *
 * Also hosts the overlapping-apply stress test that the
 * ThreadSanitizer pass (scripts/check.sh --tsan) leans on.
 */

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/thread_pool.hh"
#include "compress/gfc.hh"
#include "harness/experiment.hh"
#include "statevec/apply.hh"

namespace qgpu
{
namespace
{

int
hardwareCount()
{
    return std::max(2, ThreadPool::hardwareThreads());
}

/** Thread counts every determinism case sweeps (vs 1-thread). */
std::vector<int>
sweptThreadCounts()
{
    std::vector<int> counts = {2, 4};
    const int hw = hardwareCount();
    if (hw != 2 && hw != 4)
        counts.push_back(hw);
    return counts;
}

class EngineThreadDeterminism
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(EngineThreadDeterminism, BitIdenticalAcrossThreadCounts)
{
    const auto &[family, engine] = GetParam();
    const int n = 8;
    const Circuit circuit = circuits::makeBenchmark(family, n);

    ExecOptions o;
    o.targetChunks = 16;
    o.codecSampleChunks = 0;

    setSimThreads(1);
    Machine ref_machine = harness::benchMachine(n);
    const RunResult ref =
        harness::makeEngine(engine, ref_machine, o)->run(circuit);

    for (const int threads : sweptThreadCounts()) {
        setSimThreads(threads);
        Machine machine = harness::benchMachine(n);
        const RunResult got =
            harness::makeEngine(engine, machine, o)->run(circuit);
        setSimThreads(1);

        ASSERT_EQ(got.state.size(), ref.state.size());
        for (Index i = 0; i < ref.state.size(); ++i)
            ASSERT_EQ(ref.state[i], got.state[i])
                << engine << " on " << family << " diverged at amp "
                << i << " with " << threads << " threads";
        // The virtual-time schedule is host bookkeeping and must not
        // depend on the host thread count either.
        EXPECT_DOUBLE_EQ(ref.totalTime, got.totalTime)
            << engine << " on " << family << " at " << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndEngines, EngineThreadDeterminism,
    ::testing::Combine(
        ::testing::ValuesIn(circuits::benchmarkNames()),
        ::testing::Values("baseline", "naive", "overlap", "pruning",
                          "reorder", "qgpu", "cpu", "qsim", "qdk")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::get<1>(info.param);
    });

class ChunkedApplyDeterminism
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(ChunkedApplyDeterminism, BitIdenticalAcrossThreadCounts)
{
    const std::string family = GetParam();
    const int n = 12;
    const Circuit circuit = circuits::makeBenchmark(family, n);

    setSimThreads(1);
    ChunkedStateVector ref(n, n - 4); // 16 chunks
    applyCircuitChunked(ref, circuit);

    for (const int threads : sweptThreadCounts()) {
        setSimThreads(threads);
        ChunkedStateVector got(n, n - 4);
        applyCircuitChunked(got, circuit);
        setSimThreads(1);

        for (Index c = 0; c < ref.numChunks(); ++c) {
            const auto &want = ref.chunk(c);
            const auto &have = got.chunk(c);
            for (Index i = 0; i < static_cast<Index>(want.size());
                 ++i)
                ASSERT_EQ(want[i], have[i])
                    << family << " chunk " << c << " amp " << i
                    << " with " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ChunkedApplyDeterminism,
    ::testing::ValuesIn(circuits::benchmarkNames()));

class GfcThreadDeterminism : public ::testing::Test
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_F(GfcThreadDeterminism, ParallelStreamIsByteIdentical)
{
    // Large enough to split into several codec ranges.
    const StateVector s =
        simulateReference(circuits::makeBenchmark("gs", 16));
    const double *data =
        reinterpret_cast<const double *>(s.amplitudes().data());
    const std::uint64_t count = 2 * s.size();

    for (const int segments : {1, 32}) {
        const GfcCodec codec(32, segments);
        setSimThreads(1);
        const CompressedBlock serial = codec.compress(data, count);
        const std::uint64_t serial_size =
            codec.compressedSize(data, count);
        EXPECT_EQ(serial.bytes.size(), serial_size);

        for (const int threads : sweptThreadCounts()) {
            setSimThreads(threads);
            const CompressedBlock parallel =
                codec.compress(data, count);
            EXPECT_EQ(serial.bytes, parallel.bytes)
                << segments << " segments, " << threads
                << " threads";
            EXPECT_EQ(codec.compressedSize(data, count),
                      serial_size);

            // Parallel decompression reconstructs bit-exactly.
            std::vector<double> out(count);
            codec.decompress(serial, out.data());
            for (std::uint64_t i = 0; i < count; ++i)
                ASSERT_EQ(data[i], out[i])
                    << "element " << i << " with " << threads
                    << " threads";
            setSimThreads(1);
        }
    }
}

TEST_F(GfcThreadDeterminism, BatchMatchesPerBlockCalls)
{
    const StateVector s =
        simulateReference(circuits::makeBenchmark("qft", 14));
    const double *data =
        reinterpret_cast<const double *>(s.amplitudes().data());
    const std::uint64_t count = 2 * s.size();
    const GfcCodec codec;

    constexpr std::size_t kBlocks = 8;
    const std::uint64_t per = count / kBlocks;
    std::vector<DoubleRun> runs;
    for (std::size_t b = 0; b < kBlocks; ++b)
        runs.push_back({data + b * per, per});

    setSimThreads(hardwareCount());
    const auto blocks = compressBatch(codec, runs);
    ASSERT_EQ(blocks.size(), kBlocks);
    setSimThreads(1);
    for (std::size_t b = 0; b < kBlocks; ++b) {
        const CompressedBlock want =
            codec.compress(runs[b].data, runs[b].count);
        EXPECT_EQ(want.bytes, blocks[b].bytes) << "block " << b;
    }

    std::vector<double> out(count);
    std::vector<std::pair<const CompressedBlock *, double *>> items;
    for (std::size_t b = 0; b < kBlocks; ++b)
        items.emplace_back(&blocks[b], out.data() + b * per);
    setSimThreads(hardwareCount());
    decompressBatch(codec, items);
    setSimThreads(1);
    for (std::uint64_t i = 0; i < kBlocks * per; ++i)
        ASSERT_EQ(data[i], out[i]) << "element " << i;
}

TEST(ThreadStress, OverlappingChunkedAppliesOnSharedPool)
{
    // Several external threads each run chunked applies with the
    // pool engaged, concurrently. States are disjoint, the pool and
    // its queue are shared: this is the test the TSan pass hammers.
    setSimThreads(4);
    constexpr int kDrivers = 4;
    const Circuit circuit = circuits::makeBenchmark("qft", 10);
    std::atomic<int> mismatches{0};

    setSimThreads(1);
    ChunkedStateVector ref(10, 6);
    applyCircuitChunked(ref, circuit);
    setSimThreads(4);

    std::vector<std::thread> drivers;
    for (int d = 0; d < kDrivers; ++d) {
        drivers.emplace_back([&] {
            for (int round = 0; round < 3; ++round) {
                ChunkedStateVector state(10, 6);
                applyCircuitChunked(state, circuit);
                for (Index c = 0; c < ref.numChunks(); ++c)
                    if (!std::ranges::equal(state.chunk(c),
                                            ref.chunk(c)))
                        ++mismatches;
            }
        });
    }
    for (auto &t : drivers)
        t.join();
    setSimThreads(1);
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace qgpu
