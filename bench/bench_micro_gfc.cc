/**
 * @file
 * Google-benchmark microbenchmarks for the GFC codec: compression and
 * decompression throughput on smooth, quantum-state, and random
 * payloads, and the block-size sweep that places the codec's
 * inline/fan-out crossover.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_micro_common.hh"
#include "circuits/circuits.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compress/gfc.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

std::vector<double>
payload(const std::string &kind, std::size_t count)
{
    std::vector<double> data(count);
    if (kind == "smooth") {
        for (std::size_t i = 0; i < count; ++i)
            data[i] = 0.125;
    } else if (kind == "random") {
        Rng rng(99);
        for (auto &v : data)
            v = rng.nextDouble() - 0.5;
    } else { // quantum state (gs)
        const StateVector s = simulateReference(
            circuits::graphState(16));
        for (std::size_t i = 0; i < count; ++i)
            data[i] = reinterpret_cast<const double *>(
                s.amplitudes().data())[i % (2 * s.size())];
    }
    return data;
}

void
BM_GfcCompress(benchmark::State &state, const std::string &kind)
{
    GfcCodec codec;
    const auto data = payload(kind, 1 << 16);
    for (auto _ : state) {
        const CompressedBlock block =
            codec.compress(data.data(), data.size());
        benchmark::DoNotOptimize(block.bytes.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(data.size() * sizeof(double)));
}
BENCHMARK_CAPTURE(BM_GfcCompress, smooth, std::string("smooth"));
BENCHMARK_CAPTURE(BM_GfcCompress, state, std::string("state"));
BENCHMARK_CAPTURE(BM_GfcCompress, random, std::string("random"));

void
BM_GfcDecompress(benchmark::State &state, const std::string &kind)
{
    GfcCodec codec;
    const auto data = payload(kind, 1 << 16);
    const CompressedBlock block =
        codec.compress(data.data(), data.size());
    std::vector<double> out(data.size());
    for (auto _ : state) {
        codec.decompress(block, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(data.size() * sizeof(double)));
}
BENCHMARK_CAPTURE(BM_GfcDecompress, smooth, std::string("smooth"));
BENCHMARK_CAPTURE(BM_GfcDecompress, random, std::string("random"));

void
BM_GfcSizeOnly(benchmark::State &state)
{
    GfcCodec codec(32, 1);
    const auto data = payload("state", 1 << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            codec.compressedPayloadSize(data.data(), data.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(data.size() * sizeof(double)));
}
BENCHMARK(BM_GfcSizeOnly);

/**
 * Encode then decode one 32-segment block of random doubles, per
 * {words, threads} pair; the encode_us and decode_us counters split
 * each round trip. Blocks under the segment loops' cutoff run inline,
 * larger ones fan out over the pool. To time one side of the
 * crossover at every size, run with QGPU_PAR_CUTOFF=0 (always fan
 * out) or QGPU_PAR_CUTOFF=1e12 (always inline).
 */
void
BM_GfcRoundTrip(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto words = static_cast<std::size_t>(state.range(0));
    setSimThreads(static_cast<int>(state.range(1)));
    const GfcCodec codec;
    const auto data = payload("random", words);
    CompressedBlock block;
    std::vector<double> out(words);
    std::chrono::duration<double, std::micro> encode{0}, decode{0};
    for (auto _ : state) {
        const auto t0 = Clock::now();
        codec.compressInto(data.data(), words, block);
        const auto t1 = Clock::now();
        codec.decompress(block, out.data());
        const auto t2 = Clock::now();
        encode += t1 - t0;
        decode += t2 - t1;
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    setSimThreads(1);
    state.counters["encode_us"] = benchmark::Counter(
        encode.count(), benchmark::Counter::kAvgIterations);
    state.counters["decode_us"] = benchmark::Counter(
        decode.count(), benchmark::Counter::kAvgIterations);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(words * sizeof(double)));
}
BENCHMARK(BM_GfcRoundTrip)
    ->Apply([](benchmark::internal::Benchmark *b) {
        // {words, threads}: each size at 1 and at hardware threads.
        bench::qubitThreadArgs(b,
                               {512, 2048, 4096, 8192, 16384, 65536});
    })
    ->UseRealTime();

} // namespace
} // namespace qgpu

BENCHMARK_MAIN();
