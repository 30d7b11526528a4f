/**
 * @file
 * Google-benchmark microbenchmarks for the gate-application kernels:
 * the actual (wall-clock) cost of the functional simulation layer on
 * this machine, per gate shape and state size.
 *
 * Two groups:
 *  - BM_Apply*: end-to-end StateVector::apply cost (threading and
 *    dispatch included), per gate shape and register size, at one
 *    thread and at the full hardware thread count (the same serial /
 *    saturated pairing bench_micro_parallel records for the chunked
 *    layer, via the shared bench_micro_common helper).
 *  - BM_Kind*: single-thread generic-vs-specialized comparison per
 *    KernelKind on one raw buffer. "Generic" is the accessor-based
 *    kernels::applyK reference (the pre-dispatch k-qubit path),
 *    "Routed" is kernels::applyGate (the old shape routing, kept as a
 *    regression guard), "Dispatch" and "DispatchAvx2" are the
 *    specialized contiguous kernels of the two exact copies behind
 *    applyKernel (baseline SSE2 and AVX2), and "DispatchFast" is the
 *    same spec through the fast-math tier entry point (contracted-FMA
 *    codegen when the build compiled it; the label notes the exact
 *    fallback otherwise). Dispatch should run at least 2x Generic
 *    for dense-1q, diag-1q/2q, and ctrl-1q on chunk-local (low)
 *    targets.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench_micro_common.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/kernels.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

void
BM_Apply1q(benchmark::State &bench_state)
{
    const int n = static_cast<int>(bench_state.range(0));
    setSimThreads(static_cast<int>(bench_state.range(1)));
    StateVector state(n);
    const Gate h(GateKind::H, {n / 2});
    for (auto _ : bench_state) {
        state.apply(h);
        benchmark::DoNotOptimize(state.amplitudes().data());
    }
    setSimThreads(1);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(state.size()));
}
BENCHMARK(BM_Apply1q)
    ->Apply([](benchmark::internal::Benchmark *b) {
        bench::qubitThreadArgs(b, {12, 16, 20});
    })
    ->UseRealTime();

void
BM_ApplyDiag(benchmark::State &bench_state)
{
    const int n = static_cast<int>(bench_state.range(0));
    setSimThreads(static_cast<int>(bench_state.range(1)));
    StateVector state(n);
    const Gate cp(GateKind::CP, {0, n - 1}, {0.37});
    for (auto _ : bench_state) {
        state.apply(cp);
        benchmark::DoNotOptimize(state.amplitudes().data());
    }
    setSimThreads(1);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(state.size()));
}
BENCHMARK(BM_ApplyDiag)
    ->Apply([](benchmark::internal::Benchmark *b) {
        bench::qubitThreadArgs(b, {12, 16, 20});
    })
    ->UseRealTime();

void
BM_Apply2q(benchmark::State &bench_state)
{
    const int n = static_cast<int>(bench_state.range(0));
    setSimThreads(static_cast<int>(bench_state.range(1)));
    StateVector state(n);
    const Gate cx(GateKind::CX, {1, n - 2});
    for (auto _ : bench_state) {
        state.apply(cx);
        benchmark::DoNotOptimize(state.amplitudes().data());
    }
    setSimThreads(1);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(state.size()));
}
BENCHMARK(BM_Apply2q)
    ->Apply([](benchmark::internal::Benchmark *b) {
        bench::qubitThreadArgs(b, {12, 16, 20});
    })
    ->UseRealTime();

void
BM_ApplyFused4q(benchmark::State &bench_state)
{
    const int n = static_cast<int>(bench_state.range(0));
    setSimThreads(static_cast<int>(bench_state.range(1)));
    StateVector state(n);
    // A dense 4-qubit custom gate, as fusion produces.
    const GateMatrix m = GateMatrix::identity(16);
    const Gate g = Gate::makeCustom({0, 1, n - 2, n - 1}, m.data());
    for (auto _ : bench_state) {
        state.apply(g);
        benchmark::DoNotOptimize(state.amplitudes().data());
    }
    setSimThreads(1);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(state.size()));
}
BENCHMARK(BM_ApplyFused4q)
    ->Apply([](benchmark::internal::Benchmark *b) {
        bench::qubitThreadArgs(b, {12, 16});
    })
    ->UseRealTime();

// ---------------------------------------------------------------------
// Per-kind generic vs specialized, single thread, raw buffer.
// ---------------------------------------------------------------------

/** Register size for the per-kind comparisons. */
constexpr int kKindQubits = 18;

/** The gate exercising each kind, on chunk-local (low) targets. */
Gate
kindGate(KernelKind kind)
{
    switch (kind) {
    case KernelKind::Diag1q:
        return Gate(GateKind::RZ, {2}, {0.37});
    case KernelKind::Diag2q:
        return Gate(GateKind::CP, {1, 3}, {0.7});
    case KernelKind::DiagK:
        return Gate(GateKind::CCZ, {0, 2, 4});
    case KernelKind::Perm1q:
        return Gate(GateKind::X, {2});
    case KernelKind::Ctrl1q:
        return Gate(GateKind::CX, {1, 3});
    case KernelKind::Dense1q:
        return Gate(GateKind::H, {2});
    case KernelKind::Dense2q:
        return Gate(GateKind::RXX, {1, 3}, {0.9});
    case KernelKind::DenseK:
        return Gate(GateKind::CSWAP, {0, 2, 4});
    }
    return Gate(GateKind::H, {2});
}

std::vector<Amp>
kindBuffer()
{
    Rng rng(1234);
    std::vector<Amp> amps(stateSize(kKindQubits));
    for (Amp &a : amps)
        a = Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return amps;
}

/** Generic baseline: the accessor-based applyK reference. */
void
BM_KindGeneric(benchmark::State &bench_state)
{
    const auto kind = static_cast<KernelKind>(bench_state.range(0));
    const Gate gate = kindGate(kind);
    const GateMatrix m = gate.matrix();
    std::vector<Amp> amps = kindBuffer();
    Amp *data = amps.data();
    for (auto _ : bench_state) {
        kernels::applyK([data](Index i) -> Amp & { return data[i]; },
                        kKindQubits, gate.qubits, m);
        benchmark::DoNotOptimize(data);
    }
    bench_state.SetLabel(kernelKindName(kind));
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(amps.size()));
}
BENCHMARK(BM_KindGeneric)->DenseRange(0, numKernelKinds - 1);

/** Old shape routing (applyDiag1q/apply1q/applyDiagK/applyK). */
void
BM_KindRouted(benchmark::State &bench_state)
{
    const auto kind = static_cast<KernelKind>(bench_state.range(0));
    const Gate gate = kindGate(kind);
    std::vector<Amp> amps = kindBuffer();
    Amp *data = amps.data();
    for (auto _ : bench_state) {
        kernels::applyGate(
            [data](Index i) -> Amp & { return data[i]; },
            kKindQubits, gate);
        benchmark::DoNotOptimize(data);
    }
    bench_state.SetLabel(kernelKindName(kind));
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(amps.size()));
}
BENCHMARK(BM_KindRouted)->DenseRange(0, numKernelKinds - 1);

/** The kind's spec through one compilation's dispatch entry; the
 *  label is the kind plus @p copy. */
void
runKindDispatch(benchmark::State &bench_state,
                decltype(&kern::dispatch) dispatch, const std::string &copy)
{
    const auto kind = static_cast<KernelKind>(bench_state.range(0));
    const KernelSpec spec = makeKernelSpec(kindGate(kind));
    std::vector<Amp> amps = kindBuffer();
    Amp *data = amps.data();
    const Index items = kernelWorkItems(spec, kKindQubits);
    for (auto _ : bench_state) {
        dispatch(spec, data, kKindQubits, 0, items);
        benchmark::DoNotOptimize(data);
        benchmark::ClobberMemory();
    }
    bench_state.SetLabel(std::string(kernelKindName(kind)) + "/" + copy);
    bench_state.SetItemsProcessed(
        static_cast<std::int64_t>(bench_state.iterations()) *
        static_cast<std::int64_t>(amps.size()));
}

/** Specialized contiguous kernels, baseline exact copy (kern::, SSE2
 *  on x86-64): what applyKernel runs on hosts without AVX2. */
void
BM_KindDispatch(benchmark::State &bench_state)
{
    runKindDispatch(bench_state, kern::dispatch, "sse2");
}
BENCHMARK(BM_KindDispatch)->DenseRange(0, numKernelKinds - 1);

/** The same kernels, AVX2 exact copy (kernavx2::, bit-identical to
 *  kern::): what applyKernel runs on AVX2 hosts. */
void
BM_KindDispatchAvx2(benchmark::State &bench_state)
{
    if (std::string_view(exactKernels().isa) != "avx2") {
        bench_state.SkipWithError("host has no AVX2");
        return;
    }
    runKindDispatch(bench_state, kernavx2::dispatch, "avx2");
}
BENCHMARK(BM_KindDispatchAvx2)->DenseRange(0, numKernelKinds - 1);

/**
 * Fast-math tier of the same specialized kernels: contracted-FMA /
 * wider-vector codegen when the build compiled the fast TU
 * (QGPU_FAST_MATH=ON); otherwise kernfast compiles to the exact
 * kernels and the row's label says so. The delta over the exact rows
 * is what --fast-math buys per kernel kind on this machine.
 */
void
BM_KindDispatchFast(benchmark::State &bench_state)
{
    runKindDispatch(bench_state, kernfast::dispatch,
                    fastMathCompiled() ? "fma" : "exact-fallback");
}
BENCHMARK(BM_KindDispatchFast)->DenseRange(0, numKernelKinds - 1);

} // namespace
} // namespace qgpu

BENCHMARK_MAIN();
