/**
 * @file
 * Differential suite for the kernel-dispatch layer: every specialized
 * kernel must be bit-identical (tolerance 0) to the generic
 * accessor-based reference in statevec/kernels.hh, across gate kinds,
 * random matrices, chunk-local and cross-chunk targets, and flat and
 * chunked states. Also covers classification, fused-diagonal
 * detection, range-split determinism, and the per-kind metrics, and
 * that the baseline (kern::) and AVX2 (kernavx2::) exact copies agree
 * bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "qc/fusion.hh"
#include "statevec/apply.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/kernels.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

/** Deterministic non-trivial amplitudes (not normalized; irrelevant). */
std::vector<Amp>
randomAmps(int num_qubits, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Amp> amps(stateSize(num_qubits));
    for (Amp &a : amps)
        a = Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return amps;
}

/** Random dense k-qubit matrix (no unitarity needed for equivalence). */
std::vector<Amp>
randomMatrix(int k, std::uint64_t seed)
{
    Rng rng(seed);
    const int dim = 1 << k;
    std::vector<Amp> m(static_cast<std::size_t>(dim) * dim);
    for (Amp &e : m)
        e = Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return m;
}

/** Random diagonal k-qubit matrix (exact zero off-diagonals). */
std::vector<Amp>
randomDiagMatrix(int k, std::uint64_t seed)
{
    Rng rng(seed);
    const int dim = 1 << k;
    std::vector<Amp> m(static_cast<std::size_t>(dim) * dim,
                       Amp{0, 0});
    for (int i = 0; i < dim; ++i)
        m[static_cast<std::size_t>(i) * dim + i] =
            Amp{rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1};
    return m;
}

/** Max |a - b| over two equally sized amplitude buffers. */
double
maxDiff(const std::vector<Amp> &a, const std::vector<Amp> &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

/**
 * The gates under test, covering every KernelKind with both builtin
 * and random Custom matrices. Targets are parameterized so the same
 * set runs with low (chunk-local) and high (cross-chunk) qubits.
 */
std::vector<Gate>
gateZoo(int lo0, int lo1, int hi0, int hi1)
{
    std::vector<Gate> gates;
    // Diag1q / Diag2q / DiagK
    gates.emplace_back(GateKind::T, std::vector<int>{lo0});
    gates.emplace_back(GateKind::RZ, std::vector<int>{hi0},
                       std::vector<double>{0.37});
    gates.emplace_back(GateKind::CP, std::vector<int>{lo0, hi0},
                       std::vector<double>{1.1});
    gates.emplace_back(GateKind::RZZ, std::vector<int>{lo1, lo0},
                       std::vector<double>{0.6});
    gates.emplace_back(GateKind::CCZ,
                       std::vector<int>{lo0, hi0, lo1});
    gates.push_back(Gate::makeCustom({lo1}, randomDiagMatrix(1, 11)));
    gates.push_back(
        Gate::makeCustom({hi0, lo0}, randomDiagMatrix(2, 12)));
    gates.push_back(
        Gate::makeCustom({lo0, lo1, hi1}, randomDiagMatrix(3, 13)));
    // Perm1q
    gates.emplace_back(GateKind::X, std::vector<int>{lo0});
    gates.emplace_back(GateKind::Y, std::vector<int>{hi1});
    {
        // Random anti-diagonal 1q Custom.
        std::vector<Amp> m = {Amp{0, 0}, Amp{0.6, -0.8},
                              Amp{-0.28, 0.96}, Amp{0, 0}};
        gates.push_back(Gate::makeCustom({lo1}, std::move(m)));
    }
    // Ctrl1q
    gates.emplace_back(GateKind::CX, std::vector<int>{lo0, hi0});
    gates.emplace_back(GateKind::CX, std::vector<int>{hi0, lo0});
    gates.emplace_back(GateKind::CY, std::vector<int>{lo1, lo0});
    gates.emplace_back(GateKind::CCX,
                       std::vector<int>{lo0, hi1, lo1});
    // Dense1q
    gates.emplace_back(GateKind::H, std::vector<int>{lo0});
    gates.emplace_back(GateKind::H, std::vector<int>{hi0});
    gates.emplace_back(GateKind::U, std::vector<int>{lo1},
                       std::vector<double>{0.3, 1.2, -0.7});
    gates.push_back(Gate::makeCustom({hi1}, randomMatrix(1, 21)));
    // Dense2q
    gates.emplace_back(GateKind::SWAP, std::vector<int>{lo0, hi0});
    gates.emplace_back(GateKind::RXX, std::vector<int>{hi0, lo1},
                       std::vector<double>{0.9});
    gates.push_back(
        Gate::makeCustom({lo1, lo0}, randomMatrix(2, 22)));
    gates.push_back(
        Gate::makeCustom({hi1, hi0}, randomMatrix(2, 23)));
    // DenseK
    gates.emplace_back(GateKind::CSWAP,
                       std::vector<int>{hi0, lo0, lo1});
    gates.push_back(
        Gate::makeCustom({lo0, hi0, lo1}, randomMatrix(3, 24)));
    gates.push_back(
        Gate::makeCustom({lo0, lo1, hi0, hi1}, randomMatrix(4, 25)));
    return gates;
}

TEST(KernelDispatch, ClassifiesBuiltinKinds)
{
    const auto kindOf = [](const Gate &g) {
        return makeKernelSpec(g).kind;
    };
    EXPECT_EQ(kindOf(Gate(GateKind::Z, {0})), KernelKind::Diag1q);
    EXPECT_EQ(kindOf(Gate(GateKind::RZ, {3}, {0.5})),
              KernelKind::Diag1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CZ, {1, 4})), KernelKind::Diag2q);
    EXPECT_EQ(kindOf(Gate(GateKind::RZZ, {4, 1}, {0.2})),
              KernelKind::Diag2q);
    EXPECT_EQ(kindOf(Gate(GateKind::CCZ, {0, 2, 4})),
              KernelKind::DiagK);
    EXPECT_EQ(kindOf(Gate(GateKind::X, {2})), KernelKind::Perm1q);
    EXPECT_EQ(kindOf(Gate(GateKind::Y, {2})), KernelKind::Perm1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CX, {0, 5})), KernelKind::Ctrl1q);
    EXPECT_EQ(kindOf(Gate(GateKind::CCX, {0, 1, 5})),
              KernelKind::Ctrl1q);
    EXPECT_EQ(kindOf(Gate(GateKind::H, {0})), KernelKind::Dense1q);
    EXPECT_EQ(kindOf(Gate(GateKind::SX, {1})), KernelKind::Dense1q);
    EXPECT_EQ(kindOf(Gate(GateKind::SWAP, {0, 3})),
              KernelKind::Dense2q);
    EXPECT_EQ(kindOf(Gate(GateKind::RXX, {2, 0}, {0.4})),
              KernelKind::Dense2q);
    EXPECT_EQ(kindOf(Gate(GateKind::CSWAP, {0, 1, 2})),
              KernelKind::DenseK);
}

TEST(KernelDispatch, ClassifiesCustomShapes)
{
    const Gate diag = Gate::makeCustom({2}, randomDiagMatrix(1, 1));
    EXPECT_TRUE(diag.isDiagonal());
    EXPECT_EQ(makeKernelSpec(diag).kind, KernelKind::Diag1q);

    std::vector<Amp> anti = {Amp{0, 0}, Amp{1, 0}, Amp{0, 1},
                             Amp{0, 0}};
    const Gate perm = Gate::makeCustom({2}, std::move(anti));
    EXPECT_FALSE(perm.isDiagonal());
    EXPECT_TRUE(perm.isPermutation());
    EXPECT_EQ(perm.shape(), GateShape::Permutation);
    EXPECT_EQ(makeKernelSpec(perm).kind, KernelKind::Perm1q);

    const Gate dense = Gate::makeCustom({2}, randomMatrix(1, 2));
    EXPECT_EQ(dense.shape(), GateShape::Dense);
    EXPECT_EQ(makeKernelSpec(dense).kind, KernelKind::Dense1q);
}

/** Specialized flat apply == generic reference, exactly. */
TEST(KernelDispatch, FlatMatchesGenericBitExact)
{
    const int n = 10;
    // lo targets below a typical chunk boundary, hi targets above;
    // for the flat register this just spreads strides.
    for (const Gate &gate : gateZoo(0, 2, 7, 9)) {
        std::vector<Amp> got = randomAmps(n, 42);
        std::vector<Amp> want = got;

        const KernelSpec spec = makeKernelSpec(gate);
        applyKernel(spec, got.data(), n);

        Amp *ref = want.data();
        kernels::applyGate([ref](Index i) -> Amp & { return ref[i]; },
                           n, gate);

        EXPECT_EQ(maxDiff(got, want), 0.0)
            << gate.toString() << " (kind "
            << kernelKindName(spec.kind) << ")";
    }
}

/** Arbitrary work-item range splits compose to the full-range result. */
TEST(KernelDispatch, RangeSplitsComposeBitExact)
{
    const int n = 9;
    for (const Gate &gate : gateZoo(1, 3, 6, 8)) {
        const KernelSpec spec = makeKernelSpec(gate);
        const Index items = kernelWorkItems(spec, n);

        std::vector<Amp> got = randomAmps(n, 7);
        std::vector<Amp> want = got;
        applyKernel(spec, want.data(), n);

        // Deliberately misaligned split points.
        const Index cuts[] = {0, items / 3 + 1, items / 2 + 3, items};
        for (int s = 0; s + 1 < 4; ++s)
            applyKernel(spec, got.data(), n, cuts[s],
                        std::min(cuts[s + 1], items));

        EXPECT_EQ(maxDiff(got, want), 0.0) << gate.toString();
    }
}

/** Chunked apply (local and cross-chunk groups) == generic flat. */
TEST(KernelDispatch, ChunkedMatchesGenericBitExact)
{
    const int n = 10;
    for (int chunk_bits : {4, 6}) {
        // hi targets land above the chunk boundary (cross-chunk for
        // non-diagonal gates), lo targets below it.
        for (const Gate &gate :
             gateZoo(0, chunk_bits - 1, chunk_bits, n - 1)) {
            const std::vector<Amp> init = randomAmps(n, 99);

            StateVector flat(n);
            flat.amplitudes() = init;
            ChunkedStateVector chunked(n, chunk_bits);
            chunked.fromFlat(flat);

            applyGateChunked(chunked, gate);

            std::vector<Amp> want = init;
            Amp *ref = want.data();
            kernels::applyGate(
                [ref](Index i) -> Amp & { return ref[i]; }, n, gate);

            EXPECT_EQ(maxDiff(chunked.toFlat().amplitudes(), want),
                      0.0)
                << gate.toString() << " chunk_bits=" << chunk_bits;
        }
    }
}

/** applyGroup covers each group exactly once, matching the reference. */
TEST(KernelDispatch, GroupwiseMatchesGenericBitExact)
{
    const int n = 9, chunk_bits = 4;
    for (const Gate &gate : gateZoo(0, 3, 5, 8)) {
        const std::vector<Amp> init = randomAmps(n, 5);
        StateVector flat(n);
        flat.amplitudes() = init;
        ChunkedStateVector chunked(n, chunk_bits);
        chunked.fromFlat(flat);

        const GatePlan plan(gate, n, chunk_bits);
        for (Index g = 0; g < plan.numGroups(); ++g)
            applyGroup(chunked, gate, plan, g);

        std::vector<Amp> want = init;
        Amp *ref = want.data();
        kernels::applyGate([ref](Index i) -> Amp & { return ref[i]; },
                           n, gate);
        EXPECT_EQ(maxDiff(chunked.toFlat().amplitudes(), want), 0.0)
            << gate.toString();
    }
}

/** Threaded flat/chunked apply is bit-identical to serial. */
TEST(KernelDispatch, ThreadedApplyMatchesSerialBitExact)
{
    const int n = 10;
    for (const Gate &gate : gateZoo(0, 4, 7, 9)) {
        StateVector serial(n), threaded(n);
        serial.amplitudes() = randomAmps(n, 3);
        threaded.amplitudes() = serial.amplitudes();

        setSimThreads(1);
        serial.apply(gate);
        setSimThreads(4);
        threaded.apply(gate);
        setSimThreads(1);

        EXPECT_EQ(maxDiff(serial.amplitudes(),
                          threaded.amplitudes()),
                  0.0)
            << gate.toString();
    }
}

/** A run of diagonal gates fuses into a *diagonal* Custom gate. */
TEST(KernelDispatch, FusedDiagonalRunStaysDiagonal)
{
    Circuit c(4, "diag-run");
    c.add(Gate(GateKind::T, {0}));
    c.add(Gate(GateKind::CZ, {0, 2}));
    c.add(Gate(GateKind::RZ, {2}, {0.7}));
    c.add(Gate(GateKind::RZZ, {1, 2}, {0.3}));
    c.add(Gate(GateKind::S, {1}));

    const Circuit fused = fuseGates(c, 3);
    ASSERT_EQ(fused.numGates(), 1u);
    const Gate &g = fused.gates()[0];
    EXPECT_EQ(g.kind, GateKind::Custom);
    EXPECT_TRUE(g.isDiagonal());
    EXPECT_EQ(makeKernelSpec(g).kind, KernelKind::DiagK);

    // And the fused gate still computes the same state.
    const StateVector a = simulateReference(c);
    const StateVector b = simulateReference(fused);
    EXPECT_LT(a.maxAbsDiff(b), 1e-12);
}

/** Mixed runs stay dense; diagonal detection is not fooled. */
TEST(KernelDispatch, FusedMixedRunIsNotDiagonal)
{
    Circuit c(3, "mixed-run");
    c.add(Gate(GateKind::T, {0}));
    c.add(Gate(GateKind::H, {1}));
    c.add(Gate(GateKind::CZ, {0, 1}));

    const Circuit fused = fuseGates(c, 2);
    ASSERT_EQ(fused.numGates(), 1u);
    EXPECT_FALSE(fused.gates()[0].isDiagonal());

    const StateVector a = simulateReference(c);
    const StateVector b = simulateReference(fused);
    EXPECT_LT(a.maxAbsDiff(b), 1e-12);
}

/**
 * randomAmps with planted edge values: every 7th component +0.0,
 * every 11th -0.0, every 13th a signed subnormal.
 */
std::vector<Amp>
edgeAmps(int num_qubits, std::uint64_t seed)
{
    std::vector<Amp> amps = randomAmps(num_qubits, seed);
    double *c = reinterpret_cast<double *>(amps.data());
    const double sub = std::numeric_limits<double>::denorm_min();
    for (std::size_t i = 0; i < 2 * amps.size(); ++i) {
        if (i % 13 == 5)
            c[i] = (i % 2 ? -1.0 : 1.0) * sub * static_cast<double>(i);
        else if (i % 11 == 3)
            c[i] = -0.0;
        else if (i % 7 == 2)
            c[i] = 0.0;
    }
    return amps;
}

/**
 * Every kind on an n-qubit register with targets and controls at
 * bit 0, a middle bit and the top bit: 1q kinds on each position,
 * 2q kinds on each ordered pair, Ctrl1q with one and two controls,
 * and 3q kinds across all three positions.
 */
std::vector<Gate>
positionZoo(int n)
{
    const std::set<int> unique = {0, n / 2, n - 1};
    const std::vector<int> pos(unique.begin(), unique.end());
    std::vector<Gate> gates;
    std::uint64_t seed = 100;
    for (int t : pos) {
        gates.push_back(Gate::makeCustom({t}, randomDiagMatrix(1, ++seed)));
        gates.push_back(Gate::makeCustom(
            {t}, {Amp{0, 0}, Amp{0.6, -0.8}, Amp{-0.28, 0.96}, Amp{0, 0}}));
        gates.push_back(Gate::makeCustom({t}, randomMatrix(1, ++seed)));
        for (int c : pos) {
            if (c == t)
                continue;
            gates.emplace_back(GateKind::CY, std::vector<int>{c, t});
            gates.push_back(
                Gate::makeCustom({c, t}, randomDiagMatrix(2, ++seed)));
            gates.push_back(
                Gate::makeCustom({c, t}, randomMatrix(2, ++seed)));
        }
    }
    if (pos.size() == 3) {
        for (int r = 0; r < 3; ++r) {
            const int t = pos[r];
            gates.emplace_back(GateKind::CCX,
                               std::vector<int>{pos[(r + 1) % 3],
                                                pos[(r + 2) % 3], t});
        }
        gates.push_back(Gate::makeCustom({pos[2], pos[0], pos[1]},
                                         randomDiagMatrix(3, ++seed)));
        gates.push_back(Gate::makeCustom({pos[1], pos[2], pos[0]},
                                         randomMatrix(3, ++seed)));
    }
    return gates;
}

/** [0, items) as one range, and as three misaligned ones. */
std::vector<std::vector<std::pair<Index, Index>>>
rangeSets(Index items)
{
    const Index a = std::min(items, items / 3 + 1);
    const Index b = std::min(items, 2 * items / 3 + 1);
    return {{{0, items}}, {{0, a}, {a, b}, {b, items}}};
}

/**
 * The two exact copies are one source compiled for SSE2 and for AVX2
 * without FMA: outputs must match bit for bit on finite inputs. An
 * engine on an AVX2 host never runs kern::, so this is what keeps the
 * fallback covered there. NaN and Inf inputs are out of scope
 * (DESIGN.md §10).
 */
TEST(KernelDispatch, Avx2CopyMatchesBaselineBitExact)
{
    if (std::string_view(exactKernels().isa) != "avx2")
        GTEST_SKIP() << "host has no AVX2";
    const Amp f0{0.7, -0.3}, f1{-0.2, 0.9};
    const Amp lut[4] = {{0.5, 0.1}, {-0.6, 0.4}, {0.3, -0.8}, {1.1, 0.2}};
    for (int n = 1; n <= 12; ++n) {
        const std::vector<Amp> init = edgeAmps(n, 17 + n);
        // run(wide, data, begin, end) calls kernavx2:: when wide is
        // set and kern:: otherwise.
        const auto check = [&](const std::string &what, Index items,
                               auto run) {
            for (const auto &ranges : rangeSets(items)) {
                std::vector<Amp> base = init, wide = init;
                for (const auto &[b, e] : ranges) {
                    if (b < e) {
                        run(false, base.data(), b, e);
                        run(true, wide.data(), b, e);
                    }
                }
                EXPECT_EQ(std::memcmp(base.data(), wide.data(),
                                      base.size() * sizeof(Amp)),
                          0)
                    << what << " n=" << n << " ranges=" << ranges.size();
            }
        };
        for (const Gate &gate : positionZoo(n)) {
            const KernelSpec spec = makeKernelSpec(gate);
            check(gate.toString(), kernelWorkItems(spec, n),
                  [&](bool w, Amp *d, Index b, Index e) {
                      (w ? kernavx2::dispatch : kern::dispatch)(spec, d, n,
                                                                b, e);
                  });
        }
        const Index size = stateSize(n);
        check("scale", size, [&](bool w, Amp *d, Index b, Index e) {
            (w ? kernavx2::scale : kern::scale)(d, f0, b, e);
        });
        for (int t = 0; t < n; ++t) {
            check("diag1 t=" + std::to_string(t), size,
                  [&](bool w, Amp *d, Index b, Index e) {
                      (w ? kernavx2::diag1 : kern::diag1)(d, t, f0, f1, b,
                                                          e);
                  });
            for (int hi = t + 1; hi < n; ++hi)
                check("diag2 t=" + std::to_string(t) + "," +
                          std::to_string(hi),
                      size, [&](bool w, Amp *d, Index b, Index e) {
                          (w ? kernavx2::diag2 : kern::diag2)(d, t, hi,
                                                              lut, b, e);
                      });
        }
    }
}

/** The selector runs the AVX2 copy exactly where the CPU has AVX2. */
TEST(KernelDispatch, SelectsAvx2CopyWhereSupported)
{
    const KernelCopy &exact = exactKernels();
#if defined(__x86_64__)
    const bool avx2 = __builtin_cpu_supports("avx2");
#else
    const bool avx2 = false;
#endif
    EXPECT_STREQ(exact.isa, avx2 ? "avx2" : "sse2");
    EXPECT_EQ(exact.dispatch, avx2 ? &kernavx2::dispatch : &kern::dispatch);
    EXPECT_EQ(exact.diag1, avx2 ? &kernavx2::diag1 : &kern::diag1);
}

/**
 * The fast tier runs kernfast:: exactly where the CPU has x86-64-v3,
 * and the selected exact copy elsewhere; applyKernel routes each
 * tier's specs through its selector.
 */
TEST(KernelDispatch, SelectsFastCopyWhereSupported)
{
    const KernelCopy &exact = exactKernels();
    const KernelCopy &fast = fastKernels();
#if defined(__x86_64__)
    const bool v3 = __builtin_cpu_supports("x86-64-v3");
#else
    const bool v3 = false;
#endif
    EXPECT_STREQ(fast.isa, v3 ? "x86-64-v3" : exact.isa);
    EXPECT_EQ(fast.dispatch, v3 ? &kernfast::dispatch : exact.dispatch);
    EXPECT_EQ(fast.diag1, v3 ? &kernfast::diag1 : exact.diag1);

    const int n = 8;
    const std::vector<Amp> init = edgeAmps(n, 5);
    const Gate gate(GateKind::RX, {3}, {0.3});
    for (const KernelCopy *copy : {&exact, &fast}) {
        const KernelSpec spec = makeKernelSpec(
            gate, copy == &fast ? KernelTier::Fast : KernelTier::Exact);
        std::vector<Amp> routed = init, direct = init;
        applyKernel(spec, routed.data(), n);
        copy->dispatch(spec, direct.data(), n, 0,
                       kernelWorkItems(spec, n));
        EXPECT_EQ(std::memcmp(routed.data(), direct.data(),
                              routed.size() * sizeof(Amp)),
                  0)
            << copy->isa;
    }
}

TEST(KernelDispatch, PublishesPerKindMetrics)
{
    auto &mr = MetricsRegistry::global();
    mr.clear();

    StateVector flat(6);
    flat.apply(Gate(GateKind::H, {0}));
    flat.apply(Gate(GateKind::T, {1}));
    flat.apply(Gate(GateKind::CX, {0, 5}));

    ChunkedStateVector chunked(8, 4);
    applyGateChunked(chunked, Gate(GateKind::CZ, {1, 6}));
    applyGateChunked(chunked, Gate(GateKind::H, {7}));

    EXPECT_EQ(mr.counter("kernel.dense1q.invocations"), 2.0);
    EXPECT_EQ(mr.counter("kernel.dense1q.amps"),
              static_cast<double>(stateSize(6) + stateSize(8)));
    EXPECT_EQ(mr.counter("kernel.diag1q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.ctrl1q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.ctrl1q.amps"),
              static_cast<double>(stateSize(6) / 2));
    EXPECT_EQ(mr.counter("kernel.diag2q.invocations"), 1.0);
    EXPECT_EQ(mr.counter("kernel.diag2q.amps"),
              static_cast<double>(stateSize(8)));
    mr.clear();
}

} // namespace
} // namespace qgpu
