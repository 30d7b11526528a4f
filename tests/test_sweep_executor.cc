/**
 * @file
 * Sweep scheduler and chunk-major executor coverage.
 *
 * The load-bearing contract is bit-identity: applySweepChunked over a
 * scheduled sweep must equal gate-by-gate applyGateChunked with zero
 * tolerance, for every circuit family, flat and chunked, pruned and
 * unpruned, at any thread count. "Close enough" would hide a
 * partitioning or skip-decision bug, so every comparison here is
 * operator== on the raw amplitudes.
 *
 * Also pins the scheduler's sweep-boundary rules (pairing change,
 * involvement advance, diagonal batching) and the sweep counters'
 * passes-over-the-state accounting.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/circuits.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "prune/involvement.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"

namespace qgpu
{
namespace
{

enum class PruneMode { Off, PerOp, NonDiagonal };

const char *
pruneModeName(PruneMode mode)
{
    switch (mode) {
      case PruneMode::Off: return "unpruned";
      case PruneMode::PerOp: return "perop";
      case PruneMode::NonDiagonal: return "nondiag";
    }
    return "?";
}

InvolvementPolicy
policyOf(PruneMode mode)
{
    return mode == PruneMode::NonDiagonal
               ? InvolvementPolicy::NonDiagonal
               : InvolvementPolicy::PerOp;
}

/** Gate-by-gate reference: applyGateChunked with the per-gate mask. */
void
runReference(ChunkedStateVector &state, const Circuit &circuit,
             PruneMode mode)
{
    InvolvementMask mask(circuit.numQubits(), policyOf(mode));
    const int chunk_bits = state.chunkBits();
    for (const Gate &gate : circuit.gates()) {
        if (mode == PruneMode::Off) {
            applyGateChunked(state, gate);
            continue;
        }
        applyGateChunked(state, gate, [&](Index c) {
            return !mask.chunkIsLive(c, chunk_bits);
        });
        mask.involve(gate);
    }
}

/** Sweep path: nextSweep driving applySweepChunked, mask advanced
 *  sweep-by-sweep exactly as the engines do. */
void
runSweeps(ChunkedStateVector &state, const Circuit &circuit,
          PruneMode mode)
{
    InvolvementMask mask(circuit.numQubits(), policyOf(mode));
    const int chunk_bits = state.chunkBits();
    const std::span<const Gate> gates{circuit.gates()};
    const ZeroPredicate zero =
        mode == PruneMode::Off
            ? ZeroPredicate{}
            : ZeroPredicate([&](Index c) {
                  return !mask.chunkIsLive(c, chunk_bits);
              });
    std::size_t at = 0;
    while (at < gates.size()) {
        const Sweep sw =
            nextSweep(gates, at, chunk_bits,
                      mode == PruneMode::Off ? nullptr : &mask);
        applySweepChunked(state,
                          gates.subspan(sw.begin, sw.size()),
                          sw.globalBits, zero);
        if (mode != PruneMode::Off)
            for (std::size_t i = sw.begin; i < sw.end; ++i)
                mask.involve(gates[i]);
        at = sw.end;
    }
}

class SweepDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, PruneMode, int>>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(SweepDifferential, BitIdenticalToGateByGate)
{
    const auto &[family, chunked, mode, threads] = GetParam();
    const int n = 10;
    const int chunk_bits = chunked ? n - 4 : n; // 16 chunks or flat
    const Circuit circuit = circuits::makeBenchmark(family, n);

    setSimThreads(1);
    ChunkedStateVector ref(n, chunk_bits);
    runReference(ref, circuit, mode);

    setSimThreads(threads);
    ChunkedStateVector got(n, chunk_bits);
    runSweeps(got, circuit, mode);
    setSimThreads(1);

    for (Index c = 0; c < ref.numChunks(); ++c) {
        const auto &want = ref.chunk(c);
        const auto &have = got.chunk(c);
        for (Index i = 0; i < static_cast<Index>(want.size()); ++i)
            ASSERT_EQ(want[i], have[i])
                << family << " chunk " << c << " amp " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SweepDifferential,
    ::testing::Combine(
        ::testing::ValuesIn(circuits::benchmarkNames()),
        ::testing::Bool(),
        ::testing::Values(PruneMode::Off, PruneMode::PerOp,
                          PruneMode::NonDiagonal),
        ::testing::Values(1, 2, 4)),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_chunked_" : "_flat_") +
               pruneModeName(std::get<2>(info.param)) + "_t" +
               std::to_string(std::get<3>(info.param));
    });

// ---------------------------------------------------------------------
// Scheduler boundary rules.

TEST(SweepScheduler, GateGlobalBits)
{
    const int chunk_bits = 4;
    // Diagonal gates never couple chunks, wherever the targets sit.
    EXPECT_TRUE(gateGlobalBits(Gate(GateKind::CZ, {4, 5}), chunk_bits)
                    .empty());
    // Chunk-local targets couple nothing.
    EXPECT_TRUE(gateGlobalBits(Gate(GateKind::CX, {0, 1}), chunk_bits)
                    .empty());
    EXPECT_EQ(gateGlobalBits(Gate(GateKind::CX, {0, 4}), chunk_bits),
              (std::vector<int>{0}));
    EXPECT_EQ(gateGlobalBits(Gate(GateKind::SWAP, {5, 4}), chunk_bits),
              (std::vector<int>{0, 1}));
}

TEST(SweepScheduler, PairingChangeClosesSweep)
{
    const int chunk_bits = 4;
    const std::vector<Gate> gates = {
        Gate(GateKind::CX, {0, 4}), // couples chunk-index bit 0
        Gate(GateKind::CX, {1, 4}), // same pairing: batches
        Gate(GateKind::CX, {0, 5}), // couples bit 1: new sweep
    };
    const Sweep first = nextSweep(gates, 0, chunk_bits);
    EXPECT_EQ(first.begin, 0u);
    EXPECT_EQ(first.end, 2u);
    EXPECT_EQ(first.globalBits, (std::vector<int>{0}));
    const Sweep second = nextSweep(gates, first.end, chunk_bits);
    EXPECT_EQ(second.end, 3u);
    EXPECT_EQ(second.globalBits, (std::vector<int>{1}));
}

TEST(SweepScheduler, ChunkLocalAndDiagonalGatesBatchFreely)
{
    const int chunk_bits = 4;
    // Chunk-local gates and diagonal gates (even with targets above
    // the boundary) refine any partition, so one cross-chunk gate in
    // the middle still yields a single sweep with its signature.
    const std::vector<Gate> gates = {
        Gate(GateKind::H, {0}),
        Gate(GateKind::CZ, {4, 5}), // diagonal: chunk-independent
        Gate(GateKind::CX, {0, 4}), // donates G = {0}
        Gate(GateKind::H, {2}),
        Gate(GateKind::CX, {2, 4}), // same pairing
    };
    const Sweep sweep = nextSweep(gates, 0, chunk_bits);
    EXPECT_EQ(sweep.size(), gates.size());
    EXPECT_EQ(sweep.globalBits, (std::vector<int>{0}));
}

TEST(SweepScheduler, FusedDiagonalRunsFormOneSweep)
{
    const int chunk_bits = 4;
    const std::vector<Gate> gates = {
        Gate(GateKind::CZ, {4, 5}),
        Gate(GateKind::T, {5}),
        Gate(GateKind::CP, {0, 5}, {0.25}),
        Gate(GateKind::RZ, {4}, {0.5}),
    };
    const Sweep sweep = nextSweep(gates, 0, chunk_bits);
    EXPECT_EQ(sweep.size(), gates.size());
    EXPECT_TRUE(sweep.globalBits.empty());
}

TEST(SweepScheduler, InvolvementAdvanceClosesSweep)
{
    const int n = 6, chunk_bits = 4;
    const std::vector<Gate> gates = {
        Gate(GateKind::H, {0}), // involves q0: last gate of sweep 0
        Gate(GateKind::X, {0}), // adds nothing
        Gate(GateKind::H, {1}), // involves q1: last gate of sweep 1
        Gate(GateKind::X, {1}),
    };
    InvolvementMask mask(n, InvolvementPolicy::PerOp);
    const std::vector<Sweep> sweeps =
        scheduleSweeps(gates, chunk_bits, &mask);
    ASSERT_EQ(sweeps.size(), 3u);
    EXPECT_EQ(sweeps[0].end, 1u);
    EXPECT_EQ(sweeps[1].end, 3u);
    EXPECT_EQ(sweeps[2].end, 4u);
    // The mask ends in the post-circuit involvement state.
    EXPECT_TRUE(mask.isInvolved(0));
    EXPECT_TRUE(mask.isInvolved(1));
    EXPECT_FALSE(mask.isInvolved(2));

    // Without a mask, rule 3 is off and the run batches fully.
    const Sweep unpruned = nextSweep(gates, 0, chunk_bits);
    EXPECT_EQ(unpruned.size(), gates.size());
}

/**
 * Rule 3 for noise (the batched-shot planner): a gate whose attached
 * noise can arm a qubit outside the start-of-sweep mask closes its
 * sweep, unless an earlier pairing change or involvement boundary
 * already did. chunk_bits 4 on 6 qubits: q4 and q5 are chunk-index
 * bits 0 and 1.
 */
TEST(SweepScheduler, NoiseThatCanArmAQubitClosesSweep)
{
    const int n = 6, chunk_bits = 4;
    constexpr std::uint64_t q2 = 1u << 2;
    struct Case
    {
        const char *name;
        bool masked;               // pruning on (rule 3 armed)
        std::vector<int> involved; // mask at the sweep start
        std::vector<Gate> gates;
        std::vector<std::uint64_t> noise;
        std::size_t end;
        std::vector<int> globalBits;
    };
    const std::vector<Case> cases = {
        {"cut at the noise site", true, {0, 4},
         {Gate(GateKind::CX, {0, 4}), Gate(GateKind::H, {0}),
          Gate(GateKind::CX, {0, 4}), Gate(GateKind::H, {0})},
         {0, q2, 0, 0}, 2, {0}},
        {"cut drops the only cross-chunk gate", true, {0, 4},
         {Gate(GateKind::H, {0}), Gate(GateKind::X, {0}),
          Gate(GateKind::CX, {0, 4}), Gate(GateKind::H, {0})},
         {0, q2, 0, 0}, 2, {}},
        {"involvement boundary first", true, {0},
         {Gate(GateKind::H, {0}), Gate(GateKind::H, {1}),
          Gate(GateKind::X, {0}), Gate(GateKind::H, {0})},
         {0, 0, q2, 0}, 2, {}},
        {"pairing change first", true, {0, 4, 5},
         {Gate(GateKind::CX, {0, 4}), Gate(GateKind::CX, {0, 5}),
          Gate(GateKind::H, {0})},
         {0, 0, q2}, 1, {0}},
        {"noise on involved qubits", true, {0, 1, 4},
         {Gate(GateKind::H, {0}), Gate(GateKind::H, {1}),
          Gate(GateKind::CX, {0, 4}), Gate(GateKind::X, {1})},
         {0b11, 0b10, 1u << 4, 0b01}, 4, {0}},
        {"no mask: noise is inert", false, {},
         {Gate(GateKind::H, {0}), Gate(GateKind::X, {0}),
          Gate(GateKind::CX, {0, 4})},
         {0, q2, q2}, 3, {0}},
    };
    for (const Case &c : cases) {
        InvolvementMask mask(n, InvolvementPolicy::PerOp);
        for (int q : c.involved)
            mask.involve(q);
        const Sweep sweep =
            nextSweep(c.gates, 0, chunk_bits, c.masked ? &mask : nullptr,
                      c.noise);
        EXPECT_EQ(sweep.begin, 0u) << c.name;
        EXPECT_EQ(sweep.end, c.end) << c.name;
        EXPECT_EQ(sweep.globalBits, c.globalBits) << c.name;
    }
}

TEST(SweepScheduler, SweepsExactlyCoverTheSequence)
{
    for (const std::string &family : circuits::benchmarkNames()) {
        const Circuit circuit = circuits::makeBenchmark(family, 10);
        const std::vector<Sweep> sweeps =
            scheduleSweeps(circuit.gates(), 6);
        std::size_t at = 0;
        for (const Sweep &s : sweeps) {
            EXPECT_EQ(s.begin, at) << family;
            EXPECT_GT(s.end, s.begin) << family;
            at = s.end;
        }
        EXPECT_EQ(at, circuit.gates().size()) << family;
    }
}

// ---------------------------------------------------------------------
// Sweep counters: the executor's whole point is fewer passes over the
// state than gates.

TEST(SweepMetrics, StatePassesBelowGateCountOnEveryFamily)
{
    auto &mr = MetricsRegistry::global();
    for (const std::string &family : circuits::benchmarkNames()) {
        const int n = 10;
        const Circuit circuit = circuits::makeBenchmark(family, n);
        const double before = mr.counter("sweep.count");
        ChunkedStateVector state(n, n - 4);
        applyCircuitChunked(state, circuit);
        const double passes = mr.counter("sweep.count") - before;
        EXPECT_GT(passes, 0.0) << family;
        EXPECT_LT(passes, static_cast<double>(circuit.numGates()))
            << family;
    }
}

TEST(SweepMetrics, DiagonalHeavyFamiliesBatchManyGatesPerSweep)
{
    // qft/iqp/gs are dominated by diagonal or chunk-local gates, so
    // sweeps must batch well beyond one gate on average.
    for (const std::string family : {"qft", "iqp", "gs"}) {
        const Circuit circuit = circuits::makeBenchmark(family, 10);
        const std::vector<Sweep> sweeps =
            scheduleSweeps(circuit.gates(), 6);
        const double per_sweep =
            static_cast<double>(circuit.numGates()) /
            static_cast<double>(sweeps.size());
        EXPECT_GT(per_sweep, 1.0) << family;
    }
}

TEST(SweepMetrics, CountersAndHistogramAdvancePerSweep)
{
    auto &mr = MetricsRegistry::global();
    const Circuit circuit = circuits::makeBenchmark("gs", 8);
    const std::vector<Sweep> sweeps =
        scheduleSweeps(circuit.gates(), 4);
    const double count0 = mr.counter("sweep.count");
    const std::uint64_t hist0 =
        mr.histogram("sweep.gates_per_sweep").count();

    ChunkedStateVector state(8, 4);
    applyCircuitChunked(state, circuit);

    const double delta = static_cast<double>(sweeps.size());
    EXPECT_EQ(mr.counter("sweep.count") - count0, delta);
    EXPECT_EQ(mr.histogram("sweep.gates_per_sweep").count() - hist0,
              sweeps.size());
}

} // namespace
} // namespace qgpu
