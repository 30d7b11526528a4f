/**
 * @file
 * Involvement-mask tests, including the load-bearing exactness
 * property: during simulation of any benchmark, every amplitude whose
 * index sets an uninvolved qubit's bit is exactly zero. Algorithm 1's
 * chunk liveness (chunkIsLive) is checked against brute force over
 * every mask and chunk size of a 6-qubit state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "circuits/circuits.hh"
#include "common/bits.hh"
#include "prune/involvement.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

TEST(Involvement, StartsEmpty)
{
    InvolvementMask mask(8);
    EXPECT_EQ(mask.bits(), 0u);
    EXPECT_EQ(mask.count(), 0);
    EXPECT_FALSE(mask.allInvolved());
}

TEST(Involvement, PerOpMarksEveryNamedQubit)
{
    InvolvementMask mask(8);
    mask.involve(Gate(GateKind::CZ, {2, 5}));
    EXPECT_TRUE(mask.isInvolved(2));
    EXPECT_TRUE(mask.isInvolved(5));
    EXPECT_EQ(mask.count(), 2);
}

TEST(Involvement, NonDiagonalSkipsDiagonalGates)
{
    InvolvementMask mask(8, InvolvementPolicy::NonDiagonal);
    mask.involve(Gate(GateKind::CZ, {2, 5}));
    mask.involve(Gate(GateKind::T, {1}));
    mask.involve(Gate(GateKind::RZ, {0}, {0.5}));
    EXPECT_EQ(mask.count(), 0);
    mask.involve(Gate(GateKind::H, {3}));
    EXPECT_EQ(mask.count(), 1);
}

TEST(Involvement, NonDiagonalCxNeedsLiveControl)
{
    InvolvementMask mask(8, InvolvementPolicy::NonDiagonal);
    // Control 0 uninvolved: identity on the live subspace.
    mask.involve(Gate(GateKind::CX, {0, 1}));
    EXPECT_EQ(mask.count(), 0);
    // After H on 0 the same CX involves its target.
    mask.involve(Gate(GateKind::H, {0}));
    mask.involve(Gate(GateKind::CX, {0, 1}));
    EXPECT_TRUE(mask.isInvolved(1));
}

TEST(Involvement, ChunkLiveness)
{
    InvolvementMask mask(7);
    mask.involve(0);
    mask.involve(1);
    mask.involve(4);
    // chunk_bits = 4: chunk index covers qubits 4..6.
    EXPECT_TRUE(mask.chunkIsLive(0b000, 4));
    EXPECT_TRUE(mask.chunkIsLive(0b001, 4));  // qubit 4 involved
    EXPECT_FALSE(mask.chunkIsLive(0b010, 4)); // qubit 5 not
    EXPECT_FALSE(mask.chunkIsLive(0b011, 4));
    EXPECT_FALSE(mask.chunkIsLive(0b100, 4)); // qubit 6 not
}

TEST(Involvement, DynamicChunkBitsFollowsTrailingOnes)
{
    InvolvementMask mask(10);
    EXPECT_EQ(mask.dynamicChunkBits(0, 8), 0);
    mask.involve(0);
    mask.involve(1);
    EXPECT_EQ(mask.dynamicChunkBits(0, 8), 2); // paper's 00000011 case
    mask.involve(3); // gap at 2 stops the run
    EXPECT_EQ(mask.dynamicChunkBits(0, 8), 2);
    mask.involve(2);
    EXPECT_EQ(mask.dynamicChunkBits(0, 8), 4);
    EXPECT_EQ(mask.dynamicChunkBits(5, 8), 5); // clamped up
    EXPECT_EQ(mask.dynamicChunkBits(0, 3), 3); // clamped down
}

/** Algorithm 1's chunk enumeration: the chunks chunkIsLive keeps. */
std::vector<Index>
liveChunks(const InvolvementMask &mask, int chunk_bits)
{
    std::vector<Index> live;
    const Index chunks = Index{1} << (mask.numQubits() - chunk_bits);
    for (Index c = 0; c < chunks; ++c)
        if (mask.chunkIsLive(c, chunk_bits))
            live.push_back(c);
    return live;
}

TEST(PruneSweep, AllLiveWhenFullyInvolved)
{
    InvolvementMask mask(6);
    for (int q = 0; q < 6; ++q)
        mask.involve(q);
    EXPECT_EQ(liveChunks(mask, 2).size(), 16u);
}

TEST(PruneSweep, OnlyChunkZeroAtStart)
{
    InvolvementMask mask(6);
    EXPECT_EQ(liveChunks(mask, 2), (std::vector<Index>{0}));
}

TEST(PruneSweep, PaperExample)
{
    // 7 qubits, 4-bit chunks, qubits 0..4 involved: chunks with
    // bit 5 or 6 set are dead.
    InvolvementMask mask(7);
    for (int q = 0; q <= 4; ++q)
        mask.involve(q);
    EXPECT_EQ(liveChunks(mask, 4), (std::vector<Index>{0, 1}));
}

class SweepMatchesBruteForce
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SweepMatchesBruteForce, EveryMaskEveryChunkSize)
{
    // Exhaustive over all 2^6 involvement masks for a 6-qubit state: a
    // chunk is live iff one of its amplitude indices sets only
    // involved bits (the invariant ExactnessProperty checks).
    const std::uint64_t mask_bits = GetParam();
    InvolvementMask mask(6);
    for (int q = 0; q < 6; ++q)
        if ((mask_bits >> q) & 1)
            mask.involve(q);

    for (int chunk_bits = 0; chunk_bits <= 6; ++chunk_bits) {
        std::vector<Index> want;
        const Index chunks = Index{1} << (6 - chunk_bits);
        for (Index c = 0; c < chunks; ++c) {
            bool any = false;
            for (Index i = c << chunk_bits; i < (c + 1) << chunk_bits;
                 ++i)
                any = any || (i & ~mask_bits) == 0;
            if (any)
                want.push_back(c);
        }
        EXPECT_EQ(liveChunks(mask, chunk_bits), want)
            << "mask " << mask_bits << " chunkBits " << chunk_bits;
    }
}

INSTANTIATE_TEST_SUITE_P(AllMasks, SweepMatchesBruteForce,
                         ::testing::Range<std::uint64_t>(0, 64));

class ExactnessProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, InvolvementPolicy>>
{
};

TEST_P(ExactnessProperty, UninvolvedBitsImplyZeroAmplitudes)
{
    // The invariant that licenses pruning: at every point in the
    // simulation, if qubit k is uninvolved then every amplitude with
    // bit k set is exactly zero.
    const auto &[family, policy] = GetParam();
    const int n = 8;
    const Circuit c = circuits::makeBenchmark(family, n);

    StateVector state(n);
    InvolvementMask mask(n, policy);
    for (const Gate &g : c.gates()) {
        state.apply(g);
        mask.involve(g);
        for (Index i = 0; i < state.size(); ++i) {
            if ((i & ~mask.bits()) != 0) {
                ASSERT_EQ(state[i], (Amp{0, 0}))
                    << family << " index " << i << " mask "
                    << mask.bits();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPolicies, ExactnessProperty,
    ::testing::Combine(
        ::testing::Values("hchain", "rqc", "qaoa", "gs", "hlf",
                          "qft", "iqp", "qf", "bv"),
        ::testing::Values(InvolvementPolicy::PerOp,
                          InvolvementPolicy::NonDiagonal)));

class NonDiagonalSubset : public ::testing::TestWithParam<std::string>
{
};

TEST_P(NonDiagonalSubset, NeverInvolvesMoreThanPerOp)
{
    const Circuit c = circuits::makeBenchmark(GetParam(), 12);
    InvolvementMask per_op(12, InvolvementPolicy::PerOp);
    InvolvementMask sharp(12, InvolvementPolicy::NonDiagonal);
    for (const Gate &g : c.gates()) {
        per_op.involve(g);
        sharp.involve(g);
        EXPECT_EQ(sharp.bits() & ~per_op.bits(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, NonDiagonalSubset,
    ::testing::Values("hchain", "rqc", "qaoa", "gs", "hlf", "qft",
                      "iqp", "qf", "bv"));

TEST(Involvement, NonDiagonalIsStrictlySharperOnDiagonalPrefix)
{
    // A circuit that phases qubits before ever rotating them: the
    // paper's rule involves them immediately, the sharper rule only
    // at the Hadamards.
    Circuit c(4);
    c.t(0).cz(0, 1).cp(0.3, 1, 2).h(0).cx(0, 3);
    InvolvementMask per_op(4, InvolvementPolicy::PerOp);
    InvolvementMask sharp(4, InvolvementPolicy::NonDiagonal);
    bool strictly_sharper = false;
    for (const Gate &g : c.gates()) {
        per_op.involve(g);
        sharp.involve(g);
        EXPECT_EQ(sharp.bits() & ~per_op.bits(), 0u);
        strictly_sharper |= sharp.count() < per_op.count();
    }
    EXPECT_TRUE(strictly_sharper);
    EXPECT_EQ(sharp.count(), 2);  // only qubits 0 and 3
    EXPECT_EQ(per_op.count(), 4);
}

} // namespace
} // namespace qgpu
