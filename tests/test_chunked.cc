/**
 * @file
 * Chunked state vector tests: layout, accessors, rechunking, and
 * equality with the flat representation.
 */

#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "circuits/circuits.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"

namespace qgpu
{
namespace
{

TEST(Chunked, LayoutCounts)
{
    ChunkedStateVector s(7, 4); // the paper's running example
    EXPECT_EQ(s.numChunks(), 8u);
    EXPECT_EQ(s.chunkSize(), 16u);
    EXPECT_EQ(s.chunkBytes(), 16u * sizeof(Amp));
}

TEST(Chunked, InitialState)
{
    ChunkedStateVector s(6, 2);
    EXPECT_EQ(s.amp(0), (Amp{1, 0}));
    EXPECT_NEAR(s.norm(), 1.0, 1e-15);
    EXPECT_TRUE(s.chunkIsZero(3));
    EXPECT_FALSE(s.chunkIsZero(0));
}

TEST(Chunked, AccessorAddressing)
{
    ChunkedStateVector s(5, 2);
    s.amp(13) = Amp{0.5, -0.5};
    // Index 13 = 0b01101: chunk 0b011 = 3, offset 0b01 = 1.
    EXPECT_EQ(s.chunk(3)[1], (Amp{0.5, -0.5}));
}

TEST(Chunked, ToFromFlat)
{
    const StateVector flat = simulateReference(circuits::qft(6));
    ChunkedStateVector s(6, 3);
    s.fromFlat(flat);
    EXPECT_LT(s.toFlat().maxAbsDiff(flat), 1e-16);
}

class RechunkParam
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

/** Bitwise equality, so a -0.0 that turned into +0.0 is caught. */
bool
bitsEqual(const StateVector &a, const StateVector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                       a.size() * sizeof(Amp)) == 0;
}

TEST_P(RechunkParam, RechunkPreservesAmplitudes)
{
    const auto &[from_bits, to_bits] = GetParam();
    const Circuit c = circuits::makeBenchmark("hlf", 6);
    StateVector flat = simulateReference(c);
    flat[5] = Amp{-0.0, 0.25};
    flat[42] = Amp{0.125, -0.0};

    ChunkedStateVector s(6, from_bits);
    s.fromFlat(flat);
    s.rechunk(to_bits);
    EXPECT_EQ(s.chunkBits(), to_bits);
    EXPECT_TRUE(bitsEqual(s.toFlat(), flat));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, RechunkParam,
    ::testing::Combine(::testing::Values(0, 2, 4, 6),
                       ::testing::Values(0, 1, 3, 5, 6)));

TEST(Chunked, RawChunksAreViewsOfOneRegister)
{
    const StateVector flat =
        simulateReference(circuits::makeBenchmark("qft", 8));
    ChunkedStateVector s(8, 5);
    s.fromFlat(flat);
    const Amp *base = s.chunk(0).data();
    for (const int b : {2, 7, 0, 8, 3}) {
        s.rechunk(b);
        ASSERT_EQ(s.chunk(0).data(), base) << b;
        for (Index c = 0; c < s.numChunks(); ++c)
            ASSERT_EQ(s.chunk(c).data(), base + (c << b))
                << "chunk " << c << " at " << b << " bits";
    }
    const StateVector taken = s.takeFlat();
    EXPECT_EQ(taken.amplitudes().data(), base);
    EXPECT_TRUE(bitsEqual(taken, flat));
}

TEST(Chunked, RechunkRederivesAdaptiveLaneTags)
{
    // Mixed magnitudes: some chunks fall below the threshold at one
    // geometry but not at another.
    StateVector flat(7);
    for (Index i = 0; i < flat.size(); ++i)
        flat[i] = Amp{(i % 9 == 0) ? 0.25 : 1e-9, (i % 5) * 1e-8};
    constexpr double kThreshold = 1e-6;
    for (const auto &[from, to] : {std::pair{2, 4}, std::pair{5, 1},
                                   std::pair{3, 0}, std::pair{0, 7}}) {
        ChunkedStateVector s(7, from);
        s.fromFlat(flat);
        s.setPrecision(Precision::adaptive, kThreshold);
        s.rechunk(to);

        ChunkedStateVector fresh(7, to);
        fresh.fromFlat(s.toFlat());
        fresh.setPrecision(Precision::adaptive, kThreshold);
        ASSERT_EQ(s.numChunks(), fresh.numChunks());
        for (Index c = 0; c < s.numChunks(); ++c)
            EXPECT_EQ(s.chunkIsF32(c), fresh.chunkIsF32(c))
                << from << " -> " << to << " chunk " << c;
        EXPECT_EQ(s.promotedChunks(), fresh.promotedChunks());
    }
}

TEST(Chunked, ExtremeChunkSizes)
{
    // One amplitude per chunk and one chunk for everything both work.
    ChunkedStateVector tiny(4, 0);
    EXPECT_EQ(tiny.numChunks(), 16u);
    ChunkedStateVector one(4, 4);
    EXPECT_EQ(one.numChunks(), 1u);
}

TEST(ChunkedDeath, BadChunkBits)
{
    EXPECT_DEATH(ChunkedStateVector(4, 5), "chunk bits");
}

} // namespace
} // namespace qgpu
