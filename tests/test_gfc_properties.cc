/**
 * @file
 * GFC codec property/fuzz tests: deterministic randomized roundtrips
 * over amplitude-like payloads (dense random, sparse, denormal, ±0,
 * ±Inf, NaN) across lane/segment configurations, the documented size
 * bound for all-zero input, byte-identity of the serial and
 * thread-pool compression paths, and the decoder's panics on
 * malformed streams.
 */

#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/cacheinfo.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compress/gfc.hh"

namespace qgpu
{
namespace
{

void
expectRoundTrip(const GfcCodec &codec,
                const std::vector<double> &data)
{
    const CompressedBlock block =
        codec.compress(data.data(), data.size());
    ASSERT_EQ(block.numDoubles, data.size());
    // The size fast path must agree with the materialized stream.
    ASSERT_EQ(codec.compressedSize(data.data(), data.size()),
              block.compressedBytes());
    std::vector<double> out(data.size(), -7.0);
    codec.decompress(block, out.data());
    for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(data[i]),
                  std::bit_cast<std::uint64_t>(out[i]))
            << "index " << i << " of " << data.size();
    }
}

/**
 * Block sizes for the thread-count identity tests: 4,099 words runs
 * inline at 4 threads, while 4 codec grains + 3 fans out in both
 * layouts (over the 32 segments, and over the ranges of a lone
 * segment).
 */
std::vector<std::size_t>
identitySizes()
{
    return {4099,
            4 * static_cast<std::size_t>(codecGrainWords()) + 3};
}

/**
 * Compress @p data at 1 and 4 threads with one and with 32 segments,
 * at several warp sizes: the two streams must be byte-equal, and each
 * must decode bit-exactly at the other thread count. The engine
 * records sender-side checksums over compressed bytes
 * (fault/integrity.hh), so a stream that merely decodes to the same
 * values is not enough.
 */
template <typename Fp>
void
expectThreadCountInvariant(const std::vector<Fp> &data)
{
    using Bits = std::conditional_t<sizeof(Fp) == 8, std::uint64_t,
                                    std::uint32_t>;
    constexpr bool f32 = std::is_same_v<Fp, float>;
    for (const int segs : {1, 32}) {
        for (const int warp : {1, 3, 32}) {
            const GfcCodec codec(warp, segs);
            const auto compress = [&] {
                if constexpr (f32)
                    return codec.compressF32(data.data(), data.size());
                else
                    return codec.compress(data.data(), data.size());
            };
            const auto decompress = [&](const CompressedBlock &block) {
                std::vector<Fp> out(data.size(), Fp(-7));
                if constexpr (f32)
                    codec.decompressF32(block, out.data());
                else
                    codec.decompress(block, out.data());
                return out;
            };
            setSimThreads(1);
            const CompressedBlock serial = compress();
            setSimThreads(4);
            const CompressedBlock parallel = compress();
            EXPECT_EQ(serial.bytes, parallel.bytes)
                << data.size() << " words, warp " << warp << ", segments "
                << segs;
            const std::vector<Fp> serial_at_4 = decompress(serial);
            setSimThreads(1);
            const std::vector<Fp> parallel_at_1 = decompress(parallel);
            for (std::size_t i = 0; i < data.size(); ++i) {
                ASSERT_EQ(std::bit_cast<Bits>(data[i]),
                          std::bit_cast<Bits>(serial_at_4[i]))
                    << data.size() << " words, warp " << warp
                    << ", segments " << segs
                    << ", serial stream at 4 threads, index " << i;
                ASSERT_EQ(std::bit_cast<Bits>(data[i]),
                          std::bit_cast<Bits>(parallel_at_1[i]))
                    << data.size() << " words, warp " << warp
                    << ", segments " << segs
                    << ", parallel stream at 1 thread, index " << i;
            }
        }
    }
}

/** NaN-free amplitude-like value: finite, mixed magnitudes. */
double
randomAmplitudeValue(Rng &rng)
{
    switch (rng.nextBelow(6)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2:
        // Denormal range.
        return static_cast<double>(rng.nextBelow(1000) + 1) *
               std::numeric_limits<double>::denorm_min();
      case 3:
        // Tiny normal magnitudes, signs mixed.
        return (rng.nextBool(0.5) ? 1.0 : -1.0) *
               std::ldexp(rng.nextDouble(), -900);
      case 4:
        // A shared magnitude, as in structured states.
        return rng.nextBool(0.5) ? 0.0883883476483184
                                 : -0.0883883476483184;
      default: return rng.nextDouble() * 2.0 - 1.0;
    }
}

TEST(GfcProperties, FuzzRoundTripAcrossConfigs)
{
    const int warps[] = {1, 3, 32};
    const int segments[] = {1, 2, 32};
    Rng rng(20260806);
    for (int iter = 0; iter < 60; ++iter) {
        const int warp = warps[rng.nextBelow(3)];
        const int segs = segments[rng.nextBelow(3)];
        const std::size_t count = rng.nextBelow(700);
        std::vector<double> data(count);
        for (auto &v : data)
            v = randomAmplitudeValue(rng);
        GfcCodec codec(warp, segs);
        expectRoundTrip(codec, data);
    }
}

TEST(GfcProperties, SparseBlocksRoundTripAndCompress)
{
    // Pruning leaves blocks that are almost entirely zero; GFC must
    // both preserve and shrink them.
    Rng rng(11);
    for (const double density : {0.0, 0.01, 0.1}) {
        std::vector<double> data(2048, 0.0);
        for (auto &v : data)
            if (rng.nextBool(density))
                v = rng.nextDouble() - 0.5;
        GfcCodec codec(32, 1);
        expectRoundTrip(codec, data);
        const CompressedBlock block =
            codec.compress(data.data(), data.size());
        if (density <= 0.01) {
            EXPECT_GT(block.ratio(), 2.0) << density;
        }
    }
}

TEST(GfcProperties, DenormalAndSignedZeroBlocks)
{
    // Denormal payloads have near-empty high bytes; ±0 differ only
    // in the sign bit. Both stress the residual sign handling.
    std::vector<double> data;
    for (int i = 0; i < 257; ++i) {
        data.push_back((i % 2 ? 1.0 : -1.0) *
                       static_cast<double>(i) *
                       std::numeric_limits<double>::denorm_min());
        data.push_back(i % 3 ? 0.0 : -0.0);
    }
    for (const int segs : {1, 4}) {
        GfcCodec codec(8, segs);
        expectRoundTrip(codec, data);
    }
}

TEST(GfcProperties, AllZeroSizeBound)
{
    // Documented bound: a zero double's residual is zero, costing one
    // 4-bit prefix nibble plus one payload byte, i.e. 1.5 bytes per
    // double. Nibble packing rounds up to a whole byte once per
    // segment, and the stream adds headerBytes(count) of fixed
    // framing. So:
    //   compressed <= header + ceil(1.5 * count) + num_segments
    for (const int segs : {1, 2, 32}) {
        GfcCodec codec(32, segs);
        for (const std::size_t count :
             {std::size_t{1}, std::size_t{31}, std::size_t{32},
              std::size_t{1000}, std::size_t{4096}}) {
            const std::vector<double> zeros(count, 0.0);
            const CompressedBlock block =
                codec.compress(zeros.data(), zeros.size());
            const std::uint64_t bound =
                codec.headerBytes(count) +
                (3 * count + 1) / 2 +
                static_cast<std::uint64_t>(segs);
            EXPECT_LE(block.compressedBytes(), bound)
                << "segments " << segs << ", count " << count;
            expectRoundTrip(codec, zeros);
        }
    }
}

TEST(GfcProperties, InfAndNanPayloadsRoundTripBitExactly)
{
    // Residuals are computed on raw 64-bit patterns, so the codec is
    // lossless even for values amplitude data should never contain:
    // infinities and NaNs (including non-default payload bits, which
    // arithmetic would silently canonicalize -- only a bit-pattern
    // comparison catches that).
    const double qnan = std::numeric_limits<double>::quiet_NaN();
    const double payload_nan = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(qnan) | 0xdeadbeefull);
    const double neg_nan = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(qnan) | (1ull << 63));
    const double inf = std::numeric_limits<double>::infinity();

    std::vector<double> data;
    Rng rng(404);
    for (int i = 0; i < 300; ++i) {
        switch (i % 6) {
          case 0: data.push_back(inf); break;
          case 1: data.push_back(-inf); break;
          case 2: data.push_back(qnan); break;
          case 3: data.push_back(payload_nan); break;
          case 4: data.push_back(neg_nan); break;
          default: data.push_back(randomAmplitudeValue(rng)); break;
        }
    }
    for (const int segs : {1, 4, 32}) {
        GfcCodec codec(8, segs);
        expectRoundTrip(codec, data);
    }
}

TEST(GfcProperties, SerialAndParallelStreamsAreByteIdentical)
{
    Rng rng(31337);
    for (const std::size_t count : identitySizes()) {
        std::vector<double> data(count);
        for (auto &v : data)
            v = randomAmplitudeValue(rng);
        expectThreadCountInvariant(data);
    }
}

TEST(GfcProperties, PayloadSizePlusHeaderIsTotal)
{
    Rng rng(5);
    std::vector<double> data(513);
    for (auto &v : data)
        v = randomAmplitudeValue(rng);
    GfcCodec codec(32, 4);
    EXPECT_EQ(codec.headerBytes(data.size()) +
                  codec.compressedPayloadSize(data.data(),
                                              data.size()),
              codec.compressedSize(data.data(), data.size()));
}

/**
 * Add @p delta to segment @p s's length field. A stream starts with a
 * u64 word count, a u32 segment count and one u32 length per
 * segment, all little-endian.
 */
void
shiftSegmentLength(CompressedBlock &block, int s, int delta)
{
    std::uint8_t *field =
        block.bytes.data() + 12 + 4 * static_cast<std::size_t>(s);
    std::uint32_t len = 0;
    for (int b = 0; b < 4; ++b)
        len |= static_cast<std::uint32_t>(field[b]) << (8 * b);
    len += static_cast<std::uint32_t>(delta);
    for (int b = 0; b < 4; ++b)
        field[b] = static_cast<std::uint8_t>(len >> (8 * b));
}

TEST(GfcProperties, SegmentLengthDisagreeingWithNibblesDies)
{
    // The pool has live workers, which a forked child would lack.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The last of 32 short segments decodes as one range, as the
    // compressed store's chunks do; a lone segment of 4 grains + 3
    // words decodes in 4 ranges at 4 threads. Both must check the
    // length field against the nibbles before reading the payload.
    struct Case
    {
        int segments;
        std::size_t count;
    };
    const Case cases[] = {
        {32, 256},
        {1, 4 * static_cast<std::size_t>(codecGrainWords()) + 3}};
    Rng rng(909);
    for (const Case &c : cases) {
        std::vector<double> data(c.count);
        for (auto &v : data)
            v = randomAmplitudeValue(rng);
        const GfcCodec codec(32, c.segments);
        CompressedBlock block =
            codec.compress(data.data(), data.size());
        shiftSegmentLength(block, c.segments - 1, -1);
        std::vector<double> out(c.count);
        setSimThreads(4);
        EXPECT_DEATH(codec.decompress(block, out.data()),
                     "GFC segment nibbles imply")
            << "segments " << c.segments;
        setSimThreads(1);
    }
}

TEST(GfcProperties, TruncatedStreamDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(910);
    std::vector<double> data(256);
    for (auto &v : data)
        v = randomAmplitudeValue(rng);
    const GfcCodec codec(32, 32);
    CompressedBlock block = codec.compress(data.data(), data.size());
    block.bytes.pop_back(); // cut inside the last segment's payload
    std::vector<double> out(data.size());
    setSimThreads(4);
    EXPECT_DEATH(codec.decompress(block, out.data()),
                 "GFC stream truncated");
    setSimThreads(1);
}

// ---------------------------------------------------------------------
// fp32 lane (GfcCodec::compressF32 and friends): the same stream
// layout over 32-bit words, mirroring the f64 property suite above.
// ---------------------------------------------------------------------

void
expectRoundTripF32(const GfcCodec &codec,
                   const std::vector<float> &data)
{
    const CompressedBlock block =
        codec.compressF32(data.data(), data.size());
    ASSERT_EQ(block.numDoubles, data.size());
    ASSERT_TRUE(block.f32);
    ASSERT_EQ(codec.compressedSizeF32(data.data(), data.size()),
              block.compressedBytes());
    std::vector<float> out(data.size(), -7.0f);
    codec.decompressF32(block, out.data());
    for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(data[i]),
                  std::bit_cast<std::uint32_t>(out[i]))
            << "index " << i << " of " << data.size();
    }
}

float
randomAmplitudeValueF32(Rng &rng)
{
    switch (rng.nextBelow(6)) {
      case 0: return 0.0f;
      case 1: return -0.0f;
      case 2:
        return static_cast<float>(rng.nextBelow(1000) + 1) *
               std::numeric_limits<float>::denorm_min();
      case 3:
        return (rng.nextBool(0.5) ? 1.0f : -1.0f) *
               std::ldexp(static_cast<float>(rng.nextDouble()), -100);
      case 4:
        return rng.nextBool(0.5) ? 0.08838835f : -0.08838835f;
      default:
        return static_cast<float>(rng.nextDouble()) * 2.0f - 1.0f;
    }
}

TEST(GfcPropertiesF32, FuzzRoundTripAcrossConfigs)
{
    const int warps[] = {1, 3, 32};
    const int segments[] = {1, 2, 32};
    Rng rng(20260809);
    for (int iter = 0; iter < 60; ++iter) {
        const int warp = warps[rng.nextBelow(3)];
        const int segs = segments[rng.nextBelow(3)];
        const std::size_t count = rng.nextBelow(700);
        std::vector<float> data(count);
        for (auto &v : data)
            v = randomAmplitudeValueF32(rng);
        GfcCodec codec(warp, segs);
        expectRoundTripF32(codec, data);
    }
}

TEST(GfcPropertiesF32, InfAndNanPayloadsRoundTripBitExactly)
{
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const float payload_nan = std::bit_cast<float>(
        std::bit_cast<std::uint32_t>(qnan) | 0xbeefu);
    const float neg_nan = std::bit_cast<float>(
        std::bit_cast<std::uint32_t>(qnan) | (1u << 31));
    const float inf = std::numeric_limits<float>::infinity();

    std::vector<float> data;
    Rng rng(405);
    for (int i = 0; i < 300; ++i) {
        switch (i % 6) {
          case 0: data.push_back(inf); break;
          case 1: data.push_back(-inf); break;
          case 2: data.push_back(qnan); break;
          case 3: data.push_back(payload_nan); break;
          case 4: data.push_back(neg_nan); break;
          default:
            data.push_back(randomAmplitudeValueF32(rng));
            break;
        }
    }
    for (const int segs : {1, 4, 32}) {
        GfcCodec codec(8, segs);
        expectRoundTripF32(codec, data);
    }
}

TEST(GfcPropertiesF32, SerialAndParallelStreamsAreByteIdentical)
{
    Rng rng(31338);
    for (const std::size_t count : identitySizes()) {
        std::vector<float> data(count);
        for (auto &v : data)
            v = randomAmplitudeValueF32(rng);
        expectThreadCountInvariant(data);
    }
}

TEST(GfcPropertiesF32, PayloadSizePlusHeaderIsTotal)
{
    Rng rng(6);
    std::vector<float> data(513);
    for (auto &v : data)
        v = randomAmplitudeValueF32(rng);
    GfcCodec codec(32, 4);
    EXPECT_EQ(codec.headerBytes(data.size()) +
                  codec.compressedPayloadSizeF32(data.data(),
                                                 data.size()),
              codec.compressedSizeF32(data.data(), data.size()));
}

TEST(GfcPropertiesF32, AmpRoundTripEqualsQuantizedInput)
{
    // compressAmpsF32 narrows each (pre-quantized) component to
    // float; decompressAmpsF32 widens exactly. So the round trip
    // reproduces quantizeAmpF32 of the input bit-for-bit.
    Rng rng(77);
    std::vector<Amp> amps(300);
    for (auto &a : amps)
        a = quantizeAmpF32(Amp(rng.nextDouble() - 0.5,
                               rng.nextDouble() - 0.5));
    GfcCodec codec(32, 4);
    const CompressedBlock block =
        codec.compressAmpsF32(amps.data(), amps.size());
    ASSERT_TRUE(block.f32);
    ASSERT_EQ(block.numDoubles, amps.size() * 2);
    std::vector<Amp> out(amps.size());
    codec.decompressAmpsF32(block, out.data());
    for (std::size_t i = 0; i < amps.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(amps[i].real()),
                  std::bit_cast<std::uint64_t>(out[i].real()))
            << "amp " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(amps[i].imag()),
                  std::bit_cast<std::uint64_t>(out[i].imag()))
            << "amp " << i;
    }
}

TEST(GfcPropertiesF32, NibbleClaimingMoreZeroBytesThanItsWordDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Two tiny denormals: each residual against zero fits one byte,
    // so the stream is a 16-byte header, the nibble byte 0x33 (3 zero
    // bytes each) and two payload bytes.
    const std::vector<float> data = {std::bit_cast<float>(5u),
                                     std::bit_cast<float>(7u)};
    const GfcCodec codec(32, 1);
    CompressedBlock block =
        codec.compressF32(data.data(), data.size());
    ASSERT_EQ(block.bytes.size(), 19u);
    ASSERT_EQ(block.bytes[16], 0x33);
    // Nibbles 6 and 0: taken as 4 - 6 and 4 - 0 bytes they still sum
    // to the two the header gives, yet the element with 0 zero bytes
    // reads four. An fp32 nibble past 3 counts as no bytes, so the
    // check sees the four bytes the decoder would read.
    block.bytes[16] = 0x06;
    std::vector<float> out(data.size());
    EXPECT_DEATH(codec.decompressF32(block, out.data()),
                 "GFC segment nibbles imply 4 payload bytes");
}

TEST(GfcPropertiesF32, LaneFlagGuardsPanicOnMismatch)
{
    // Feeding a stream to the wrong lane's decoder would silently
    // misparse word widths; both directions must panic instead.
    GfcCodec codec(8, 2);
    const std::vector<float> floats(64, 0.25f);
    const std::vector<double> doubles(64, 0.25);
    const CompressedBlock narrow =
        codec.compressF32(floats.data(), floats.size());
    const CompressedBlock wide =
        codec.compress(doubles.data(), doubles.size());
    std::vector<double> out64(64);
    std::vector<float> out32(64);
    EXPECT_DEATH(codec.decompress(narrow, out64.data()), "f32");
    EXPECT_DEATH(codec.decompressF32(wide, out32.data()), "f32");
}

} // namespace
} // namespace qgpu
