/**
 * @file
 * GFC lossless floating-point compression (O'Neil & Burtscher, GPGPU
 * 2011), as adopted by Q-GPU for non-zero state amplitudes (§IV-D).
 *
 * Layout follows the paper's Fig. 11: a chunk is split into segments
 * (one per warp on the real GPU); each segment is processed in
 * micro-chunks of `warpSize` doubles. Lane j of micro-chunk k encodes
 * the residual against lane j of micro-chunk k-1 as a 4-bit prefix
 * (1 sign bit, 3 bits counting leading-zero bytes) plus the non-zero
 * magnitude bytes. Residuals are computed on the raw 64-bit patterns,
 * so the codec is lossless for every input including NaN payloads.
 *
 * Host parallelism: when simThreads() > 1 every entry point can fan
 * work across the shared thread pool, with output (and
 * reconstruction) bit-identical to the serial path. Multi-segment
 * blocks parallelize over segments, but only above the pool's
 * small-work cutoff (QGPU_PAR_CUTOFF; at its default, blocks under
 * 8,192 words run inline, where dispatch would cost more than the
 * codec work). A single segment parallelizes internally once it spans
 * two codec grains — encoding residuals are pure functions of
 * (element, element - warpSize), and decoding splits because residual
 * addition is associative mod 2^64, so per-range per-lane partial
 * sums compose exactly. A segment decoded as one range takes one
 * pass: each value is the value warpSize words back plus its residual.
 * compressBatch / decompressBatch additionally fan independent blocks
 * out together.
 */

#ifndef QGPU_COMPRESS_GFC_HH
#define QGPU_COMPRESS_GFC_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace qgpu
{

/**
 * A compressed run of floating-point words. Classic GFC streams hold
 * doubles; fp32-lane streams (see GfcCodec::compressF32) hold floats
 * and set @c f32. @c numDoubles counts words of the stream's lane
 * width (the name predates the fp32 lane).
 */
struct CompressedBlock
{
    std::vector<std::uint8_t> bytes;
    std::uint64_t numDoubles = 0;
    /** True when the stream's words are fp32 lanes. */
    bool f32 = false;

    std::uint64_t compressedBytes() const { return bytes.size(); }
    std::uint64_t
    originalBytes() const
    {
        return numDoubles * (f32 ? sizeof(float) : sizeof(double));
    }
    /** original/compressed; > 1 means the data shrank. */
    double
    ratio() const
    {
        return bytes.empty()
                   ? 1.0
                   : static_cast<double>(originalBytes()) /
                         static_cast<double>(compressedBytes());
    }
};

/**
 * The GFC codec. Stateless apart from configuration; safe to share.
 */
class GfcCodec
{
  public:
    /**
     * @param warp_size lanes per micro-chunk (32 on NVIDIA hardware).
     * @param segments segments per block; on the GPU each is an
     *        independent warp's work item.
     */
    explicit GfcCodec(int warp_size = 32, int segments = 32);

    int warpSize() const { return warpSize_; }
    int segments() const { return segments_; }

    /** Compress @p count doubles. */
    CompressedBlock compress(const double *data,
                             std::uint64_t count) const;

    /** Compress the raw doubles of an amplitude array. */
    CompressedBlock compressAmps(const Amp *data,
                                 std::uint64_t count) const;

    /**
     * Decompress into @p out, which must hold block.numDoubles
     * doubles. Panics on a corrupt stream.
     */
    void decompress(const CompressedBlock &block, double *out) const;

    /** Decompress into an amplitude array of numDoubles/2 entries. */
    void decompressAmps(const CompressedBlock &block, Amp *out) const;

    /**
     * Compress @p count floats in the fp32 lane: the same stream
     * layout with 32-bit words (2-bit-effective leading-zero-byte
     * counts, residuals mod 2^32). Lossless for every float input
     * including NaN payloads; serial/parallel byte-identity holds
     * exactly as in the f64 lane.
     */
    CompressedBlock compressF32(const float *data,
                                std::uint64_t count) const;

    /**
     * Compress an fp32-lane amplitude chunk: each (already
     * fp32-quantized, see quantizeAmpF32) component is narrowed to
     * float and compressed in the fp32 lane — exactly the bytes a
     * Precision::f32 chunk ships.
     */
    CompressedBlock compressAmpsF32(const Amp *data,
                                    std::uint64_t count) const;

    /**
     * In-place variant of compress: encode into @p out, reusing its
     * byte buffer's capacity. The repeated store/evict cycles of the
     * compressed-resident chunk storage lean on this to avoid a fresh
     * stream allocation per eviction.
     */
    void compressInto(const double *data, std::uint64_t count,
                      CompressedBlock &out) const;

    /** In-place variant of compressAmps. */
    void compressAmpsInto(const Amp *data, std::uint64_t count,
                          CompressedBlock &out) const;

    /** In-place variant of compressF32. */
    void compressF32Into(const float *data, std::uint64_t count,
                         CompressedBlock &out) const;

    /** Decompress an fp32-lane block into numDoubles floats. */
    void decompressF32(const CompressedBlock &block, float *out) const;

    /**
     * Decompress an fp32-lane block into numDoubles/2 amplitudes,
     * widening each component to double (exact, so the result equals
     * the quantized values that were compressed).
     */
    void decompressAmpsF32(const CompressedBlock &block,
                           Amp *out) const;

    /**
     * Size in bytes the block would compress to, without materializing
     * the stream (used when only the ratio is needed).
     */
    std::uint64_t compressedSize(const double *data,
                                 std::uint64_t count) const;

    /** compressedSize for an fp32-lane stream of @p count floats. */
    std::uint64_t compressedSizeF32(const float *data,
                                    std::uint64_t count) const;

    /** Fixed stream overhead (headers + segment table) for @p count
     *  doubles. compressedSize = headerBytes + payload. */
    std::uint64_t headerBytes(std::uint64_t count) const;

    /**
     * Payload-only compressed size (nibbles + residual bytes). This
     * is the asymptotic per-byte cost of the stream: on paper-scale
     * chunks (tens of MB) the headers are noise, so the engine's
     * ratio model uses this.
     */
    std::uint64_t compressedPayloadSize(const double *data,
                                        std::uint64_t count) const;

    /** compressedPayloadSize for an fp32-lane stream. */
    std::uint64_t compressedPayloadSizeF32(const float *data,
                                           std::uint64_t count) const;

  private:
    int warpSize_;
    int segments_;
};

/** One run of doubles handed to the batch APIs. */
struct DoubleRun
{
    const double *data;
    std::uint64_t count;
};

/**
 * Compress every run concurrently on the thread pool. Output blocks
 * are bit-identical to calling codec.compress on each run in order.
 */
std::vector<CompressedBlock>
compressBatch(const GfcCodec &codec,
              const std::vector<DoubleRun> &runs);

/**
 * Decompress every (block, destination) pair concurrently on the
 * thread pool. Destinations must not alias.
 */
void decompressBatch(
    const GfcCodec &codec,
    const std::vector<std::pair<const CompressedBlock *, double *>>
        &items);

} // namespace qgpu

#endif // QGPU_COMPRESS_GFC_HH
