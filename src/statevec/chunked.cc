#include "statevec/chunked.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace qgpu
{

ChunkedStateVector::ChunkedStateVector(int num_qubits, int chunk_bits,
                                       const StorageConfig &storage)
    : numQubits_(num_qubits), chunkBits_(chunk_bits),
      storageCfg_(storage)
{
    if (chunk_bits < 0 || chunk_bits > num_qubits)
        QGPU_FATAL("chunk bits ", chunk_bits, " outside [0, ",
                   num_qubits, "]");
    // Bounded storage starts with every chunk elided (known zero);
    // setting the |0...0> amplitude materializes chunk 0 only, so the
    // full register is never allocated at once.
    if (storage.kind == StorageKind::Raw)
        amps_.assign(stateSize(num_qubits), Amp{0, 0});
    else
        setupResidency();
    amp(0) = Amp{1, 0};
}

void
ChunkedStateVector::setupResidency()
{
    // The residency adopts the flat register (if any) and owns the
    // chunks from here on.
    residency_ = std::make_unique<ChunkResidency>(
        storageCfg_, numChunks(), chunkSize(), amps_);
    std::vector<Amp>().swap(amps_);
}

void
ChunkedStateVector::releaseResidency()
{
    amps_.assign(stateSize(numQubits_), Amp{0, 0});
    residency_->drainInto(amps_);
    residency_.reset();
}

void
ChunkedStateVector::configureStorage(const StorageConfig &storage)
{
    if (residency_)
        releaseResidency();
    storageCfg_ = storage;
    if (storage.kind != StorageKind::Raw)
        setupResidency();
}

void
ChunkedStateVector::rechunk(int new_bits)
{
    if (new_bits == chunkBits_)
        return;
    if (new_bits < 0 || new_bits > numQubits_)
        QGPU_FATAL("chunk bits ", new_bits, " outside [0, ",
                   numQubits_, "]");

    // A raw chunk is a view of the flat register, so only the
    // geometry changes. Bounded storage goes through the flat
    // register: drain, re-slice, re-adopt (enforcing the budget again).
    const bool bounded = residency_ != nullptr;
    if (bounded)
        releaseResidency();
    chunkBits_ = new_bits;
    // Lane tags are per chunk; re-derive them for the new partition.
    // Amplitudes in fp32 lanes are already rounded, so no re-quantize
    // is needed (rounding is idempotent).
    retagChunks();
    if (bounded)
        setupResidency();
}

bool
ChunkedStateVector::chunkIsZero(Index c) const
{
    if (residency_ &&
        residency_->stateOf(c) != ChunkResidency::State::Resident)
        return residency_->knownZero(c);
    return std::ranges::all_of(chunk(c),
                               [](const Amp &a) { return a == Amp{0, 0}; });
}

void
ChunkedStateVector::gatherChunks(std::span<const Index> members,
                                 Amp *dst) const
{
    const Index size = chunkSize();
    for (std::size_t s = 0; s < members.size(); ++s)
        std::ranges::copy(chunk(members[s]), dst + s * size);
}

void
ChunkedStateVector::scatterChunks(std::span<const Index> members,
                                  const Amp *src)
{
    const Index size = chunkSize();
    for (std::size_t s = 0; s < members.size(); ++s)
        std::copy(src + s * size, src + (s + 1) * size,
                  chunk(members[s]).begin());
}

StateVector
ChunkedStateVector::toFlat() const
{
    if (!residency_)
        return StateVector(numQubits_, amps_);
    // Chunk-wise, without residency churn: cold chunks decode straight
    // into the flat buffer and stay cold.
    StateVector out(numQubits_);
    for (Index c = 0; c < numChunks(); ++c)
        residency_->readChunk(c, &out[c << chunkBits_]);
    return out;
}

StateVector
ChunkedStateVector::takeFlat()
{
    if (residency_)
        return toFlat();
    return StateVector(numQubits_, std::move(amps_));
}

void
ChunkedStateVector::fromFlat(const StateVector &state)
{
    if (state.numQubits() != numQubits_)
        QGPU_PANIC("flat state register ", state.numQubits(),
                   " != chunked register ", numQubits_);
    if (residency_) {
        for (Index c = 0; c < numChunks(); ++c)
            residency_->writeChunk(c, &state[c << chunkBits_]);
        return;
    }
    std::ranges::copy(state.amplitudes(), amps_.begin());
}

double
ChunkedStateVector::norm() const
{
    double sum = 0.0;
    if (residency_) {
        std::vector<Amp> scratch;
        for (Index c = 0; c < numChunks(); ++c) {
            using State = ChunkResidency::State;
            const State s = residency_->stateOf(c);
            if (s == State::Zero)
                continue;
            const Amp *data;
            if (s == State::Resident) {
                data = chunk(c).data();
            } else {
                scratch.resize(chunkSize());
                residency_->readChunk(c, scratch.data());
                data = scratch.data();
            }
            for (Index i = 0; i < chunkSize(); ++i)
                sum += std::norm(data[i]);
        }
        return sum;
    }
    for (const Amp &a : amps_)
        sum += std::norm(a);
    return sum;
}

void
ChunkedStateVector::setPrecision(Precision p, double promote_threshold)
{
    precision_ = p;
    promoteThreshold_ = promote_threshold;
    refreshPrecision();
}

bool
ChunkedStateVector::laneIsF32(std::span<const Amp> data) const
{
    if (precision_ != Precision::adaptive)
        return true;
    double max_mag = 0.0;
    for (const Amp &a : data) {
        max_mag = std::max(max_mag, std::abs(a.real()));
        max_mag = std::max(max_mag, std::abs(a.imag()));
    }
    return !(max_mag < promoteThreshold_);
}

void
ChunkedStateVector::retagChunks()
{
    if (precision_ == Precision::f64) {
        chunkF32_.clear();
        return;
    }
    chunkF32_.resize(numChunks());
    for (Index c = 0; c < numChunks(); ++c)
        chunkF32_[c] = laneIsF32(chunk(c));
}

void
ChunkedStateVector::refreshPrecision()
{
    if (precision_ == Precision::f64) {
        chunkF32_.clear();
        return;
    }
    chunkF32_.resize(numChunks());
    // Tag chunk c on its pre-quantize values, then round it in place
    // if it lands in the fp32 lane. Both are pure per-chunk functions,
    // so any chunk order or interleaving gives the same bits.
    const auto refresh = [this](Index c) {
        const std::span<Amp> data = chunk(c);
        chunkF32_[c] = laneIsF32(data);
        if (!chunkF32_[c])
            return;
        // Quantize through the raw double view: identical to
        // quantizeAmpF32 per component, but free of the complex-typed
        // narrowing that GCC 12 miscompiles (see quantizeAmpF32) and
        // vectorizable.
        double *raw = reinterpret_cast<double *>(data.data());
        const Index lanes = 2 * data.size();
        for (Index i = 0; i < lanes; ++i)
            raw[i] = static_cast<double>(static_cast<float>(raw[i]));
    };
    if (!residency_) {
        parallelFor(
            Index{0}, numChunks(), simThreads(),
            [&](Index cb, Index ce) {
                for (Index c = cb; c < ce; ++c)
                    refresh(c);
            },
            1, static_cast<double>(chunkSize()) * sizeof(Amp));
        return;
    }
    // Bounded storage: serially, materializing one chunk at a time
    // (cold chunks round-trip losslessly). A known-zero chunk is not
    // materialized: it takes the tag of a zero scan, and rounding
    // zeros is the identity.
    for (Index c = 0; c < numChunks(); ++c) {
        if (residency_->stateOf(c) != ChunkResidency::State::Resident &&
            residency_->knownZero(c))
            chunkF32_[c] = laneIsF32({});
        else
            refresh(c);
    }
}

Index
ChunkedStateVector::promotedChunks() const
{
    if (precision_ != Precision::adaptive)
        return 0;
    Index n = 0;
    for (Index c = 0; c < numChunks(); ++c)
        if (!chunkIsF32(c))
            ++n;
    return n;
}

} // namespace qgpu
