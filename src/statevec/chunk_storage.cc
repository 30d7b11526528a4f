#include "statevec/chunk_storage.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compress/gfc.hh"
#include "fault/checksum.hh"
#include "fault/injector.hh"
#include "fault/sim_error.hh"

namespace qgpu
{

const char *
storageKindName(StorageKind kind)
{
    switch (kind) {
    case StorageKind::Compressed: return "compressed";
    case StorageKind::Spill: return "spill";
    case StorageKind::Raw: break;
    }
    return "raw";
}

bool
parseStorageKind(std::string_view name, StorageKind &out)
{
    if (name == "raw") {
        out = StorageKind::Raw;
    } else if (name == "compressed" || name == "gfc") {
        out = StorageKind::Compressed;
    } else if (name == "spill") {
        out = StorageKind::Spill;
    } else {
        return false;
    }
    return true;
}

namespace
{

[[noreturn]] void
throwStorageError(SimErrorCode code, const char *point,
                  std::string detail, Index chunk, int attempts = 0)
{
    SimError err;
    err.code = code;
    err.point = point;
    err.detail = std::move(detail);
    err.chunk = static_cast<std::int64_t>(chunk);
    err.attempts = attempts;
    throw SimException(std::move(err));
}

/**
 * Cold chunks as GFC streams in host memory. The fp32 stream lane is
 * only ever selected for bit-exact float round trips, so every stored
 * form decodes back to the evicted bytes exactly.
 */
class CompressedStore final : public ColdStore
{
  public:
    StorageKind kind() const override { return StorageKind::Compressed; }

    void
    reset(Index num_chunks, Index) override
    {
        entries_.assign(num_chunks, Entry{});
        hostBytes_ = 0;
    }

    StoredInfo
    store(Index c, std::span<const Amp> amps, bool f32_lane,
          bool force_raw) override
    {
        Entry &e = entries_[c];
        hostBytes_ -= e.block.bytes.size();
        e.used = true;
        e.raw = force_raw;
        if (force_raw) {
            const auto *bytes =
                reinterpret_cast<const std::uint8_t *>(amps.data());
            e.block.bytes.assign(bytes,
                                 bytes + amps.size() * sizeof(Amp));
            e.block.numDoubles = 2 * amps.size();
            e.block.f32 = false;
        } else if (f32_lane) {
            const std::uint64_t n = 2 * amps.size();
            narrow_.resize(n);
            const double *raw =
                reinterpret_cast<const double *>(amps.data());
            parallelFor(
                std::uint64_t{0}, n, simThreads(),
                [&](std::uint64_t lo, std::uint64_t hi) {
                    for (std::uint64_t i = lo; i < hi; ++i)
                        narrow_[i] = static_cast<float>(raw[i]);
                },
                std::size_t{1} << 12);
            codec_.compressF32Into(narrow_.data(), n, e.block);
        } else {
            codec_.compressAmpsInto(amps.data(), amps.size(), e.block);
        }
        hostBytes_ += e.block.bytes.size();
        return {e.block.bytes.size(),
                checksumBytes(e.block.bytes.data(),
                              e.block.bytes.size())};
    }

    std::uint64_t
    storedSum(Index c) override
    {
        const Entry &e = entries_[c];
        return checksumBytes(e.block.bytes.data(), e.block.bytes.size());
    }

    void
    load(Index c, std::span<Amp> out, std::uint64_t stream_sum) override
    {
        const Entry &e = entries_[c];
        if (!e.used)
            QGPU_PANIC("load of unstored chunk ", c);
        // The GFC decoder panics on corrupt streams, so corruption
        // must be caught here, before decoding.
        if (checksumBytes(e.block.bytes.data(),
                          e.block.bytes.size()) != stream_sum)
            throwStorageError(SimErrorCode::ChecksumMismatch, "codec",
                              "stored GFC stream checksum mismatch", c);
        if (e.raw) {
            std::memcpy(out.data(), e.block.bytes.data(),
                        out.size() * sizeof(Amp));
        } else if (e.block.f32) {
            codec_.decompressAmpsF32(e.block, out.data());
        } else {
            codec_.decompressAmps(e.block, out.data());
        }
    }

    void
    drop(Index c) override
    {
        Entry &e = entries_[c];
        hostBytes_ -= e.block.bytes.size();
        e = Entry{};
    }

    void
    corruptStored(Index c, FaultInjector &injector) override
    {
        injector.corrupt(entries_[c].block.bytes);
    }

    std::uint64_t hostBytes() const override { return hostBytes_; }
    std::uint64_t spillBytes() const override { return 0; }

  private:
    struct Entry
    {
        CompressedBlock block;
        bool used = false;
        bool raw = false;
    };

    GfcCodec codec_;
    std::vector<Entry> entries_;
    std::vector<float> narrow_;
    std::uint64_t hostBytes_ = 0;
};

/**
 * Cold chunks paged to an unlinked scratch file, one fixed-size slot
 * per chunk (fp32-lane chunks write floats, halving the slot's used
 * bytes). pread/pwrite are positioned, so concurrent loads of
 * distinct chunks need no shared file offset.
 */
class SpillStore final : public ColdStore
{
  public:
    explicit SpillStore(std::string dir) : dir_(std::move(dir)) {}

    ~SpillStore() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    StorageKind kind() const override { return StorageKind::Spill; }

    void
    reset(Index num_chunks, Index chunk_size) override
    {
        entries_.assign(num_chunks, Entry{});
        slotBytes_ = chunk_size * sizeof(Amp);
        spillBytes_ = 0;
        if (fd_ >= 0 && ::ftruncate(fd_, 0) != 0)
            throwStorageError(SimErrorCode::TransferFailed, "spill",
                              "ftruncate failed", 0);
    }

    StoredInfo
    store(Index c, std::span<const Amp> amps, bool f32_lane,
          bool force_raw) override
    {
        openFile();
        Entry &e = entries_[c];
        spillBytes_ -= e.bytes;
        const bool narrow = f32_lane && !force_raw;
        const std::uint8_t *payload;
        std::uint64_t bytes;
        if (narrow) {
            const std::uint64_t n = 2 * amps.size();
            narrow_.resize(n);
            const double *raw =
                reinterpret_cast<const double *>(amps.data());
            for (std::uint64_t i = 0; i < n; ++i)
                narrow_[i] = static_cast<float>(raw[i]);
            payload =
                reinterpret_cast<const std::uint8_t *>(narrow_.data());
            bytes = n * sizeof(float);
        } else {
            payload =
                reinterpret_cast<const std::uint8_t *>(amps.data());
            bytes = amps.size() * sizeof(Amp);
        }
        rw(c, const_cast<std::uint8_t *>(payload), bytes, true);
        e.used = true;
        e.f32 = narrow;
        e.bytes = bytes;
        spillBytes_ += bytes;
        return {bytes, checksumBytes(payload, bytes)};
    }

    std::uint64_t
    storedSum(Index c) override
    {
        const Entry &e = entries_[c];
        std::vector<std::uint8_t> buf(e.bytes);
        rw(c, buf.data(), e.bytes, false);
        return checksumBytes(buf.data(), buf.size());
    }

    void
    load(Index c, std::span<Amp> out, std::uint64_t stream_sum) override
    {
        const Entry &e = entries_[c];
        if (!e.used)
            QGPU_PANIC("load of unspilled chunk ", c);
        if (e.f32) {
            std::vector<float> buf(2 * out.size());
            rw(c, reinterpret_cast<std::uint8_t *>(buf.data()),
               e.bytes, false);
            if (checksumBytes(buf.data(), e.bytes) != stream_sum)
                throwStorageError(SimErrorCode::ChecksumMismatch,
                                  "spill",
                                  "spilled payload checksum mismatch",
                                  c);
            double *raw = reinterpret_cast<double *>(out.data());
            for (std::size_t i = 0; i < buf.size(); ++i)
                raw[i] = static_cast<double>(buf[i]);
        } else {
            rw(c, reinterpret_cast<std::uint8_t *>(out.data()),
               e.bytes, false);
            if (checksumBytes(out.data(), e.bytes) != stream_sum)
                throwStorageError(SimErrorCode::ChecksumMismatch,
                                  "spill",
                                  "spilled payload checksum mismatch",
                                  c);
        }
    }

    void
    drop(Index c) override
    {
        Entry &e = entries_[c];
        spillBytes_ -= e.bytes;
        e = Entry{};
    }

    void
    corruptStored(Index c, FaultInjector &injector) override
    {
        const Entry &e = entries_[c];
        std::vector<std::uint8_t> buf(e.bytes);
        rw(c, buf.data(), e.bytes, false);
        injector.corrupt(buf);
        rw(c, buf.data(), e.bytes, true);
    }

    std::uint64_t hostBytes() const override { return 0; }
    std::uint64_t spillBytes() const override { return spillBytes_; }

  private:
    struct Entry
    {
        bool used = false;
        bool f32 = false;
        std::uint64_t bytes = 0;
    };

    void
    openFile()
    {
        if (fd_ >= 0)
            return;
        std::string dir = dir_;
        if (dir.empty()) {
            const char *tmp = std::getenv("TMPDIR");
            dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
        }
        std::string path = dir + "/qgpu-spill-XXXXXX";
        fd_ = ::mkstemp(path.data());
        if (fd_ < 0)
            throwStorageError(SimErrorCode::AllocFailed, "spill",
                              "cannot create scratch file in " + dir,
                              0);
        // Unlink immediately: the file lives only as long as the fd.
        ::unlink(path.c_str());
    }

    void
    rw(Index c, std::uint8_t *buf, std::uint64_t bytes, bool write)
    {
        std::uint64_t done = 0;
        const auto base = static_cast<off_t>(c * slotBytes_);
        while (done < bytes) {
            const off_t at = base + static_cast<off_t>(done);
            const ssize_t n =
                write ? ::pwrite(fd_, buf + done, bytes - done, at)
                      : ::pread(fd_, buf + done, bytes - done, at);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                throwStorageError(SimErrorCode::TransferFailed, "spill",
                                  write ? "pwrite failed"
                                        : "pread failed",
                                  c);
            }
            done += static_cast<std::uint64_t>(n);
        }
    }

    std::string dir_;
    int fd_ = -1;
    std::uint64_t slotBytes_ = 0;
    std::uint64_t spillBytes_ = 0;
    std::vector<Entry> entries_;
    std::vector<float> narrow_;
};

} // namespace

std::unique_ptr<ColdStore>
makeColdStore(StorageKind kind, const std::string &spill_dir)
{
    switch (kind) {
    case StorageKind::Compressed:
        return std::make_unique<CompressedStore>();
    case StorageKind::Spill:
        return std::make_unique<SpillStore>(spill_dir);
    case StorageKind::Raw: break;
    }
    return nullptr;
}

namespace
{

Index
budgetFor(const StorageConfig &config, Index num_chunks,
          Index chunk_size)
{
    Index budget = config.workingSetChunks;
    if (budget == 0) {
        // Auto: a quarter of host RAM for the decompressed set, the
        // rest left for the cold streams, scratch, and everyone else.
        const std::uint64_t chunk_bytes =
            std::max<std::uint64_t>(1, chunk_size * sizeof(Amp));
        budget = static_cast<Index>(hostRamBytes() / 4 / chunk_bytes);
    }
    const Index floor = std::min<Index>(num_chunks, 4);
    return std::clamp(budget, floor, num_chunks);
}

} // namespace

ChunkResidency::ChunkResidency(const StorageConfig &config,
                               Index num_chunks, Index chunk_size,
                               std::span<const Amp> initial)
    : kind_(config.kind), numChunks_(num_chunks),
      chunkSize_(chunk_size),
      budget_(budgetFor(config, num_chunks, chunk_size)),
      retries_(config.retries), injector_(config.injector),
      slots_(num_chunks),
      store_(makeColdStore(config.kind, config.spillDir)),
      meta_(num_chunks)
{
    if (store_ == nullptr)
        QGPU_FATAL("ChunkResidency needs a non-raw storage kind");
    store_->reset(num_chunks, chunk_size);
    stats_.workingSet = budget_;
    for (Index c = 0; c < numChunks_ && !initial.empty(); ++c) {
        const auto src = initial.subspan(c * chunkSize_, chunkSize_);
        bool byte_zero = true;
        const auto *raw =
            reinterpret_cast<const std::uint64_t *>(src.data());
        for (Index i = 0; i < 2 * chunkSize_ && byte_zero; ++i)
            byte_zero = raw[i] == 0;
        if (byte_zero)
            continue; // Zero (the default meta)
        slots_[c].assign(src.begin(), src.end());
        meta_[c].state = State::Resident;
        meta_[c].wasZero = false;
        ++residentCount_;
    }
    notePeak();
    enforceBudget();
}

ChunkResidency::~ChunkResidency() = default;

void
ChunkResidency::setDeviceMap(std::vector<int> device_of)
{
    deviceOf_ = std::move(device_of);
    int max_dev = -1;
    for (int d : deviceOf_)
        max_dev = std::max(max_dev, d);
    devResident_.assign(static_cast<std::size_t>(max_dev + 1), 0);
    for (Index c = 0; c < numChunks_; ++c)
        if (meta_[c].state == State::Resident)
            devInc(c);
}

void
ChunkResidency::devInc(Index c)
{
    if (!deviceOf_.empty() && deviceOf_[c] >= 0)
        ++devResident_[static_cast<std::size_t>(deviceOf_[c])];
}

void
ChunkResidency::devDec(Index c)
{
    if (!deviceOf_.empty() && deviceOf_[c] >= 0)
        --devResident_[static_cast<std::size_t>(deviceOf_[c])];
}

void
ChunkResidency::notePeak()
{
    const std::uint64_t now = residentBytes() + store_->hostBytes();
    stats_.peakHostBytes = std::max(stats_.peakHostBytes, now);
}

Index
ChunkResidency::pickVictim()
{
    // Clock with second chance; bounded at two laps so a fully
    // referenced set degrades to plain FIFO order. With a device map
    // the first eligible victim from a device at or above its
    // balanced share wins, keeping per-device working sets even; the
    // overall first eligible chunk is kept as the fallback.
    const Index none = numChunks_;
    Index fallback = none;
    const std::uint64_t num_devs = devResident_.size();
    for (Index step = 0; step < 2 * numChunks_; ++step) {
        const Index c = hand_;
        hand_ = hand_ + 1 == numChunks_ ? 0 : hand_ + 1;
        Meta &m = meta_[c];
        if (m.state != State::Resident || m.pins > 0)
            continue;
        if (m.ref != 0) {
            m.ref = 0;
            continue;
        }
        if (deviceOf_.empty())
            return c;
        const int dev = deviceOf_[c];
        if (dev < 0 ||
            devResident_[static_cast<std::size_t>(dev)] * num_devs >=
                residentCount_)
            return c;
        if (fallback == none)
            fallback = c;
    }
    return fallback;
}

void
ChunkResidency::evict(Index c)
{
    Meta &m = meta_[c];
    std::vector<Amp> &slot = slots_[c];
    // One pass over the raw 64-bit patterns classifies the chunk:
    // byte-zero (all +0.0 — elide entirely), value-zero (may contain
    // -0.0, whose sign bit must survive the round trip), and
    // f32-exact (every component round-trips double->float->double
    // bit-identically, making the fp32 stream lane lossless here).
    bool byte_zero = true, value_zero = true, f32_exact = true;
    const double *raw = reinterpret_cast<const double *>(slot.data());
    const Index lanes = 2 * chunkSize_;
    for (Index i = 0;
         i < lanes && (byte_zero || value_zero || f32_exact); ++i) {
        const double v = raw[i];
        std::uint64_t pattern;
        std::memcpy(&pattern, &v, sizeof pattern);
        if (pattern != 0)
            byte_zero = false;
        if (!(v == 0.0))
            value_zero = false;
        if (f32_exact) {
            const double back =
                static_cast<double>(static_cast<float>(v));
            std::uint64_t back_pattern;
            std::memcpy(&back_pattern, &back, sizeof back_pattern);
            if (back_pattern != pattern)
                f32_exact = false;
        }
    }

    if (byte_zero) {
        std::vector<Amp>().swap(slot);
        m.state = State::Zero;
        m.wasZero = true;
        m.payloadSum = 0;
        m.streamSum = 0;
    } else {
        m.payloadSum = checksumAmps(slot);
        bool force_raw = false;
        if (injector_ != nullptr &&
            injector_->enabled(FaultPoint::Alloc) &&
            injector_->fire(FaultPoint::Alloc)) {
            // Simulated compression-scratch allocation failure:
            // degrade this chunk to a raw stored payload.
            force_raw = true;
            ++stats_.rawFallbacks;
        }
        const bool armed_codec = injector_ != nullptr &&
                                 injector_->enabled(FaultPoint::Codec);
        int attempt = 0;
        for (;;) {
            const StoredInfo info =
                store_->store(c, slot, f32_exact, force_raw);
            m.streamSum = info.streamSum;
            if (!armed_codec)
                break;
            if (injector_->fire(FaultPoint::Codec))
                store_->corruptStored(c, *injector_);
            // Eviction writes re-checksum: re-read the stored stream
            // before the decompressed copy is gone.
            if (store_->storedSum(c) == info.streamSum)
                break;
            ++stats_.retries;
            if (++attempt >= retries_)
                throwStorageError(SimErrorCode::CodecFailed, "codec",
                                  "eviction write verification "
                                  "exhausted its retries",
                                  c, attempt);
        }
        std::vector<Amp>().swap(slot);
        m.state = State::Cold;
        m.wasZero = value_zero;
    }
    m.ref = 0;
    --residentCount_;
    devDec(c);
    ++stats_.evictions;
    notePeak();
}

void
ChunkResidency::makeRoom(Index incoming)
{
    while (residentCount_ + incoming > budget_) {
        const Index victim = pickVictim();
        if (victim == numChunks_)
            break; // everything evictable is pinned: overshoot
        evict(victim);
    }
}

void
ChunkResidency::issueFill(Index c, bool async)
{
    // Serial half of a refill: state transition, fault draws, and
    // counters. The returned slot fill is the only concurrent part.
    Meta &m = meta_[c];
    const bool zero = m.state == State::Zero;
    if (zero) {
        ++stats_.zeroFills;
    } else {
        ++stats_.decompressMisses;
        if (injector_ != nullptr &&
            injector_->enabled(FaultPoint::Alloc) &&
            injector_->fire(FaultPoint::Alloc))
            throwStorageError(SimErrorCode::AllocFailed, "alloc",
                              "working-set refill allocation failed",
                              c);
        ++stats_.verified;
        pendingDrops_.push_back(c);
    }
    m.state = State::Resident;
    m.ref = 1;
    ++residentCount_;
    devInc(c);
    notePeak();
    auto work = [this, c, zero] {
        std::vector<Amp> &slot = slots_[c];
        if (zero) {
            slot.assign(chunkSize_, Amp{0, 0});
            return;
        }
        const Meta &m = meta_[c];
        slot.resize(chunkSize_);
        store_->load(c, slot, m.streamSum);
        if (checksumAmps(slot) != m.payloadSum)
            throwStorageError(SimErrorCode::ChecksumMismatch, "codec",
                              "decoded payload checksum mismatch", c);
    };
    if (async) {
        fills_.run(std::move(work));
    } else {
        work();
        finishDrops();
    }
}

void
ChunkResidency::finishDrops()
{
    for (Index c : pendingDrops_)
        store_->drop(c);
    pendingDrops_.clear();
}

void
ChunkResidency::ensure(Index c)
{
    Meta &m = meta_[c];
    if (m.state == State::Resident) {
        m.ref = 1;
        return;
    }
    makeRoom(1);
    issueFill(c, false);
}

void
ChunkResidency::readChunk(Index c, Amp *dst)
{
    Meta &m = meta_[c];
    switch (m.state) {
    case State::Zero:
        std::fill(dst, dst + chunkSize_, Amp{0, 0});
        break;
    case State::Resident: {
        const std::vector<Amp> &slot = slots_[c];
        std::copy(slot.begin(), slot.end(), dst);
        ++stats_.decompressHits;
        break;
    }
    case State::Cold:
        ++stats_.decompressMisses;
        store_->load(c, {dst, static_cast<std::size_t>(chunkSize_)},
                     m.streamSum);
        if (checksumAmps({dst, static_cast<std::size_t>(chunkSize_)}) !=
            m.payloadSum)
            throwStorageError(SimErrorCode::ChecksumMismatch, "codec",
                              "decoded payload checksum mismatch", c);
        ++stats_.verified;
        break;
    }
}

void
ChunkResidency::writeChunk(Index c, const Amp *src)
{
    Meta &m = meta_[c];
    std::vector<Amp> &slot = slots_[c];
    bool byte_zero = true;
    const auto *raw = reinterpret_cast<const std::uint64_t *>(src);
    for (Index i = 0; i < 2 * chunkSize_ && byte_zero; ++i)
        byte_zero = raw[i] == 0;
    if (byte_zero) {
        if (m.state == State::Resident) {
            std::vector<Amp>().swap(slot);
            --residentCount_;
            devDec(c);
        } else if (m.state == State::Cold) {
            store_->drop(c);
        }
        m.state = State::Zero;
        m.wasZero = true;
        m.ref = 0;
        m.payloadSum = 0;
        m.streamSum = 0;
        return;
    }
    if (m.state == State::Cold)
        store_->drop(c);
    if (m.state != State::Resident) {
        makeRoom(1);
        m.state = State::Resident;
        ++residentCount_;
        devInc(c);
        notePeak();
    }
    m.ref = 1;
    m.wasZero = false;
    slot.assign(src, src + chunkSize_);
}

void
ChunkResidency::pinAsync(std::span<const Index> cs)
{
    // Pins are taken before any eviction, so makeRoom can never pick
    // a victim out of this same block.
    Index incoming = 0;
    for (Index c : cs) {
        Meta &m = meta_[c];
        ++m.pins;
        if (m.state != State::Resident) {
            ++incoming;
        } else if (m.pins == 1) {
            m.ref = 1;
            ++stats_.decompressHits;
        }
    }
    if (incoming == 0)
        return;
    makeRoom(incoming);
    for (Index c : cs)
        if (meta_[c].state != State::Resident)
            issueFill(c, true);
}

void
ChunkResidency::waitPins()
{
    fills_.wait();
    finishDrops();
}

void
ChunkResidency::unpin(std::span<const Index> cs)
{
    for (Index c : cs)
        --meta_[c].pins;
}

void
ChunkResidency::drainInto(std::span<Amp> flat)
{
    for (Index c = 0; c < numChunks_; ++c) {
        if (meta_[c].state == State::Zero)
            continue;
        if (meta_[c].state == State::Cold)
            issueFill(c, false);
        std::ranges::copy(slots_[c], flat.begin() + c * chunkSize_);
        std::vector<Amp>().swap(slots_[c]);
    }
}

void
ChunkResidency::enforceBudget()
{
    makeRoom(0);
}

StorageStats
ChunkResidency::stats() const
{
    StorageStats out = stats_;
    for (const Meta &m : meta_) {
        switch (m.state) {
        case State::Zero: ++out.zeroChunks; break;
        case State::Resident: ++out.residentChunks; break;
        case State::Cold: ++out.coldChunks; break;
        }
    }
    out.residentBytes = residentBytes();
    out.coldBytes = store_->hostBytes();
    out.spillBytes = store_->spillBytes();
    return out;
}

} // namespace qgpu
