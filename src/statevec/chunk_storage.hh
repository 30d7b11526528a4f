/**
 * @file
 * Pluggable cold-chunk storage for ChunkedStateVector (MEMQSim-style
 * memory-efficient state): instead of keeping every
 * chunk fully decompressed in host memory, a bounded working set of
 * chunks stays resident while the rest live in a ColdStore backend —
 * GFC-compressed host buffers (`compressed`) or a scratch file
 * (`spill`). `raw`, the default, keeps the whole register as one
 * contiguous array and needs no residency manager.
 *
 * Bit-identity contract: eviction is always LOSSLESS. A chunk is
 * stored either byte-for-byte or through the GFC codec (which is
 * lossless on raw 64-bit patterns, including -0.0, denormals, and NaN
 * payloads); the fp32 stream lane is used only when every component
 * provably round-trips double->float->double bit-exactly. Refilling a
 * chunk therefore reproduces exactly the bytes that were evicted, so
 * every engine x backend combination stays maxAbsDiff == 0 against
 * raw storage.
 *
 * Threading discipline: all residency transitions, fault-injection
 * draws, and counter updates happen on the single-threaded scheduling
 * path. The only work that runs on pool workers is filling the slots
 * of chunks being pinned (distinct chunks, disjoint buffers); pinned
 * chunks are never evicted, so parallel kernel workers only ever see
 * fully resident, stable slots.
 *
 * Integrity (PR 5 interplay): every store records two FNV-1a
 * checksums — the decompressed payload and the encoded stream. load()
 * verifies the stream checksum BEFORE decoding (the GFC decoder
 * panics on corrupt streams, so corruption must be caught first) and
 * the caller re-verifies the payload checksum after decoding; a
 * mismatch surfaces as a structured SimError instead of silent
 * corruption. Eviction writes re-checksum the stored stream when
 * codec faults are armed, retrying up to StorageConfig::retries.
 */

#ifndef QGPU_STATEVEC_CHUNK_STORAGE_HH
#define QGPU_STATEVEC_CHUNK_STORAGE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hh"
#include "common/types.hh"

namespace qgpu
{

class FaultInjector;

/** Which backend holds chunks outside the working set. */
enum class StorageKind
{
    /** Every chunk fully decompressed in host memory (default). */
    Raw,
    /** Cold chunks held GFC-encoded in host memory. */
    Compressed,
    /** Cold chunks paged to an unlinked scratch file. */
    Spill,
};

/** Canonical name ("raw" / "compressed" / "spill"). */
const char *storageKindName(StorageKind kind);

/**
 * Parse a storage kind name as printed by storageKindName. Returns
 * false (leaving @p out untouched) for anything else.
 */
bool parseStorageKind(std::string_view name, StorageKind &out);

/** Counters and gauges exported as the `storage.*` metric family. */
struct StorageStats
{
    /** Chunks currently held by the cold backend. */
    std::uint64_t coldChunks = 0;
    /** Chunks currently decompressed in the working set. */
    std::uint64_t residentChunks = 0;
    /** Chunks currently elided entirely (known byte-zero). */
    std::uint64_t zeroChunks = 0;
    /** Working-set evictions performed. */
    std::uint64_t evictions = 0;
    /** Chunk accesses satisfied by an already-resident slot. */
    std::uint64_t decompressHits = 0;
    /** Chunk accesses that had to decode from the cold backend. */
    std::uint64_t decompressMisses = 0;
    /** Refills satisfied by zero-filling an elided chunk. */
    std::uint64_t zeroFills = 0;
    /** Payload checksums verified after a decode. */
    std::uint64_t verified = 0;
    /** Eviction-write verification retries (armed codec faults). */
    std::uint64_t retries = 0;
    /** Evictions degraded to a raw payload (armed alloc faults). */
    std::uint64_t rawFallbacks = 0;
    /** Bytes of decompressed resident slots. */
    std::uint64_t residentBytes = 0;
    /** Host bytes held by the cold backend (compressed streams). */
    std::uint64_t coldBytes = 0;
    /** Scratch-file bytes held by the spill backend. */
    std::uint64_t spillBytes = 0;
    /** High-water mark of residentBytes + coldBytes. */
    std::uint64_t peakHostBytes = 0;
    /** Configured working-set bound, in chunks. */
    std::uint64_t workingSet = 0;
};

/** What a ColdStore::store recorded for one chunk. */
struct StoredInfo
{
    /** Bytes the stored form occupies (host or scratch file). */
    std::uint64_t storedBytes = 0;
    /** FNV-1a checksum of the encoded stream as written. */
    std::uint64_t streamSum = 0;
};

/**
 * Backend holding chunks evicted from the working set. store / drop /
 * storedSum / corruptStored are scheduling-thread-only; load may be
 * called concurrently for DISTINCT chunks (refill tasks on the pool).
 */
class ColdStore
{
  public:
    virtual ~ColdStore() = default;

    virtual StorageKind kind() const = 0;

    /** Size for @p num_chunks chunks of @p chunk_size amps each,
     *  dropping any previous contents. */
    virtual void reset(Index num_chunks, Index chunk_size) = 0;

    /**
     * Store chunk @p c. @p f32_lane selects the fp32 stream lane (the
     * caller guarantees every component round-trips bit-exactly);
     * @p force_raw bypasses the codec and stores the amplitude bytes
     * verbatim (alloc-fault degradation path).
     */
    virtual StoredInfo store(Index c, std::span<const Amp> amps,
                             bool f32_lane, bool force_raw) = 0;

    /** Re-checksum the stored stream of chunk @p c as held now. */
    virtual std::uint64_t storedSum(Index c) = 0;

    /**
     * Decode chunk @p c into @p out (chunk_size amps). Verifies the
     * stored stream against @p stream_sum BEFORE decoding and throws
     * SimException(ChecksumMismatch) on mismatch. The entry stays
     * stored (callers drop() explicitly).
     */
    virtual void load(Index c, std::span<Amp> out,
                      std::uint64_t stream_sum) = 0;

    /** Forget chunk @p c, releasing its bytes. */
    virtual void drop(Index c) = 0;

    /** Flip one byte of chunk @p c's stored form (fault injection). */
    virtual void corruptStored(Index c, FaultInjector &injector) = 0;

    /** Host bytes currently held (0 for the spill backend). */
    virtual std::uint64_t hostBytes() const = 0;

    /** Scratch-file bytes currently held (0 for host backends). */
    virtual std::uint64_t spillBytes() const = 0;
};

/** Construct the backend for @p kind (nullptr for Raw). */
std::unique_ptr<ColdStore> makeColdStore(StorageKind kind,
                                         const std::string &spill_dir);

/** How a ChunkedStateVector's storage should behave. */
struct StorageConfig
{
    StorageKind kind = StorageKind::Raw;
    /**
     * Bound on decompressed chunks kept resident. 0 sizes the set
     * automatically from host RAM (a quarter of hostRamBytes()).
     * Clamped to [min(4, numChunks), numChunks].
     */
    Index workingSetChunks = 0;
    /** Scratch directory for the spill backend ("" = $TMPDIR, /tmp). */
    std::string spillDir;
    /** Optional fault source (codec/alloc points); must outlive the
     *  state. Draws happen only on the scheduling thread. */
    FaultInjector *injector = nullptr;
    /** Eviction-write verification retry budget (armed codec faults). */
    int retries = 3;
};

/**
 * Residency manager for one ChunkedStateVector: tracks the per-chunk
 * state machine (Zero / Resident / Cold), the clock eviction hand,
 * pin counts, and the checksums guarding every cold round trip. It
 * owns one slot vector per chunk; the invariant "slot non-empty <=>
 * chunk Resident" is what lets chunk() skip the state machine entirely
 * for resident chunks.
 */
class ChunkResidency
{
  public:
    enum class State : std::uint8_t
    {
        /** Known byte-zero; no slot, no stored payload. */
        Zero,
        /** Decompressed in its slot, part of the working set. */
        Resident,
        /** Held by the cold backend; slot empty. */
        Cold,
    };

    /**
     * Adopt the flat register @p initial (num_chunks * chunk_size
     * amps; empty means all zero): byte-zero chunks become Zero,
     * everything else is copied into a Resident slot; then the
     * working set is brought within budget.
     */
    ChunkResidency(const StorageConfig &config, Index num_chunks,
                   Index chunk_size, std::span<const Amp> initial = {});
    ~ChunkResidency();

    ChunkResidency(const ChunkResidency &) = delete;
    ChunkResidency &operator=(const ChunkResidency &) = delete;

    StorageKind kind() const { return kind_; }
    Index workingSet() const { return budget_; }

    /** Largest chunk block callers should pin at once: half the
     *  working set, so the prefetched next block fits alongside. */
    Index maxPinnedBlock() const
    {
        return budget_ / 2 > 0 ? budget_ / 2 : 1;
    }

    /**
     * Owning device per chunk (ShardMap::deviceTable). Eviction then
     * prefers victims from devices at or above their balanced share,
     * keeping per-device working sets even.
     */
    void setDeviceMap(std::vector<int> device_of);

    State stateOf(Index c) const { return meta_[c].state; }

    /**
     * Chunk @p c's slot, made resident first when it is not (the
     * ensure() rules apply; resident access touches no state).
     */
    std::span<Amp> chunk(Index c)
    {
        std::vector<Amp> &slot = slots_[c];
        if (slot.empty())
            ensure(c);
        return slot;
    }

    /** True when chunk @p c is known all-value-zero without touching
     *  data (Zero, or Cold with a value-zero payload). Resident
     *  chunks return false — the caller must scan. */
    bool knownZero(Index c) const
    {
        const Meta &m = meta_[c];
        return m.state == State::Zero ||
               (m.state == State::Cold && m.wasZero);
    }

    /**
     * Make chunk @p c resident (scheduling thread only; accessors
     * call this exactly when the slot is empty, which never happens
     * for pinned chunks inside parallel regions).
     */
    void ensure(Index c);

    /**
     * Copy chunk @p c into @p dst (chunk_size amps) WITHOUT changing
     * residency: Zero chunks zero-fill, Resident chunks copy, Cold
     * chunks decode straight into @p dst (payload verified).
     */
    void readChunk(Index c, Amp *dst);

    /**
     * Replace chunk @p c with @p src (chunk_size amps). Byte-zero
     * content elides the chunk back to Zero; anything else becomes
     * Resident (evicting as needed).
     */
    void writeChunk(Index c, const Amp *src);

    /**
     * Pin @p cs and begin refilling any non-resident members
     * asynchronously on the thread pool. Transitions, fault draws,
     * and eviction of victims all happen here, serially; only the
     * slot fills run concurrently. Pinned chunks are never evicted.
     */
    void pinAsync(std::span<const Index> cs);

    /** Wait for outstanding refills; rethrows their first error. */
    void waitPins();

    /** Drop the pins taken by a matching pinAsync. */
    void unpin(std::span<const Index> cs);

    /** pinAsync + waitPins. */
    void pin(std::span<const Index> cs)
    {
        pinAsync(cs);
        waitPins();
    }

    /**
     * Copy every chunk into the zero-initialized flat register
     * @p flat, ignoring the budget (used around re-partitioning).
     * Cold chunks refill exactly as ensure() would, in chunk order;
     * each slot is freed once copied. The manager is spent afterwards
     * and must be discarded.
     */
    void drainInto(std::span<Amp> flat);

    /** Evict until the working set is within budget again. */
    void enforceBudget();

    /** Current counters, gauges, and per-state chunk counts. */
    StorageStats stats() const;

    /** Resident chunk count per device (empty without a device map);
     *  exposed for the shard-balance tests. */
    std::vector<Index> deviceResident() const { return devResident_; }

  private:
    struct Meta
    {
        State state = State::Zero;
        /** Clock reference bit (second chance). */
        std::uint8_t ref = 0;
        /** Pin count; pinned chunks are never evicted. */
        std::uint16_t pins = 0;
        /** Cold payload is all value-zero (may contain -0.0). */
        bool wasZero = true;
        /** FNV-1a of the decompressed payload at eviction time. */
        std::uint64_t payloadSum = 0;
        /** FNV-1a of the encoded stream as stored. */
        std::uint64_t streamSum = 0;
    };

    void evict(Index c);
    Index pickVictim();
    void makeRoom(Index incoming);
    void issueFill(Index c, bool async);
    void finishDrops();
    void devInc(Index c);
    void devDec(Index c);
    void notePeak();
    std::uint64_t residentBytes() const
    {
        return residentCount_ * chunkSize_ * sizeof(Amp);
    }

    StorageKind kind_;
    Index numChunks_;
    Index chunkSize_;
    Index budget_;
    int retries_;
    FaultInjector *injector_;
    std::vector<std::vector<Amp>> slots_;
    std::unique_ptr<ColdStore> store_;
    std::vector<Meta> meta_;
    Index hand_ = 0;
    Index residentCount_ = 0;
    std::vector<int> deviceOf_;
    std::vector<Index> devResident_;
    TaskGroup fills_;
    std::vector<Index> pendingDrops_;
    StorageStats stats_;
};

} // namespace qgpu

#endif // QGPU_STATEVEC_CHUNK_STORAGE_HH
