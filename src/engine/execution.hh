/**
 * @file
 * Execution-engine interface. An engine runs a circuit functionally
 * (producing the exact final state) while accruing virtual time on the
 * machine's host/device resources according to its scheduling policy.
 * The six versions evaluated in the paper (Baseline, Naive, Overlap,
 * Pruning, Reorder, Q-GPU) are engines with different policies over
 * the same machine model: each builds one ExecutionPlan
 * (sched/plan.hh), applies its sweeps with applyPlanSweep, and charges
 * the device model through a Charger (sim/charge.hh).
 */

#ifndef QGPU_ENGINE_EXECUTION_HH
#define QGPU_ENGINE_EXECUTION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/stats.hh"
#include "common/trace.hh"
#include "fault/sim_error.hh"
#include "noise/channel.hh"
#include "prune/involvement.hh"
#include "qc/circuit.hh"
#include "reorder/reorder.hh"
#include "sched/plan.hh"
#include "sim/charge.hh"
#include "statevec/chunk_storage.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{

class ChunkedStateVector;
class FaultInjector;
struct BatchResult;

/** Canonical stat keys every engine reports (others may be added);
 *  the byte, flop and codec-time keys the Charger adds live with it
 *  in sim/charge.hh. */
namespace statkeys
{
inline constexpr const char *totalTime = "time.total";
inline constexpr const char *hostCompute = "time.host_compute";
inline constexpr const char *deviceCompute = "time.device_compute";
inline constexpr const char *h2d = "time.h2d";
inline constexpr const char *d2h = "time.d2h";
inline constexpr const char *transfer = "time.transfer";
inline constexpr const char *sync = "time.sync";
inline constexpr const char *chunksProcessed = "chunks.processed";
inline constexpr const char *chunksPruned = "chunks.pruned";
inline constexpr const char *compressIn = "compress.in_bytes";
inline constexpr const char *compressOut = "compress.out_bytes";
inline constexpr const char *gatesApplied = "gates.applied";
/** Shots executed by runBatched. */
inline constexpr const char *shotsTotal = "shots.total";
/** Shared sweep schedules built (1 per shared-mode batch). */
inline constexpr const char *shotsPlans = "shots.schedule_builds";
/** Sweeps in the shared plan (per batch). */
inline constexpr const char *shotsPlanSweeps = "shots.plan_sweeps";
/** Sweep replays executed across every shot of the batch. */
inline constexpr const char *shotsSweepReplays =
    "shots.sweep_replays";
/** Sweep replays split mid-sweep by a sampled error insertion. */
inline constexpr const char *shotsSweepSplits =
    "shots.sweep_splits";
/** Sampled error gates inserted across the batch. */
inline constexpr const char *noiseEvents = "noise.events";
/** Gate sites whose attached noise could arm a new qubit (plan). */
inline constexpr const char *noiseArmedSites = "noise.armed_sites";
/** Readout bit flips applied to sampled outcomes. */
inline constexpr const char *noiseReadoutFlips =
    "noise.readout_flips";
/** Busy time summed over every device's peer (GPU-to-GPU) engine. */
inline constexpr const char *peerTime = "time.peer";
/** Cross-device exchange phases paid (at most one per sweep). */
inline constexpr const char *exchangePhases = "exchange.phases";
/** Chunk payloads moved over peer links. */
inline constexpr const char *exchangeChunks = "exchange.chunks";
/** Chunks held by the cold backend at the end of the run. */
inline constexpr const char *storageCold = "storage.compressed_chunks";
/** Working-set evictions performed. */
inline constexpr const char *storageEvictions = "storage.evictions";
/** Chunk accesses served by an already-resident slot. */
inline constexpr const char *storageHits = "storage.decompress_hits";
/** Chunk accesses that decoded from the cold backend. */
inline constexpr const char *storageMisses =
    "storage.decompress_misses";
/** Refills served by zero-filling an elided chunk. */
inline constexpr const char *storageZeroFills = "storage.zero_fills";
/** Bytes of decompressed resident slots at the end of the run. */
inline constexpr const char *storageResidentBytes =
    "storage.resident_bytes";
/** Host bytes of cold compressed streams at the end of the run. */
inline constexpr const char *storageColdBytes = "storage.cold_bytes";
/** Scratch-file bytes held by the spill backend. */
inline constexpr const char *storageSpillBytes = "storage.spill_bytes";
/** High-water mark of resident + cold host bytes. */
inline constexpr const char *storagePeakBytes =
    "storage.peak_host_bytes";
/** Payload checksums verified after decodes. */
inline constexpr const char *storageVerified = "storage.verified";
/** Eviction-write verification retries (armed codec faults). */
inline constexpr const char *storageRetries = "storage.retries";
/** Evictions degraded to raw payloads (armed alloc faults). */
inline constexpr const char *storageRawFallbacks =
    "storage.fallback_raw";
/** Configured working-set bound, in chunks. */
inline constexpr const char *storageWorkingSet = "storage.working_set";
} // namespace statkeys

/**
 * How runBatched executes a multi-shot job (engine/batched.hh).
 *
 * Shared builds one ExecutionPlan under a conservative union
 * involvement mask (ideal involvement ∪ every armable noise qubit)
 * and replays it per shot — the amortized fast path. PerShot
 * materializes each shot's sampled errors into an expanded circuit
 * and runs it through the engine's normal path, so pruning uses the
 * exact per-shot "touched-by-noise" set. Both are bit-identical per
 * shot (the stochastic-differential contract).
 */
enum class BatchMode
{
    Shared,
    PerShot,
};

/** Per-gate host/device synchronization latency (seconds). */
inline constexpr double syncLatency = 20e-6;

/** Tunables shared by the engines. */
struct ExecOptions
{
    /** Target number of chunks the state is partitioned into. */
    Index targetChunks = 256;

    /** Proactive bidirectional transfer (double buffering). */
    bool overlap = false;

    /** Zero-amplitude pruning (Algorithm 1). */
    bool prune = false;

    /** Dynamic chunk-size selection (needs prune). */
    bool dynamicChunks = true;

    /** Gate reordering pass applied before execution. */
    ReorderKind reorder = ReorderKind::None;

    /** GFC compression of non-zero chunks. */
    bool compress = false;

    /**
     * Qsim-style gate fusion before streaming (0 = off). An
     * extension beyond the paper: merging adjacent gates into
     * few-qubit matrices cuts the number of full-state streaming
     * passes, which is the dominant cost when the state exceeds
     * device memory. Applied after reordering.
     */
    int fuseWidth = 0;

    /** Involvement rule (paper = PerOp; NonDiagonal is the ablation). */
    InvolvementPolicy involvement = InvolvementPolicy::PerOp;

    /**
     * Max chunks whose compressed size is measured exactly per gate;
     * the rest reuse the sampled ratio. 0 measures every chunk.
     */
    int codecSampleChunks = 4;

    /**
     * OpenMP threads of the simulated host (0 = all of its cores):
     * part of the model, charged by the baseline's host updates and
     * the CPU comparators. The real worker count is simThreads().
     */
    int hostThreads = 0;

    /**
     * Record a phase-tagged execution trace (see common/trace.hh);
     * renderTimeline draws the Fig. 6 chart from it.
     */
    bool recordTrace = false;

    /** Keep the final state in the result (disable to save memory). */
    bool keepState = true;

    /**
     * Record per-chunk checksums at compress/D2H time and verify them
     * at H2D/decompress time (the `--verify-chunks` contract; see
     * fault/integrity.hh). Implied when payload faults are armed.
     */
    bool verifyChunks = false;

    /**
     * Max chunks checksummed/verified per sweep epoch under
     * --verify-chunks with no payload faults armed; the tracked window
     * rotates each epoch so every chunk is still covered over
     * consecutive sweeps (the codecSampleChunks idiom — bounds the
     * fault-free verification overhead). 0 tracks every chunk every
     * epoch. Ignored while payload faults arm the compressed sidecar,
     * which always tracks every shipped chunk.
     */
    int verifySampleChunks = 8;

    /**
     * Fault-injection spec: "env" (default) reads $QGPU_FAULT_SPEC,
     * "" or "none" disables injection, anything else is parsed as a
     * spec string like "d2h:0.01,codec:0.005" (fault/injector.hh).
     */
    std::string faultSpec = "env";

    /** Seed for the deterministic fault injector. */
    std::uint64_t faultSeed = 0x517e57ull;

    /**
     * Extra attempts granted to a simulated transfer that keeps
     * failing under injected faults before the run ends with a
     * structured SimError.
     */
    int transferRetries = 3;

    /**
     * Run the fast-math kernel tier (kernel_dispatch.hh,
     * KernelTier::Fast): the specialized kernels compiled with
     * contracted FMAs, accuracy-bounded at 1e-12 against the exact
     * tier. A per-run value: the engine passes it down to every
     * kernel it lowers, so runs on either tier can share a process.
     * Defaults to the QGPU_FAST_MATH environment flag (see
     * defaultFastMath) so the CLI/env opt-in reaches every engine;
     * the default tier stays bit-identical when this is off.
     */
    bool fastMath = defaultFastMath();

    /**
     * Amplitude storage precision (common/types.hh). f32 halves the
     * bytes every modeled transfer and the GFC codec move, at a 1e-5
     * accuracy contract; adaptive keeps low-magnitude chunks in the
     * f64 lane (see adaptiveThreshold). Computation stays double.
     */
    Precision precision = Precision::f64;

    /**
     * Adaptive mode's promotion threshold: a chunk whose largest
     * amplitude component magnitude is below this stays in the f64
     * lane instead of being rounded to fp32.
     */
    double adaptiveThreshold = 1e-6;

    /**
     * Chunk storage backend for the authoritative host state
     * (statevec/chunk_storage.hh). Raw keeps every chunk
     * decompressed (today's behavior); Compressed / Spill bound the
     * decompressed working set and keep cold chunks GFC-encoded in
     * host memory / paged to a scratch file — bit-identical results,
     * several extra qubits at equal host RAM.
     */
    StorageKind storage = StorageKind::Raw;

    /**
     * Working-set bound in chunks for non-raw storage (0 = auto: a
     * quarter of host RAM; see StorageConfig::workingSetChunks).
     */
    Index workingSetChunks = 0;

    /** Scratch directory for the spill backend ("" = $TMPDIR, /tmp). */
    std::string spillDir;

    /**
     * Noise-model spec for batched execution (noise/model.hh):
     * "" or "none" runs ideal shots, "env" reads $QGPU_NOISE_SPEC,
     * anything else is a spec string or JSON object.
     */
    std::string noiseSpec;

    /**
     * Base seed of the batch; shot i draws from
     * Rng(splitSeed(shotSeed, i)) (common/rng.hh).
     */
    std::uint64_t shotSeed = 0x5407ull;

    /** Shared-schedule replay vs per-shot expanded runs. */
    BatchMode batchMode = BatchMode::Shared;

    /**
     * Keep every per-shot final state in BatchResult::states (the
     * differential harness needs them; production batches should
     * leave this off — it is shots × the full state).
     */
    bool keepShotStates = false;

    /** True when QGPU_FAST_MATH is set to a non-empty, non-"0" value
     *  in the environment (read once per process). */
    static bool defaultFastMath();
};

/**
 * The StorageConfig an engine's state should run under: the options'
 * backend/bound plus the run's fault injector (codec/alloc points
 * reach eviction and refill) and retry budget.
 */
StorageConfig makeStorageConfig(const ExecOptions &options,
                                FaultInjector *injector);

/**
 * Export the state's storage.* counters into @p stats (no-op under
 * raw storage). Engines call this right before flattening the final
 * state; ExecutionEngine::run mirrors the family into the global
 * MetricsRegistry.
 */
void exportStorageStats(const ChunkedStateVector &state,
                        StatSet &stats);

/**
 * The executed gate order: @p circuit reordered per the options, then
 * fused. With fusion on, @p stats (when given) records the gate count
 * before and after it.
 */
Circuit orderCircuit(const Circuit &circuit, const ExecOptions &options,
                     StatSet *stats = nullptr);

/**
 * The one functional step of every engine: apply sweep @p sweep of
 * @p plan to @p state (already at the sweep's chunk size) in one
 * chunk-major pass, skipping chunks the plan proves dead, then
 * re-apply the storage-precision policy. Sampled error gates in
 * @p events (sorted by gate index) are inserted after their gate,
 * splitting the pass; errors after the sweep's last gate see its
 * postBits. Shot replays count their passes and splits into
 * @p shot_stats.
 */
void applyPlanSweep(ChunkedStateVector &state, const ExecutionPlan &plan,
                    std::size_t sweep, KernelTier tier,
                    std::span<const noise::NoiseEvent> events = {},
                    StatSet *shot_stats = nullptr);

/** Outcome of one engine run. */
struct RunResult
{
    std::string engine;
    VTime totalTime = 0.0;
    /** Real host seconds spent inside run() (the virtual totalTime
     *  models the GPU; this measures the simulator itself). */
    double wallSeconds = 0.0;
    StatSet stats;
    /** Phase-tagged spans (empty unless recordTrace). */
    Trace trace;
    /** Final state; empty (1 qubit, |0>) when keepState is false. */
    StateVector state{1};
    /**
     * Structured failure when a fault-recovery policy was exhausted;
     * the state is then meaningless. Faults that were recovered
     * in-pipeline (retries, raw fallback) leave this empty.
     */
    std::optional<SimError> error;

    bool ok() const { return !error.has_value(); }
};

/**
 * Abstract engine. Construction binds a machine (resources are reset
 * at the start of every run).
 */
class ExecutionEngine
{
  public:
    ExecutionEngine(Machine &machine, ExecOptions options);
    virtual ~ExecutionEngine() = default;

    virtual std::string name() const = 0;

    const ExecOptions &options() const { return options_; }

    /** Simulate @p circuit from |0...0>. */
    RunResult run(const Circuit &circuit);

    /**
     * Execute @p shots seeded measurement shots of @p circuit under
     * the options' noise model and batch mode (engine/batched.hh).
     * @p shot_seeds, when non-empty, supplies one RNG seed per shot
     * (size must equal @p shots); otherwise shot i is seeded with
     * splitSeed(options().shotSeed, i). Implemented once here —
     * every engine version batches identically; in Shared mode the
     * per-shot results are engine-version-independent by
     * construction.
     */
    BatchResult runBatched(
        const Circuit &circuit, std::uint64_t shots,
        std::span<const std::uint64_t> shot_seeds = {});

  protected:
    /**
     * Engine body: update @p result.stats / trace, charge machine()
     * through a Charger, and return the final state.
     */
    virtual StateVector execute(const Circuit &circuit,
                                RunResult &result) = 0;

    Machine &machine() { return machine_; }

    /** Chunk-offset bits giving ~targetChunks chunks of n qubits. */
    int baseChunkBits(int num_qubits) const;

  private:
    Machine &machine_;
    ExecOptions options_;
};

} // namespace qgpu

#endif // QGPU_ENGINE_EXECUTION_HH
