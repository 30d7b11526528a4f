#include "engine/execution.hh"

#include <algorithm>
#include <cstdlib>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "fault/injector.hh"
#include "fault/integrity.hh"
#include "qc/fusion.hh"
#include "statevec/apply.hh"

namespace qgpu
{

namespace
{

/** TRUE for chunks provably all-zero: some set bit of the chunk's
 *  global-index prefix is not live. Empty without pruning. */
ZeroPredicate
deadChunks(bool prune, std::uint64_t live_bits, int chunk_bits)
{
    if (!prune)
        return {};
    return [live_bits, chunk_bits](Index c) {
        return !isLiveChunk(c, chunk_bits, live_bits);
    };
}

} // namespace

Circuit
orderCircuit(const Circuit &circuit, const ExecOptions &options,
             StatSet *stats)
{
    Circuit ordered = reorderCircuit(circuit, options.reorder);
    if (options.fuseWidth <= 0)
        return ordered;
    if (stats != nullptr)
        stats->set("gates.original",
                   static_cast<double>(ordered.numGates()));
    ordered = fuseGates(ordered, options.fuseWidth);
    if (stats != nullptr)
        stats->set("gates.fused", static_cast<double>(ordered.numGates()));
    return ordered;
}

void
applyPlanSweep(ChunkedStateVector &state, const ExecutionPlan &plan,
               std::size_t sweep, KernelTier tier,
               std::span<const noise::NoiseEvent> events,
               StatSet *shot_stats)
{
    const PlanSweep &sw = plan.sweeps[sweep];
    const std::span<const Gate> gates(plan.ordered.gates());
    const ZeroPredicate dead =
        deadChunks(plan.prune, sw.liveBits, sw.chunkBits);
    auto ev = std::lower_bound(
        events.begin(), events.end(), sw.begin,
        [](const noise::NoiseEvent &e, std::size_t g) {
            return e.gateIndex < g;
        });
    for (std::size_t at = sw.begin; at < sw.end;) {
        // Run up to the next error insertion (or the sweep end); every
        // sub-span keeps the sweep's signature and predicate.
        const std::size_t stop =
            ev != events.end() && ev->gateIndex + 1 < sw.end
                ? ev->gateIndex + 1
                : sw.end;
        if (shot_stats != nullptr && stop < sw.end)
            shot_stats->add(statkeys::shotsSweepSplits, 1.0);
        applySweepChunked(state, gates.subspan(at, stop - at),
                          sw.globalBits, dead, tier);
        if (shot_stats != nullptr)
            shot_stats->add(statkeys::shotsSweepReplays, 1.0);
        // Errors at the sweep's last gate may arm new qubits, so they
        // see postBits; mid-sweep errors touch already-live qubits.
        const ZeroPredicate after =
            stop == sw.end
                ? deadChunks(plan.prune, sw.postBits, sw.chunkBits)
                : dead;
        for (; ev != events.end() && ev->gateIndex == stop - 1; ++ev)
            applyGateChunked(state, ev->gate, after, tier);
        at = stop;
    }
    // fp32-lane chunks are rounded here, so every later reader (codec
    // sample, integrity ledger, functional state) sees stored values.
    state.refreshPrecision();
}

StorageConfig
makeStorageConfig(const ExecOptions &options, FaultInjector *injector)
{
    StorageConfig cfg;
    cfg.kind = options.storage;
    cfg.workingSetChunks = options.workingSetChunks;
    cfg.spillDir = options.spillDir;
    cfg.injector = injector;
    cfg.retries = options.transferRetries;
    return cfg;
}

void
exportStorageStats(const ChunkedStateVector &state, StatSet &stats)
{
    if (!state.boundedStorage())
        return;
    const StorageStats s = state.storageStats();
    stats.set(statkeys::storageCold,
              static_cast<double>(s.coldChunks));
    stats.set(statkeys::storageEvictions,
              static_cast<double>(s.evictions));
    stats.set(statkeys::storageHits,
              static_cast<double>(s.decompressHits));
    stats.set(statkeys::storageMisses,
              static_cast<double>(s.decompressMisses));
    stats.set(statkeys::storageZeroFills,
              static_cast<double>(s.zeroFills));
    stats.set(statkeys::storageResidentBytes,
              static_cast<double>(s.residentBytes));
    stats.set(statkeys::storageColdBytes,
              static_cast<double>(s.coldBytes));
    stats.set(statkeys::storageSpillBytes,
              static_cast<double>(s.spillBytes));
    stats.set(statkeys::storagePeakBytes,
              static_cast<double>(s.peakHostBytes));
    stats.set(statkeys::storageVerified,
              static_cast<double>(s.verified));
    stats.set(statkeys::storageRetries,
              static_cast<double>(s.retries));
    stats.set(statkeys::storageRawFallbacks,
              static_cast<double>(s.rawFallbacks));
    stats.set(statkeys::storageWorkingSet,
              static_cast<double>(s.workingSet));
}

bool
ExecOptions::defaultFastMath()
{
    static const bool enabled = [] {
        const char *v = std::getenv("QGPU_FAST_MATH");
        return v != nullptr && *v != '\0' &&
               std::string_view{v} != "0";
    }();
    return enabled;
}

ExecutionEngine::ExecutionEngine(Machine &machine, ExecOptions options)
    : machine_(machine), options_(std::move(options))
{
}

RunResult
ExecutionEngine::run(const Circuit &circuit)
{
    machine_.reset();

    const WallClock wall;
    RunResult result;
    result.engine = name();
    if (options_.recordTrace)
        result.trace.enable();

    std::optional<StateVector> state;
    try {
        state.emplace(execute(circuit, result));
    } catch (const SimException &e) {
        // A fault-recovery policy was exhausted. Surface the failure
        // structurally — never a crash, never a silently corrupt
        // state (the |0...0> placeholder plus `error` is the
        // contract; the placeholder is built below, only if kept).
        result.error = e.error();
        result.stats.add(intkeys::simErrors, 1.0);
    }
    result.wallSeconds = wall.seconds();

    // Collect resource busy times common to every engine.
    auto &stats = result.stats;
    stats.set(statkeys::hostCompute,
              machine_.host().compute().busyTime());
    double h2d = 0.0, d2h = 0.0, dev = 0.0, peer = 0.0;
    VTime horizon = machine_.host().compute().freeAt();
    const bool multi = machine_.numDevices() > 1;
    for (int d = 0; d < machine_.numDevices(); ++d) {
        const auto &device = machine_.device(d);
        h2d += device.h2dEngine().busyTime();
        d2h += device.d2hEngine().busyTime();
        dev += device.compute().busyTime();
        peer += device.peerEngine().busyTime();
        horizon = std::max({horizon, device.compute().freeAt(),
                            device.h2dEngine().freeAt(),
                            device.d2hEngine().freeAt(),
                            device.peerEngine().freeAt()});
        if (multi) {
            // Per-device busy breakdown: with one device these rows
            // duplicate the aggregates, so they are multi-device only.
            const std::string prefix =
                "device." + std::to_string(d) + ".";
            stats.set(prefix + "busy", device.compute().busyTime());
            stats.set(prefix + "h2d", device.h2dEngine().busyTime());
            stats.set(prefix + "d2h", device.d2hEngine().busyTime());
            stats.set(prefix + "peer",
                      device.peerEngine().busyTime());
        }
    }
    stats.set(statkeys::h2d, h2d);
    stats.set(statkeys::d2h, d2h);
    if (peer > 0.0)
        stats.set(statkeys::peerTime, peer);
    // Exposed transfer period: bidirectional overlap hides the
    // shorter direction behind the longer one.
    stats.set(statkeys::transfer,
              options_.overlap ? std::max(h2d, d2h) : h2d + d2h);
    // Device compute excluding codec work.
    stats.set(statkeys::deviceCompute,
              dev - stats.get(statkeys::compressTime) -
                  stats.get(statkeys::decompressTime));

    result.totalTime = horizon;
    stats.set(statkeys::totalTime, result.totalTime);

    // Mirror the per-run integrity and storage counters into the
    // process-wide registry so long-lived processes can watch
    // corruption/recovery and working-set behavior without keeping
    // RunResults alive.
    auto &registry = MetricsRegistry::global();
    for (const auto &name : stats.names()) {
        if ((name.rfind("integrity.", 0) == 0 ||
             name.rfind("storage.", 0) == 0) &&
            stats.get(name) != 0.0) {
            registry.add(name, stats.get(name));
        }
    }

    if (options_.keepState)
        result.state = state ? std::move(*state)
                             : StateVector{circuit.numQubits()};
    return result;
}

int
ExecutionEngine::baseChunkBits(int num_qubits) const
{
    const int chunk_index_bits = std::min<int>(
        num_qubits,
        bits::log2Exact(std::bit_ceil(options_.targetChunks)));
    return num_qubits - chunk_index_bits;
}

} // namespace qgpu
