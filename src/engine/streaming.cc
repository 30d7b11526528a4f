#include "engine/streaming.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "fault/integrity.hh"
#include "sched/shard.hh"
#include "statevec/apply.hh"
#include "statevec/kernels.hh"

namespace qgpu
{

namespace
{

/**
 * The live groups of one gate of sweep @p sw (every group without
 * pruning): a group is dead only if every member chunk is provably
 * zero. Liveness is a subset test on the chunk's set bits, and every
 * member sets bits on top of the group's first one, so the group is
 * live exactly when its first member is. Counts the gate's processed
 * and pruned chunks and, when pruning, traces the decision as a
 * zero-length marker at @p frontier (host bookkeeping with no modeled
 * cost, but its outcome is the counter the pruning figures are built
 * from).
 */
std::vector<Index>
liveGroups(const GatePlan &gp, const PlanSweep &sw, bool prune,
           StatSet &stats, Trace &trace, VTime frontier)
{
    std::vector<Index> live;
    live.reserve(gp.numGroups());
    for (Index g = 0; g < gp.numGroups(); ++g)
        if (!prune || sw.chunkLive(gp.firstMember(g)))
            live.push_back(g);
    const double span = gp.chunksPerGroup();
    const double live_chunks = static_cast<double>(live.size()) * span;
    const double pruned_chunks =
        static_cast<double>(gp.numGroups() - live.size()) * span;
    stats.add(statkeys::chunksProcessed, live_chunks);
    stats.add(statkeys::chunksPruned, pruned_chunks);
    stats.add(statkeys::gatesApplied, 1.0);
    if (prune && trace.enabled()) {
        trace.record(phases::prune, "decide", "host.prune", frontier,
                     frontier,
                     {{statkeys::chunksProcessed, live_chunks},
                      {statkeys::chunksPruned, pruned_chunks}});
    }
    return live;
}

} // namespace

StreamingEngine::StreamingEngine(Machine &machine, ExecOptions options,
                                 std::string label)
    : ExecutionEngine(machine, std::move(options)),
      label_(std::move(label))
{
}

StateVector
StreamingEngine::execute(const Circuit &circuit, RunResult &result)
{
    Circuit ordered = orderCircuit(circuit, options(), &result.stats);
    Machine &m = machine();
    const int n = ordered.numQubits();
    const int num_devs = m.numDevices();
    const int base_bits = baseChunkBits(n);
    const bool prune = options().prune;

    // Every device can hold its balanced shard (with one device: the
    // whole state): sharded-resident execution with batched peer
    // exchange. Otherwise the state exceeds the devices' combined
    // memory and falls through to round-robin host streaming (§V-E).
    const Index D = static_cast<Index>(num_devs);
    const std::uint64_t shard_bytes =
        (((Index{1} << (n - base_bits)) + D - 1) / D) *
        ((Index{1} << base_bits) * ampBytes);
    bool fits = true;
    for (int d = 0; d < num_devs; ++d)
        fits = fits && shard_bytes <= m.device(d).spec().memBytes;
    if (fits) {
        return executeSharded(buildPlan(std::move(ordered), prune,
                                        options().involvement, base_bits,
                                        base_bits),
                              result);
    }

    auto &stats = result.stats;
    auto &trace = result.trace;
    const KernelTier tier =
        options().fastMath ? KernelTier::Fast : KernelTier::Exact;
    // Storage lane width drives every modeled byte count. f32 halves
    // it; adaptive plans capacity at the wide lane (chunks may be
    // promoted at any sweep) and accounts per chunk where it matters.
    const bool narrow = options().precision == Precision::f32;
    const double per_amp_bytes =
        2.0 * static_cast<double>(ampStoredBytes(narrow)); // r + w

    // Dynamic chunk-size selection (Algorithm 1 line 2): the plan
    // sizes each sweep from the involvement mask before it.
    const int min_bits =
        prune && options().dynamicChunks ? std::clamp(n - 14, 0, base_bits)
                                         : base_bits;
    const ExecutionPlan plan = buildPlan(
        std::move(ordered), prune, options().involvement, min_bits,
        base_bits);

    // Fault injection + chunk integrity (fault/integrity.hh). The
    // compressed sidecar — a real GFC roundtrip per shipped chunk —
    // is only armed when payload faults are, so a fault-free
    // --verify-chunks run pays for checksums alone. Built before the
    // state so bounded storage can route its codec/alloc faults
    // through the same injector.
    FaultInjector injector(FaultSpec::resolve(options().faultSpec),
                           options().faultSeed);
    ChunkedStateVector state(n, plan.chunkBits,
                             makeStorageConfig(options(), &injector));
    if (options().precision != Precision::f64)
        state.setPrecision(options().precision,
                           options().adaptiveThreshold);
    const bool payload_faults =
        injector.enabled(FaultPoint::Codec) ||
        injector.enabled(FaultPoint::Alloc);
    ChunkIntegrity guard(options().verifyChunks,
                         payload_faults ? &codec_ : nullptr,
                         options().verifySampleChunks);
    if (guard.active())
        guard.reset(state.numChunks());
    Charger charge(m, stats, trace, injector,
                   options().transferRetries);

    // Host-side availability of each chunk's latest value.
    std::vector<VTime> chunk_ready(state.numChunks(), 0.0);
    // Compressed size of each chunk as currently held on the host.
    std::vector<double> comp_size;
    double fallback_ratio = 1.0;
    // Measure the GFC ratio over a run of chunks, concatenated so the
    // lane structure spans chunk boundaries the way it spans a
    // paper-scale chunk. Chunks are grouped by storage lane: f64-lane
    // chunks price the classic stream, fp32-lane chunks price the
    // narrow stream over their float components (what actually ships).
    // Returns original/compressed, floored at 1 (the raw escape
    // hatch: incompressible data ships as-is).
    std::vector<Amp> scratch;
    std::vector<Amp> scratch32;
    std::vector<float> narrow_buf;
    const auto measure_ratio = [&](const std::vector<Index> &chunks,
                                   std::size_t max_chunks) {
        scratch.clear();
        scratch32.clear();
        const std::size_t take =
            max_chunks == 0 ? chunks.size()
                            : std::min(chunks.size(), max_chunks);
        for (std::size_t i = 0; i < take; ++i) {
            const auto &data = state.chunk(chunks[i]);
            auto &dst =
                state.chunkIsF32(chunks[i]) ? scratch32 : scratch;
            dst.insert(dst.end(), data.begin(), data.end());
        }
        if (scratch.empty() && scratch32.empty())
            return 1.0;
        const double raw =
            static_cast<double>(scratch.size()) * ampBytes +
            static_cast<double>(scratch32.size()) *
                static_cast<double>(ampStoredBytes(true));
        double comp = 0.0;
        if (!scratch.empty()) {
            comp += static_cast<double>(codec_.compressedPayloadSize(
                reinterpret_cast<const double *>(scratch.data()),
                2 * scratch.size()));
        }
        if (!scratch32.empty()) {
            narrow_buf.resize(2 * scratch32.size());
            const double *raw_comp =
                reinterpret_cast<const double *>(scratch32.data());
            for (std::size_t i = 0; i < narrow_buf.size(); ++i)
                narrow_buf[i] = static_cast<float>(raw_comp[i]);
            comp += static_cast<double>(
                codec_.compressedPayloadSizeF32(narrow_buf.data(),
                                                narrow_buf.size()));
        }
        comp = std::max(1.0, comp);
        return std::max(1.0, raw / comp);
    };
    auto reset_comp_sizes = [&] {
        if (!options().compress)
            return;
        // Untouched chunks are all zero and compress maximally: GFC
        // stores one nibble and one zero byte per double.
        const double zero_size = std::max<double>(
            1.0,
            static_cast<double>(2 * state.chunkSize()) * 1.5);
        comp_size.assign(state.numChunks(), zero_size);
        comp_size[0] = static_cast<double>(state.chunkBytes()) /
                       measure_ratio({0}, 1);
        fallback_ratio =
            static_cast<double>(state.chunkBytes()) / zero_size;
    };
    reset_comp_sizes();

    // Per-device double-buffer slot availability.
    const int slots = options().overlap ? 2 : 1;
    std::vector<std::vector<VTime>> slot_free(
        num_devs, std::vector<VTime>(slots, 0.0));
    std::vector<int> dev_batches(num_devs, 0);
    int batch_rr = 0;
    // Latest D2H completion; prune-decision markers anchor here.
    VTime frontier = 0.0;

    // Functional updates run sweep-at-a-time: at each sweep boundary
    // the whole sweep is applied in one chunk-major pass, and the
    // per-gate loop below only charges the transfers, codec passes
    // and kernels. Host memory stands in for every location, so the
    // codec ratio sample reads the post-sweep state: the same
    // amplitudes the chunks hold when they actually ship.
    const std::span<const Gate> all_gates{plan.ordered.gates()};
    std::vector<Index> member_scratch;
    for (std::size_t s = 0; s < plan.sweeps.size(); ++s) {
        const PlanSweep &sw = plan.sweeps[s];
        if (sw.chunkBits != state.chunkBits()) {
            // A new dynamic chunk size: every re-cut chunk is ready
            // once all of the old ones are.
            state.rechunk(sw.chunkBits);
            VTime barrier = 0.0;
            for (VTime t : chunk_ready)
                barrier = std::max(barrier, t);
            chunk_ready.assign(state.numChunks(), barrier);
            reset_comp_sizes();
            // New chunk geometry: recorded checksums no longer
            // describe any chunk.
            if (guard.active())
                guard.reset(state.numChunks());
        }
        applyPlanSweep(state, plan, s, tier);
        // The sweep rewrote chunk data: ship-time checksums from
        // before it are stale.
        guard.beginEpoch();

        for (std::size_t gate_idx = sw.begin; gate_idx < sw.end;
             ++gate_idx) {
            const Gate &gate = all_gates[gate_idx];
            const auto gate_tag = static_cast<std::int64_t>(gate_idx);
            const GatePlan gp(gate, n, sw.chunkBits);
            const int span = gp.chunksPerGroup();
            const std::uint64_t chunk_bytes = state.chunkBytes();
            const double group_flops =
                kernels::gateFlops(gate, n) /
                static_cast<double>(gp.numGroups());
            // A chunk ships back unless it provably stays zero after
            // this gate.
            const std::uint64_t out_bits =
                sw.liveBits |
                gateInvolvementBits(gate, options().involvement);
            const auto live_out = [&](Index c) {
                return isLiveChunk(c, sw.chunkBits, out_bits);
            };
            const std::vector<Index> live_groups =
                liveGroups(gp, sw, prune, stats, trace, frontier);

            // Batch the live groups under the buffer capacity.
            bool first_batch_of_gate = true;
            for (std::size_t at = 0; at < live_groups.size();) {
                const int d = batch_rr % num_devs;
                ++batch_rr;
                const std::uint64_t buf_bytes = std::max<std::uint64_t>(
                    m.device(d).spec().memBytes /
                        static_cast<std::uint64_t>(slots),
                    static_cast<std::uint64_t>(span) * chunk_bytes);
                const std::size_t groups_per_batch =
                    std::max<std::size_t>(
                        1, buf_bytes /
                               (static_cast<std::uint64_t>(span) *
                                chunk_bytes));
                const std::size_t end =
                    std::min(live_groups.size(), at + groups_per_batch);

                // Gather batch facts.
                VTime ready = 0.0;
                double in_bytes = 0.0, in_decomp_raw = 0.0;
                std::vector<Index> out_chunks;
                for (std::size_t i = at; i < end; ++i) {
                    gp.membersInto(live_groups[i], member_scratch);
                    for (Index c : member_scratch) {
                        ready = std::max(ready, chunk_ready[c]);
                        if (sw.chunkLive(c)) {
                            // H2D/decompress-time integrity check of
                            // the uploaded chunk (throws on an
                            // unrecoverable mismatch). needsReceive is
                            // the cheap inline reject: verification
                            // runs at most once per epoch.
                            if (guard.needsReceive(c)) {
                                guard.onReceive(state.chunk(c), c,
                                                gate_tag, injector,
                                                stats,
                                                state.chunkIsF32(c));
                            }
                            if (options().compress) {
                                in_bytes += comp_size[c];
                                // Chunks stored raw (escape hatch)
                                // skip the decompression kernel.
                                if (comp_size[c] <
                                    0.98 * static_cast<double>(
                                               chunk_bytes)) {
                                    in_decomp_raw += static_cast<double>(
                                        chunk_bytes);
                                }
                            } else {
                                in_bytes += static_cast<double>(
                                    state.chunkStoredBytes(c));
                            }
                        }
                        if (live_out(c))
                            out_chunks.push_back(c);
                    }
                }
                const double batch_groups =
                    static_cast<double>(end - at);
                const double flops = batch_groups * group_flops;
                const double kbytes =
                    batch_groups * static_cast<double>(span) *
                    static_cast<double>(state.chunkSize()) *
                    per_amp_bytes;

                const int slot = dev_batches[d] % slots;
                ++dev_batches[d];

                // H2D of the live inputs, decompression, kernel.
                VTime t = charge.h2d(
                    d, std::max(ready, slot_free[d][slot]), in_bytes,
                    gate_tag);
                if (options().compress && in_decomp_raw > 0)
                    t = charge.codec(d, t, in_decomp_raw, false);
                t = charge.kernel(d, t, flops, kbytes);

                // Compress updated chunks and ship them back.
                double out_bytes = 0.0;
                if (options().compress && !out_chunks.empty()) {
                    const double out_raw =
                        static_cast<double>(out_chunks.size()) *
                        static_cast<double>(chunk_bytes);
                    const std::size_t sample_chunks =
                        options().codecSampleChunks <= 0
                            ? out_chunks.size()
                            : static_cast<std::size_t>(
                                  options().codecSampleChunks);
                    // The ratio is re-measured on the first batch of
                    // each gate; later batches of the same gate reuse
                    // it (the state's character does not change
                    // mid-gate).
                    double sampled_raw = 0.0;
                    if (first_batch_of_gate) {
                        fallback_ratio =
                            measure_ratio(out_chunks, sample_chunks);
                        sampled_raw =
                            static_cast<double>(std::min(
                                out_chunks.size(), sample_chunks)) *
                            static_cast<double>(chunk_bytes);
                        first_batch_of_gate = false;
                    }
                    const double ratio = fallback_ratio;
                    const double size_each =
                        static_cast<double>(chunk_bytes) / ratio;
                    for (Index c : out_chunks)
                        comp_size[c] = size_each;
                    out_bytes = out_raw / ratio;

                    // Adaptive bypass: with a double-buffered
                    // (depth-2) pipeline the codec sits on the batch
                    // critical path, so compression only pays once
                    // the transfer savings beat the codec time -
                    // around ratio 1.2 for GFC at 75 GB/s against
                    // PCIe. Below that, only the sample paid the
                    // compression kernel and the batch ships raw;
                    // above it the whole batch is compressed.
                    const bool worthwhile = ratio >= 1.25;
                    if (!worthwhile) {
                        for (Index c : out_chunks)
                            comp_size[c] =
                                static_cast<double>(chunk_bytes);
                        out_bytes = out_raw;
                    }
                    const double attempted =
                        worthwhile ? out_raw : sampled_raw;
                    if (attempted > 0)
                        t = charge.codec(d, t, attempted, true);
                    stats.add(statkeys::compressIn, out_raw);
                    stats.add(statkeys::compressOut, out_bytes);
                } else {
                    for (Index c : out_chunks)
                        out_bytes += static_cast<double>(
                            state.chunkStoredBytes(c));
                }

                // Compress/D2H-time integrity: checksum every tracked
                // outbound chunk (once per epoch) and refresh its
                // compressed sidecar when payload faults are armed.
                if (guard.active()) {
                    for (Index c : out_chunks) {
                        if (!guard.needsShip(c))
                            continue;
                        guard.onShip(state.chunk(c), c, gate_tag,
                                     injector, stats,
                                     state.chunkIsF32(c));
                    }
                }

                const VTime d2h_done =
                    charge.d2h(d, t, out_bytes, gate_tag);
                for (std::size_t i = at; i < end; ++i) {
                    gp.membersInto(live_groups[i], member_scratch);
                    for (Index c : member_scratch)
                        chunk_ready[c] = d2h_done;
                }
                slot_free[d][slot] = d2h_done;
                frontier = std::max(frontier, d2h_done);

                at = end;
            }

            if (!options().overlap) {
                // Naive: a device synchronization closes every gate.
                stats.add(statkeys::sync, syncLatency);
                VTime barrier = 0.0;
                for (int d = 0; d < num_devs; ++d)
                    barrier = std::max(
                        barrier, m.device(d).d2hEngine().freeAt());
                barrier += syncLatency;
                for (auto &sf : slot_free)
                    for (auto &t : sf)
                        t = std::max(t, barrier);
            }
        }
    }

    stats.set("chunks.final", static_cast<double>(state.numChunks()));
    if (state.precision() == Precision::adaptive)
        stats.set("precision.promoted_chunks",
                  static_cast<double>(state.promotedChunks()));
    exportStorageStats(state, stats);
    return state.takeFlat();
}

StateVector
StreamingEngine::executeSharded(const ExecutionPlan &plan,
                                RunResult &result)
{
    auto &stats = result.stats;
    Machine &m = machine();
    const int n = plan.ordered.numQubits();
    const int num_devs = m.numDevices();
    const bool narrow = options().precision == Precision::f32;
    const double per_amp_bytes =
        2.0 * static_cast<double>(ampStoredBytes(narrow));
    const KernelTier tier =
        options().fastMath ? KernelTier::Fast : KernelTier::Exact;

    // The shard map is fixed for the run: chunk geometry stays at the
    // base size (a rechunk would re-shard the whole state, costing the
    // very all-to-all the top-bit split avoids), and exchanges ship
    // raw chunks — at NVLink-class peer bandwidth the codec is a loss.
    FaultInjector injector(FaultSpec::resolve(options().faultSpec),
                           options().faultSeed);
    ChunkedStateVector state(n, plan.chunkBits,
                             makeStorageConfig(options(), &injector));
    if (options().precision != Precision::f64)
        state.setPrecision(options().precision,
                           options().adaptiveThreshold);
    const ShardMap shard(state.numChunks(), num_devs);
    // Shard-balanced eviction: the residency layer prefers victims
    // from devices holding at least their balanced share.
    state.setDeviceMap(shard.deviceTable());
    const bool payload_faults =
        injector.enabled(FaultPoint::Codec) ||
        injector.enabled(FaultPoint::Alloc);
    // One integrity ledger per device: chunks are checksummed against
    // the ledger of the device they leave, so a detected mismatch
    // names the faulty sender.
    std::vector<ChunkIntegrity> guards;
    guards.reserve(num_devs);
    for (int d = 0; d < num_devs; ++d)
        guards.emplace_back(options().verifyChunks,
                            payload_faults ? &codec_ : nullptr,
                            options().verifySampleChunks);
    const bool guarded = guards.front().active();
    if (guarded)
        for (auto &g : guards)
            g.reset(state.numChunks());
    Charger charge(m, stats, result.trace, injector,
                   options().transferRetries);

    // Tail of each device's schedule; kernels and outgoing transfers
    // chain from here.
    std::vector<VTime> dev_t(num_devs, 0.0);

    // Per-device stored bytes of its shard under current lanes (in
    // uniform modes this is just ownedCount * chunkBytes; adaptive
    // mixes lanes, so sum per chunk).
    const auto shard_stored_bytes = [&](int d) {
        std::uint64_t bytes = 0;
        for (Index c = 0; c < state.numChunks(); ++c)
            if (shard.device(c) == d)
                bytes += state.chunkStoredBytes(c);
        return static_cast<double>(bytes);
    };

    // Initial upload: every device loads its shard over its own host
    // link, all links concurrent but DRAM-contended.
    for (int d = 0; d < num_devs; ++d)
        if (shard.ownedCount(d) > 0)
            dev_t[d] = charge.h2d(d, 0.0, shard_stored_bytes(d), -1);

    // One exchange direction: aggregate the transfers per (src, dst)
    // pair into one peer-link message each, serialized on the source's
    // egress port; every destination then waits for its arrivals.
    std::vector<double> pair_bytes(
        static_cast<std::size_t>(num_devs) * num_devs, 0.0);
    std::vector<VTime> arrive(num_devs, 0.0);
    const auto run_exchange =
        [&](const std::vector<PeerTransfer> &transfers,
            std::int64_t gate_tag) {
            if (transfers.empty())
                return;
            std::fill(pair_bytes.begin(), pair_bytes.end(), 0.0);
            for (const PeerTransfer &t : transfers) {
                pair_bytes[static_cast<std::size_t>(t.src) *
                               num_devs +
                           t.dst] +=
                    static_cast<double>(
                        state.chunkStoredBytes(t.chunk));
                // Ship-time checksum/sidecar against the sender's
                // ledger (idempotent within the epoch).
                if (guarded && guards[t.src].needsShip(t.chunk))
                    guards[t.src].onShip(
                        state.chunk(t.chunk), t.chunk, gate_tag,
                        injector, stats,
                        state.chunkIsF32(t.chunk));
            }
            std::fill(arrive.begin(), arrive.end(), 0.0);
            for (int s = 0; s < num_devs; ++s) {
                for (int d = 0; d < num_devs; ++d) {
                    const double bytes =
                        pair_bytes[static_cast<std::size_t>(s) *
                                       num_devs +
                                   d];
                    if (bytes > 0.0)
                        arrive[d] = std::max(
                            arrive[d], charge.peer(s, d, dev_t[s], bytes,
                                                   gate_tag));
                }
            }
            for (int d = 0; d < num_devs; ++d)
                dev_t[d] = std::max(dev_t[d], arrive[d]);
            stats.add(statkeys::exchangeChunks,
                      static_cast<double>(transfers.size()));
            // Receive-time verification at the destination, against
            // the sender's ledger.
            if (guarded) {
                for (const PeerTransfer &t : transfers) {
                    if (guards[t.src].needsReceive(t.chunk))
                        guards[t.src].onReceive(
                            state.chunk(t.chunk), t.chunk, gate_tag,
                            injector, stats,
                            state.chunkIsF32(t.chunk));
                }
            }
        };

    const std::span<const Gate> all_gates{plan.ordered.gates()};
    std::vector<double> dev_groups(num_devs, 0.0);
    for (std::size_t s = 0; s < plan.sweeps.size(); ++s) {
        const PlanSweep &sw = plan.sweeps[s];
        // All cross-chunk gates of the sweep couple the same bits, so
        // the whole sweep pays at most one gather and one scatter.
        const ExchangePlan xplan = shard.exchangePlan(
            sw.globalBits, [&sw](Index c) { return sw.chunkLive(c); });
        if (!xplan.empty())
            stats.add(statkeys::exchangePhases, 1.0);

        // The previous sweep rewrote chunk data: new ledger epoch,
        // then ship/verify the gathers against pre-sweep data.
        if (guarded)
            for (auto &g : guards)
                g.beginEpoch();
        run_exchange(xplan.gather,
                     static_cast<std::int64_t>(sw.begin));

        applyPlanSweep(state, plan, s, tier);

        // During the sweep a chunk resides on the owner of its sweep
        // group (its home unless it was just gathered): the owner of
        // the member with every sweep-coupled bit cleared.
        std::uint64_t sweep_mask = 0;
        for (int b : sw.globalBits)
            sweep_mask |= Index{1} << b;

        // Per-gate kernels: each device sweeps its share of the live
        // groups concurrently.
        for (std::size_t gi = sw.begin; gi < sw.end; ++gi) {
            const Gate &gate = all_gates[gi];
            const GatePlan gp(gate, n, sw.chunkBits);
            const double span = gp.chunksPerGroup();
            const double group_flops =
                kernels::gateFlops(gate, n) /
                static_cast<double>(gp.numGroups());

            std::fill(dev_groups.begin(), dev_groups.end(), 0.0);
            for (Index g :
                 liveGroups(gp, sw, plan.prune, stats, result.trace,
                            *std::max_element(dev_t.begin(),
                                              dev_t.end())))
                dev_groups[shard.device(gp.firstMember(g) &
                                        ~sweep_mask)] += 1.0;
            for (int d = 0; d < num_devs; ++d) {
                if (dev_groups[d] <= 0.0)
                    continue;
                const double kbytes =
                    dev_groups[d] * span *
                    static_cast<double>(state.chunkSize()) *
                    per_amp_bytes;
                dev_t[d] = charge.kernel(
                    d, dev_t[d], dev_groups[d] * group_flops, kbytes);
            }
        }

        // The sweep rewrote chunk data: scatter ships post-sweep
        // payloads under a fresh ledger epoch.
        if (guarded)
            for (auto &g : guards)
                g.beginEpoch();
        run_exchange(xplan.scatter,
                     static_cast<std::int64_t>(sw.end) - 1);
    }

    // Final drain: every device ships its shard home concurrently.
    for (int d = 0; d < num_devs; ++d)
        if (shard.ownedCount(d) > 0)
            charge.d2h(d, dev_t[d], shard_stored_bytes(d),
                       static_cast<std::int64_t>(all_gates.size()));

    stats.set("chunks.final",
              static_cast<double>(state.numChunks()));
    if (state.precision() == Precision::adaptive)
        stats.set("precision.promoted_chunks",
                  static_cast<double>(state.promotedChunks()));
    exportStorageStats(state, stats);
    return state.takeFlat();
}

} // namespace qgpu
