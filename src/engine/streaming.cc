#include "engine/streaming.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "fault/integrity.hh"
#include "qc/fusion.hh"
#include "sched/shard.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"
#include "statevec/kernels.hh"

namespace qgpu
{

namespace
{

std::string
deriveLabel(const ExecOptions &o)
{
    if (o.compress)
        return "Q-GPU";
    if (o.reorder != ReorderKind::None)
        return "Reorder";
    if (o.prune)
        return "Pruning";
    if (o.overlap)
        return "Overlap";
    return "Naive";
}

} // namespace

StreamingEngine::StreamingEngine(Machine &machine, ExecOptions options,
                                 std::string label)
    : ExecutionEngine(machine, std::move(options)),
      label_(label.empty() ? deriveLabel(this->options())
                           : std::move(label))
{
}

StateVector
StreamingEngine::execute(const Circuit &circuit, RunResult &result)
{
    Circuit ordered = reorderCircuit(circuit, options().reorder);
    if (options().fuseWidth > 0) {
        result.stats.set("gates.original",
                         static_cast<double>(ordered.numGates()));
        ordered = fuseGates(ordered, options().fuseWidth);
        result.stats.set("gates.fused",
                         static_cast<double>(ordered.numGates()));
    }

    Machine &m = machine();
    const int n = ordered.numQubits();
    const int num_devs = m.numDevices();
    const int base_bits = baseChunkBits(n);

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
    if (fits)
        return executeSharded(ordered, result);

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

    const int min_bits = std::clamp(n - 14, 0, base_bits);
    const bool dynamic = options().prune && options().dynamicChunks;

    InvolvementMask mask(n, options().involvement);
    int chunk_bits =
        dynamic ? mask.dynamicChunkBits(min_bits, base_bits)
                : base_bits;
    // Fault injection + chunk integrity (fault/integrity.hh). The
    // compressed sidecar — a real GFC roundtrip per shipped chunk —
    // is only armed when payload faults are, so a fault-free
    // --verify-chunks run pays for checksums alone. Built before the
    // state so bounded storage can route its codec/alloc faults
    // through the same injector.
    FaultInjector injector(FaultSpec::resolve(options().faultSpec),
                           options().faultSeed);
    ChunkedStateVector state(n, chunk_bits,
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
    const int retries = options().transferRetries;

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
    // per-gate loop below only does the transfer/codec/kernel
    // scheduling and its bookkeeping. The involvement mask is constant
    // within a sweep (sched/sweep.hh rule 3), so the per-gate prune
    // decisions and the dynamic chunk size — both pure functions of
    // the mask — are exactly what gate-by-gate execution would
    // compute; rechunking in particular can only trigger at a sweep
    // boundary.
    const std::span<const Gate> all_gates{ordered.gates()};
    std::size_t sweep_end = 0;
    const ZeroPredicate chunk_dead =
        options().prune
            ? ZeroPredicate([&](Index c) {
                  return !mask.chunkIsLive(c, chunk_bits);
              })
            : ZeroPredicate{};

    std::size_t gate_idx = 0;
    for (const Gate &gate : ordered.gates()) {
        if (gate_idx == sweep_end) {
            // Dynamic chunk-size selection (Algorithm 1 line 2).
            if (dynamic) {
                const int want =
                    mask.dynamicChunkBits(min_bits, base_bits);
                if (want != chunk_bits) {
                    state.rechunk(want);
                    chunk_bits = want;
                    VTime barrier = 0.0;
                    for (VTime t : chunk_ready)
                        barrier = std::max(barrier, t);
                    chunk_ready.assign(state.numChunks(), barrier);
                    reset_comp_sizes();
                    // New chunk geometry: recorded checksums no
                    // longer describe any chunk.
                    if (guard.active())
                        guard.reset(state.numChunks());
                }
            }
            const Sweep sw = nextSweep(
                all_gates, gate_idx, chunk_bits,
                options().prune ? &mask : nullptr);
            applySweepChunked(
                state, all_gates.subspan(sw.begin, sw.size()),
                sw.globalBits, chunk_dead, tier);
            sweep_end = sw.end;
            // Re-apply the storage-precision policy to the post-sweep
            // data before anything ships or is checksummed: fp32-lane
            // chunks are rounded here, so every later reader (codec
            // sample, integrity ledger, functional state) sees the
            // same stored values.
            state.refreshPrecision();
            // The sweep rewrote chunk data: ship-time checksums from
            // before it are stale.
            guard.beginEpoch();
        }

        const GatePlan plan(gate, n, chunk_bits);
        const int span = plan.chunksPerGroup();
        const std::uint64_t chunk_bytes = state.chunkBytes();
        const double group_flops =
            kernels::gateFlops(gate, n) /
            static_cast<double>(plan.numGroups());
        const std::uint64_t post_mask_bits =
            mask.bits() |
            gateInvolvementBits(gate, options().involvement);

        auto live_in = [&](Index c) {
            return !options().prune || mask.chunkIsLive(c, chunk_bits);
        };
        auto live_out = [&](Index c) {
            if (!options().prune)
                return true;
            const std::uint64_t shifted =
                (c << chunk_bits);
            return (shifted & post_mask_bits) == shifted;
        };

        // Enumerate live groups (a group is dead only if every member
        // chunk is provably zero; dead groups are no-ops).
        std::vector<Index> live_groups;
        std::vector<Index> member_scratch;
        live_groups.reserve(plan.numGroups());
        for (Index g = 0; g < plan.numGroups(); ++g) {
            if (!options().prune) {
                live_groups.push_back(g);
                continue;
            }
            plan.membersInto(g, member_scratch);
            const bool any_live =
                std::any_of(member_scratch.begin(),
                            member_scratch.end(), live_in);
            if (any_live)
                live_groups.push_back(g);
        }
        const double live_chunks =
            static_cast<double>(live_groups.size()) * span;
        const double pruned_chunks =
            static_cast<double>(plan.numGroups() -
                                live_groups.size()) *
            span;
        stats.add(statkeys::chunksProcessed, live_chunks);
        stats.add(statkeys::chunksPruned, pruned_chunks);
        stats.add(statkeys::gatesApplied, 1.0);
        if (options().prune && trace.enabled()) {
            // Zero-length marker: the decision is host bookkeeping
            // with no modeled cost, but its outcome is the counter
            // the pruning figures are built from.
            trace.record(phases::prune, "decide", "host.prune",
                         frontier, frontier,
                         {{statkeys::chunksProcessed, live_chunks},
                          {statkeys::chunksPruned, pruned_chunks}});
        }

        // Batch the live groups under the buffer capacity.
        bool first_batch_of_gate = true;
        for (std::size_t at = 0; at < live_groups.size();) {
            const int d = batch_rr % num_devs;
            ++batch_rr;
            auto &dev = m.device(d);
            const std::uint64_t buf_bytes =
                std::max<std::uint64_t>(
                    dev.spec().memBytes /
                        static_cast<std::uint64_t>(slots),
                    static_cast<std::uint64_t>(span) * chunk_bytes);
            const std::size_t groups_per_batch =
                std::max<std::size_t>(
                    1, buf_bytes / (static_cast<std::uint64_t>(span) *
                                    chunk_bytes));
            const std::size_t end =
                std::min(live_groups.size(), at + groups_per_batch);

            // Gather batch facts.
            VTime ready = 0.0;
            double in_bytes = 0.0, in_decomp_raw = 0.0;
            std::vector<Index> out_chunks;
            for (std::size_t i = at; i < end; ++i) {
                plan.membersInto(live_groups[i], member_scratch);
                for (Index c : member_scratch) {
                    ready = std::max(ready, chunk_ready[c]);
                    if (live_in(c)) {
                        // H2D/decompress-time integrity check of the
                        // uploaded chunk (throws on an unrecoverable
                        // mismatch). needsReceive is the cheap inline
                        // reject: this loop runs per batch member per
                        // gate, verification at most once per epoch.
                        if (guard.needsReceive(c)) {
                            guard.onReceive(
                                state.chunk(c), c,
                                static_cast<std::int64_t>(gate_idx),
                                injector, stats,
                                state.chunkIsF32(c));
                        }
                        if (options().compress) {
                            in_bytes += comp_size[c];
                            // Chunks stored raw (escape hatch) skip
                            // the decompression kernel.
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

            // H2D of the live inputs; a faulted attempt burns its
            // virtual time and the transfer repeats, bounded by the
            // retry budget.
            const VTime start =
                std::max(ready, slot_free[d][slot]);
            VTime t = guardedTransfer(
                &injector, FaultPoint::H2D, retries,
                static_cast<std::int64_t>(gate_idx), stats, start,
                [&](VTime s) {
                    const VTime done = dev.h2dEngine().schedule(
                        s, m.contendedHostLink(dev.spec().h2d)
                               .transferTime(static_cast<std::uint64_t>(
                                   in_bytes)));
                    trace.record(phases::h2d, "xfer",
                                 dev.spec().name + ".h2d", s, done);
                    stats.add(statkeys::bytesH2d, in_bytes);
                    return done;
                });

            if (options().compress && in_decomp_raw > 0) {
                const VTime dur = dev.codecTime(
                    static_cast<std::uint64_t>(in_decomp_raw));
                t = dev.compute().schedule(t, dur);
                stats.add(statkeys::decompressTime, dur);
                trace.record(phases::compress, "dec",
                             dev.spec().name + ".compute", t - dur,
                             t);
            }

            // Kernel.
            const VTime k_dur = dev.kernelTime(flops, kbytes);
            t = dev.compute().schedule(t, k_dur);
            trace.record(phases::compute, "kernel",
                         dev.spec().name + ".compute", t - k_dur, t);
            stats.add(statkeys::flopsDevice, flops);
            stats.add(statkeys::deviceMemBytes, kbytes);

            // Compress updated chunks and ship them back. (The
            // functional update already ran in the sweep pass above;
            // host memory stands in for every location, and the
            // engines differ only in scheduling. The ratio sample
            // below therefore reads the post-sweep state - the same
            // amplitudes the chunks hold when they actually ship.)
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
                // The ratio is re-measured on the first batch of each
                // gate; later batches of the same gate reuse it (the
                // state's character does not change mid-gate).
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

                // Adaptive bypass: with a double-buffered (depth-2)
                // pipeline the codec sits on the batch critical path,
                // so compression only pays once the transfer savings
                // beat the codec time - around ratio 1.2 for GFC at
                // 75 GB/s against PCIe. Below that, only the sample
                // paid the compression kernel and the batch ships
                // raw; above it the whole batch is compressed.
                const bool worthwhile = ratio >= 1.25;
                if (!worthwhile) {
                    for (Index c : out_chunks)
                        comp_size[c] =
                            static_cast<double>(chunk_bytes);
                    out_bytes = out_raw;
                }
                const double attempted =
                    worthwhile ? out_raw : sampled_raw;
                if (attempted > 0) {
                    const VTime dur = dev.codecTime(
                        static_cast<std::uint64_t>(attempted));
                    t = dev.compute().schedule(t, dur);
                    stats.add(statkeys::compressTime, dur);
                    trace.record(phases::compress, "cmp",
                                 dev.spec().name + ".compute",
                                 t - dur, t);
                }
                stats.add(statkeys::compressIn, out_raw);
                stats.add(statkeys::compressOut, out_bytes);
            } else {
                for (Index c : out_chunks)
                    out_bytes += static_cast<double>(
                        state.chunkStoredBytes(c));
            }

            // Compress/D2H-time integrity: checksum every tracked
            // outbound chunk (once per epoch) and refresh its
            // compressed sidecar when payload faults are armed. The
            // inline needsShip reject keeps the per-gate batch loop
            // free of out-of-line calls for already-tracked chunks.
            if (guard.active()) {
                for (Index c : out_chunks) {
                    if (!guard.needsShip(c))
                        continue;
                    guard.onShip(state.chunk(c), c,
                                 static_cast<std::int64_t>(gate_idx),
                                 injector, stats,
                                 state.chunkIsF32(c));
                }
            }

            // D2H of the updated chunks, under the same bounded-retry
            // policy as H2D.
            const VTime d2h_done = guardedTransfer(
                &injector, FaultPoint::D2H, retries,
                static_cast<std::int64_t>(gate_idx), stats, t,
                [&](VTime s) {
                    const VTime done = dev.d2hEngine().schedule(
                        s, m.contendedHostLink(dev.spec().d2h)
                               .transferTime(static_cast<std::uint64_t>(
                                   out_bytes)));
                    trace.record(phases::d2h, "xfer",
                                 dev.spec().name + ".d2h", s, done);
                    stats.add(statkeys::bytesD2h, out_bytes);
                    return done;
                });

            for (std::size_t i = at; i < end; ++i) {
                plan.membersInto(live_groups[i], member_scratch);
                for (Index c : member_scratch)
                    chunk_ready[c] = d2h_done;
            }
            slot_free[d][slot] = d2h_done;
            frontier = std::max(frontier, d2h_done);

            at = end;
        }

        if (!options().overlap) {
            // Naive: a device synchronization closes every gate.
            stats.add(statkeys::sync, options().syncLatency);
            VTime barrier = 0.0;
            for (int d = 0; d < num_devs; ++d)
                barrier = std::max(barrier,
                                   m.device(d).d2hEngine().freeAt());
            barrier += options().syncLatency;
            for (auto &sf : slot_free)
                for (auto &t : sf)
                    t = std::max(t, barrier);
        }

        if (options().prune)
            mask.involve(gate);
        ++gate_idx;
    }
    (void)gate_idx;

    stats.set("chunks.final", static_cast<double>(state.numChunks()));
    if (state.precision() == Precision::adaptive)
        stats.set("precision.promoted_chunks",
                  static_cast<double>(state.promotedChunks()));
    exportStorageStats(state, stats);
    return state.takeFlat();
}

StateVector
StreamingEngine::executeSharded(const Circuit &circuit,
                                RunResult &result)
{
    auto &stats = result.stats;
    auto &trace = result.trace;
    Machine &m = machine();
    const int n = circuit.numQubits();
    const int num_devs = m.numDevices();
    const int chunk_bits = baseChunkBits(n);
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
    ChunkedStateVector state(n, chunk_bits,
                             makeStorageConfig(options(), &injector));
    if (options().precision != Precision::f64)
        state.setPrecision(options().precision,
                           options().adaptiveThreshold);
    const ShardMap shard(state.numChunks(), num_devs);
    // Shard-balanced eviction: the residency layer prefers victims
    // from devices holding at least their balanced share.
    state.setDeviceMap(shard.deviceTable());
    InvolvementMask mask(n, options().involvement);
    const int retries = options().transferRetries;
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
        return bytes;
    };

    // Initial upload: every device loads its shard over its own host
    // link, all links concurrent but DRAM-contended.
    for (int d = 0; d < num_devs; ++d) {
        const Index owned = shard.ownedCount(d);
        if (owned == 0)
            continue;
        auto &dev = m.device(d);
        const std::uint64_t bytes = shard_stored_bytes(d);
        dev_t[d] = guardedTransfer(
            &injector, FaultPoint::H2D, retries, -1, stats, 0.0,
            [&](VTime s) {
                const VTime done = dev.h2dEngine().schedule(
                    s, m.contendedHostLink(dev.spec().h2d)
                           .transferTime(bytes));
                stats.add(statkeys::bytesH2d,
                          static_cast<double>(bytes));
                trace.record(phases::h2d, "xfer",
                             dev.spec().name + ".h2d", s, done);
                return done;
            });
    }

    const ZeroPredicate chunk_dead =
        options().prune
            ? ZeroPredicate([&](Index c) {
                  return !mask.chunkIsLive(c, chunk_bits);
              })
            : ZeroPredicate{};
    const std::function<bool(Index)> live_chunk =
        options().prune
            ? std::function<bool(Index)>([&](Index c) {
                  return mask.chunkIsLive(c, chunk_bits);
              })
            : std::function<bool(Index)>{};

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
                auto &src_dev = m.device(s);
                for (int d = 0; d < num_devs; ++d) {
                    const double bytes =
                        pair_bytes[static_cast<std::size_t>(s) *
                                       num_devs +
                                   d];
                    if (bytes <= 0.0)
                        continue;
                    const VTime done = guardedTransfer(
                        &injector, FaultPoint::Peer, retries,
                        gate_tag, stats, dev_t[s], [&](VTime at) {
                            const VTime end =
                                src_dev.peerEngine().schedule(
                                    at,
                                    m.peerLink(s, d).transferTime(
                                        static_cast<std::uint64_t>(
                                            bytes)));
                            trace.record(phases::peer, "xchg",
                                         src_dev.spec().name +
                                             ".peer",
                                         at, end);
                            return end;
                        });
                    stats.add(statkeys::exchangeBytes, bytes);
                    arrive[d] = std::max(arrive[d], done);
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

    const std::span<const Gate> all_gates{circuit.gates()};
    std::vector<Index> member_scratch;
    std::vector<double> dev_groups(num_devs, 0.0);
    std::size_t gate_idx = 0;
    while (gate_idx < all_gates.size()) {
        const Sweep sw =
            nextSweep(all_gates, gate_idx, chunk_bits,
                      options().prune ? &mask : nullptr);
        // All cross-chunk gates of the sweep couple the same bits, so
        // the whole sweep pays at most one gather and one scatter.
        const ExchangePlan xplan =
            shard.exchangePlan(sw.globalBits, live_chunk);
        if (!xplan.empty())
            stats.add(statkeys::exchangePhases, 1.0);

        // The previous sweep rewrote chunk data: new ledger epoch,
        // then ship/verify the gathers against pre-sweep data.
        if (guarded)
            for (auto &g : guards)
                g.beginEpoch();
        run_exchange(xplan.gather,
                     static_cast<std::int64_t>(sw.begin));

        applySweepChunked(state,
                          all_gates.subspan(sw.begin, sw.size()),
                          sw.globalBits, chunk_dead, tier);
        // Round fp32-lane chunks (and re-tag adaptive lanes) before
        // the scatter ships or checksums the post-sweep data.
        state.refreshPrecision();

        // During the sweep a chunk resides on the owner of its sweep
        // group (its home unless it was just gathered): the owner of
        // the member with every sweep-coupled bit cleared.
        std::uint64_t sweep_mask = 0;
        for (int b : sw.globalBits)
            sweep_mask |= Index{1} << b;
        const auto resident_dev = [&](Index c) {
            return shard.device(c & ~sweep_mask);
        };

        // Per-gate kernel scheduling: each device sweeps its share of
        // the live groups concurrently.
        for (std::size_t gi = sw.begin; gi < sw.end; ++gi) {
            const Gate &gate = all_gates[gi];
            const GatePlan plan(gate, n, chunk_bits);
            const int span = plan.chunksPerGroup();
            const double group_flops =
                kernels::gateFlops(gate, n) /
                static_cast<double>(plan.numGroups());

            std::fill(dev_groups.begin(), dev_groups.end(), 0.0);
            double live_groups = 0.0;
            for (Index g = 0; g < plan.numGroups(); ++g) {
                plan.membersInto(g, member_scratch);
                const bool any_live =
                    !options().prune ||
                    std::any_of(member_scratch.begin(),
                                member_scratch.end(), [&](Index c) {
                                    return mask.chunkIsLive(
                                        c, chunk_bits);
                                });
                if (!any_live)
                    continue;
                live_groups += 1.0;
                dev_groups[resident_dev(member_scratch.front())] +=
                    1.0;
            }
            const double live_chunks =
                live_groups * static_cast<double>(span);
            const double pruned_chunks =
                (static_cast<double>(plan.numGroups()) -
                 live_groups) *
                static_cast<double>(span);
            stats.add(statkeys::chunksProcessed, live_chunks);
            stats.add(statkeys::chunksPruned, pruned_chunks);
            stats.add(statkeys::gatesApplied, 1.0);
            if (options().prune && trace.enabled()) {
                VTime frontier = 0.0;
                for (VTime t : dev_t)
                    frontier = std::max(frontier, t);
                trace.record(
                    phases::prune, "decide", "host.prune", frontier,
                    frontier,
                    {{statkeys::chunksProcessed, live_chunks},
                     {statkeys::chunksPruned, pruned_chunks}});
            }

            for (int d = 0; d < num_devs; ++d) {
                if (dev_groups[d] <= 0.0)
                    continue;
                auto &dev = m.device(d);
                const double flops = dev_groups[d] * group_flops;
                const double kbytes =
                    dev_groups[d] * static_cast<double>(span) *
                    static_cast<double>(state.chunkSize()) *
                    per_amp_bytes;
                const VTime dur = dev.kernelTime(flops, kbytes);
                dev_t[d] = dev.compute().schedule(dev_t[d], dur);
                trace.record(phases::compute, "kernel",
                             dev.spec().name + ".compute",
                             dev_t[d] - dur, dev_t[d]);
                stats.add(statkeys::flopsDevice, flops);
                stats.add(statkeys::deviceMemBytes, kbytes);
            }

            if (options().prune)
                mask.involve(gate);
        }

        // The sweep rewrote chunk data: scatter ships post-sweep
        // payloads under a fresh ledger epoch.
        if (guarded)
            for (auto &g : guards)
                g.beginEpoch();
        run_exchange(xplan.scatter,
                     static_cast<std::int64_t>(sw.end) - 1);

        gate_idx = sw.end;
    }

    // Final drain: every device ships its shard home concurrently.
    for (int d = 0; d < num_devs; ++d) {
        const Index owned = shard.ownedCount(d);
        if (owned == 0)
            continue;
        auto &dev = m.device(d);
        const std::uint64_t bytes = shard_stored_bytes(d);
        guardedTransfer(
            &injector, FaultPoint::D2H, retries,
            static_cast<std::int64_t>(circuit.numGates()), stats,
            dev_t[d], [&](VTime s) {
                const VTime done = dev.d2hEngine().schedule(
                    s, m.contendedHostLink(dev.spec().d2h)
                           .transferTime(bytes));
                stats.add(statkeys::bytesD2h,
                          static_cast<double>(bytes));
                trace.record(phases::d2h, "xfer",
                             dev.spec().name + ".d2h", s, done);
                return done;
            });
    }

    stats.set("chunks.final",
              static_cast<double>(state.numChunks()));
    if (state.precision() == Precision::adaptive)
        stats.set("precision.promoted_chunks",
                  static_cast<double>(state.promotedChunks()));
    exportStorageStats(state, stats);
    return state.takeFlat();
}

} // namespace qgpu
