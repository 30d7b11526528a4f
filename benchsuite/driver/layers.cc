#include "layers.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>

#include "common/rng.hh"
#include "compress/gfc.hh"
#include "fault/checksum.hh"
#include "prune/involvement.hh"
#include "reorder/reorder.hh"
#include "sched/shard.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"
#include "statevec/measure.hh"

namespace qgpu
{
namespace benchsuite
{

namespace
{

/** Times @p fn, records it as a span under @p parent, returns seconds. */
template <typename Fn>
double
timed(SpanLog &spans, int parent, const char *name, Fn &&fn)
{
    const double t0 = now();
    fn();
    const double t1 = now();
    spans.add(name, t0, t1, parent);
    return t1 - t0;
}

/** Replays one op; returns its attributed seconds. */
double
replayOne(const ReplayOp &op, Layers &out, SpanLog &spans, int parent)
{
    const ExecOptions &o = op.options;
    const int span = spans.open(op.label, parent);
    double attributed = 0.0;

    Circuit ordered = *op.circuit;
    if (o.reorder != ReorderKind::None) {
        const double s = timed(spans, span, "reorder", [&] {
            ordered = reorderCircuit(*op.circuit, o.reorder);
        });
        out["reorder.s"] += s;
        attributed += s;
    }
    const std::span<const Gate> gates(ordered.gates());
    const int n = ordered.numQubits();
    const int cb = n - std::min(n, 8);

    std::vector<Sweep> sweeps;
    {
        InvolvementMask mask(n, o.involvement);
        const double s = timed(spans, span, "schedule", [&] {
            sweeps = scheduleSweeps(gates, cb, o.prune ? &mask : nullptr);
        });
        out["sched.schedule_s"] += s;
        out["sched.sweeps"] += static_cast<double>(sweeps.size());
        out["_sched.gates"] += static_cast<double>(gates.size());
        attributed += s;
    }

    // The involvement mask before each sweep, as the pruning engines
    // advance it (sched/sweep.hh rule 3).
    std::vector<std::uint64_t> live_before;
    {
        InvolvementMask mask(n, o.involvement);
        for (const Sweep &sw : sweeps) {
            live_before.push_back(mask.bits());
            for (std::size_t g = sw.begin; g < sw.end; ++g)
                mask.involve(gates[g]);
        }
    }
    const auto dead_of = [&](std::size_t k) -> ZeroPredicate {
        if (!o.prune)
            return {};
        const std::uint64_t live = live_before[k];
        return [live, cb](Index c) { return ((c << cb) & ~live) != 0; };
    };

    // One chunk-major pass per sweep, split by whether the sweep
    // couples chunks; bytes are computed (2 x live chunk bytes).
    const auto apply_all = [&](ChunkedStateVector &state) {
        double local = 0.0, cross = 0.0, bytes = 0.0;
        for (std::size_t k = 0; k < sweeps.size(); ++k) {
            const Sweep &sw = sweeps[k];
            const ZeroPredicate dead = dead_of(k);
            const double t0 = now();
            applySweepChunked(state, gates.subspan(sw.begin, sw.size()),
                              sw.globalBits, dead);
            (sw.globalBits.empty() ? local : cross) += now() - t0;
            Index live_chunks = 0;
            for (Index c = 0; c < state.numChunks(); ++c)
                live_chunks += (!dead || !dead(c)) ? 1 : 0;
            bytes += 2.0 * static_cast<double>(live_chunks) *
                     static_cast<double>(state.chunkBytes());
        }
        out["statevec.sweep_local_s"] += local;
        out["statevec.sweep_cross_s"] += cross;
        out["_statevec.sweep_bytes"] += bytes;
        return local + cross;
    };

    if (op.shots > 0) {
        // Batched shots: the plan above is built once; every shot
        // allocates, replays the sweeps, and draws its outcome.
        const int shots_span = spans.open("shots", span);
        double alloc = 0.0, measure = 0.0, noise = 0.0, sweeps_s = 0.0;
        for (std::uint64_t s = 0; s < op.shots; ++s) {
            Rng rng(splitSeed(o.shotSeed, s));
            if (op.noise) {
                const double t0 = now();
                const auto events = op.noise->sample(gates, rng);
                noise += now() - t0;
            }
            double t0 = now();
            ChunkedStateVector state(n, cb);
            alloc += now() - t0;
            sweeps_s += apply_all(state);
            t0 = now();
            const Index outcome = sampleOutcome(state, rng);
            measure += now() - t0;
            (void)outcome;
        }
        spans.close(shots_span);
        out["statevec.alloc_s"] += alloc;
        out["statevec.measure_s"] += measure;
        out["noise.sample_s"] += noise;
        attributed += alloc + measure + noise + sweeps_s;
        spans.close(span);
        return attributed;
    }

    std::unique_ptr<ChunkedStateVector> state;
    {
        const double s = timed(spans, span, "alloc", [&] {
            state = std::make_unique<ChunkedStateVector>(n, cb);
        });
        out["statevec.alloc_s"] += s;
        attributed += s;
    }
    {
        const int sweeps_span = spans.open("sweeps", span);
        attributed += apply_all(*state);
        spans.close(sweeps_span);
    }

    // Gather/scatter of every cross-chunk group: the copies the
    // cross-chunk sweeps make around their kernels.
    out["statevec.gather_scatter_s"] +=
        timed(spans, span, "gather_scatter", [&] {
            std::vector<Index> members;
            std::vector<Amp> buf;
            for (const Sweep &sw : sweeps) {
                if (sw.globalBits.empty())
                    continue;
                const GatePlan plan(sw.globalBits, n, cb);
                buf.resize(static_cast<std::size_t>(
                    plan.chunksPerGroup() * state->chunkSize()));
                for (Index g = 0; g < plan.numGroups(); ++g) {
                    plan.membersInto(g, members);
                    state->gatherChunks(members, buf.data());
                    state->scatterChunks(members, buf.data());
                }
            }
        });

    if (op.devices > 1) {
        const double s = timed(spans, span, "exchange_plan", [&] {
            const ShardMap shard(state->numChunks(), op.devices);
            for (std::size_t k = 0; k < sweeps.size(); ++k) {
                const ZeroPredicate dead = dead_of(k);
                std::function<bool(Index)> live;
                if (dead)
                    live = [&dead](Index c) { return !dead(c); };
                const auto plan =
                    shard.exchangePlan(sweeps[k].globalBits, live);
                (void)plan;
            }
        });
        out["sched.exchange_plan_s"] += s;
        attributed += s;
    }

    StateVector flat{1};
    {
        const double s = timed(spans, span, "flatten",
                               [&] { flat = state->toFlat(); });
        out["statevec.flatten_s"] += s;
        attributed += s;
    }
    if (op.samples > 0) {
        const double s = timed(spans, span, "measure", [&] {
            Rng rng(1);
            const auto counts = sampleCounts(flat, op.samples, rng);
            (void)counts;
        });
        out["statevec.measure_s"] += s;
        attributed += s;
    }

    const bool bounded = o.storage != StorageKind::Raw;
    if (o.compress || bounded) {
        // The codec on the final state: one stream per chunk where
        // bounded storage writes per-chunk streams (with the checksums
        // it records and verifies around every cold round trip), one
        // stream of the whole state where the engine only prices the
        // codec.
        const GfcCodec codec;
        const std::vector<Amp> &whole = flat.amplitudes();
        const Index block_amps = bounded ? state->chunkSize()
                                         : static_cast<Index>(whole.size());
        std::vector<Amp> decoded(static_cast<std::size_t>(block_amps));
        double encode = 0.0, decode = 0.0, sums = 0.0;
        const int codec_span = spans.open("codec", span);
        for (Index at = 0; at < whole.size(); at += block_amps) {
            const std::span<const Amp> chunk(whole.data() + at,
                                             block_amps);
            double t0 = now();
            const CompressedBlock block =
                codec.compressAmps(chunk.data(), chunk.size());
            encode += now() - t0;
            t0 = now();
            codec.decompressAmps(block, decoded.data());
            decode += now() - t0;
            out["_compress.in"] += static_cast<double>(
                block.originalBytes());
            out["_compress.out"] += static_cast<double>(
                block.compressedBytes());
            if (!bounded)
                continue;
            t0 = now();
            const std::uint64_t payload = checksumAmps(chunk);
            const std::uint64_t stream = checksumBytes(
                block.bytes.data(), block.bytes.size());
            const bool ok = checksumAmps(decoded) == payload &&
                            checksumBytes(block.bytes.data(),
                                          block.bytes.size()) == stream;
            sums += now() - t0;
            out["fault.verified"] += ok ? 1.0 : 0.0;
        }
        spans.close(codec_span);
        out["compress.encode_s"] += encode;
        out["compress.decode_s"] += decode;
        out["fault.checksum_s"] += sums;
    }

    if (bounded) {
        // Residency cost: the same circuit on bounded storage minus
        // on raw storage.
        const double raw_s = timed(spans, span, "residency.raw", [&] {
            ChunkedStateVector raw(n, cb);
            applyCircuitChunked(raw, ordered);
        });
        const double bounded_s =
            timed(spans, span, "residency.bounded", [&] {
                StorageConfig cfg;
                cfg.kind = o.storage;
                cfg.workingSetChunks = o.workingSetChunks;
                ChunkedStateVector bounded_state(n, cb, cfg);
                applyCircuitChunked(bounded_state, ordered);
            });
        out["statevec.residency_s"] += bounded_s - raw_s;
        attributed += bounded_s - raw_s;
    }

    spans.close(span);
    return attributed;
}

} // namespace

double
replayLayers(const std::vector<ReplayOp> &ops, Layers &out,
             SpanLog &spans, int parent)
{
    double attributed = 0.0;
    for (const ReplayOp &op : ops)
        attributed += replayOne(op, out, spans, parent);
    return attributed;
}

} // namespace benchsuite
} // namespace qgpu
