#include "statevec/apply.hh"

#include <algorithm>

#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "sched/sweep.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{

GatePlan::GatePlan(const Gate &gate, int num_qubits, int chunk_bits)
    : GatePlan(gateGlobalBits(gate, chunk_bits), num_qubits,
               chunk_bits)
{
}

GatePlan::GatePlan(std::vector<int> global_bits, int num_qubits,
                   int chunk_bits)
    : chunkBits_(chunk_bits), globalBits_(std::move(global_bits))
{
    const int chunk_index_bits = num_qubits - chunk_bits;
    numGroups_ = Index{1}
                 << (chunk_index_bits
                     - static_cast<int>(globalBits_.size()));
}

void
GatePlan::membersInto(Index group, std::vector<Index> &out) const
{
    const Index base = bits::insertZeroBits(group, globalBits_);
    const int span = chunksPerGroup();
    out.clear();
    for (int s = 0; s < span; ++s) {
        Index idx = base;
        for (std::size_t j = 0; j < globalBits_.size(); ++j)
            if (bits::testBit(static_cast<std::uint64_t>(s),
                              static_cast<int>(j))) {
                idx = bits::setBit(idx, globalBits_[j]);
            }
        out.push_back(idx);
    }
}

std::vector<Index>
GatePlan::members(Index group) const
{
    std::vector<Index> out;
    out.reserve(chunksPerGroup());
    membersInto(group, out);
    return out;
}

namespace
{

/** Registry slots of the per-gate and per-sweep metrics, resolved
 *  once (every shot worker of a fan-out records them). */
struct ApplySlots
{
    CounterSlot &sweepCount;
    CounterSlot &statePasses;
    HistogramSlot &gatesPerSweep;
    HistogramSlot &wallTime;
};

const ApplySlots &
applySlots()
{
    static const ApplySlots slots = [] {
        auto &mr = MetricsRegistry::global();
        return ApplySlots{mr.counterSlot("sweep.count"),
                          mr.counterSlot("sweep.state_passes"),
                          mr.histogramSlot("sweep.gates_per_sweep"),
                          mr.histogramSlot("apply.wall_time")};
    }();
    return slots;
}

/** Kernel kind of a k-qubit diagonal gate (for the metrics counters). */
KernelKind
diagKindOf(int k)
{
    if (k == 1)
        return KernelKind::Diag1q;
    if (k == 2)
        return KernelKind::Diag2q;
    return KernelKind::DiagK;
}

/**
 * Apply a diagonal gate to one contiguous register slice after the
 * constant selector bits have been folded into @p fixed_sel: the
 * @p local (register bit, selector shift) pairs drive the specialized
 * contiguous diag kernels, every other selector bit is constant for
 * the slice.
 */
void
applyDiagFolded(Amp *data, Index size, int fixed_sel,
                std::span<const std::pair<int, int>> local,
                const GateMatrix &m)
{
    // No varying targets: one constant diagonal entry scales the
    // whole slice.
    if (local.empty()) {
        kern::scale(data, m.at(fixed_sel, fixed_sel), 0, size);
        return;
    }
    if (local.size() == 1) {
        const auto [q0, j0] = local[0];
        const int sel1 = fixed_sel | (1 << j0);
        kern::diag1(data, q0, m.at(fixed_sel, fixed_sel),
                    m.at(sel1, sel1), 0, size);
        return;
    }
    if (local.size() == 2) {
        auto [qa, ja] = local[0];
        auto [qb, jb] = local[1];
        if (qa > qb) {
            std::swap(qa, qb);
            std::swap(ja, jb);
        }
        Amp lut[4];
        for (int c = 0; c < 4; ++c) {
            const int sel = fixed_sel | ((c & 1) << ja) |
                            (((c >> 1) & 1) << jb);
            lut[c] = m.at(sel, sel);
        }
        kern::diag2(data, qa, qb, lut, 0, size);
        return;
    }

    for (Index off = 0; off < size; ++off) {
        int sel = fixed_sel;
        for (const auto &[q, j] : local)
            sel |= static_cast<int>(bits::testBit(off, q)) << j;
        data[off] *= m.at(sel, sel);
    }
}

/**
 * Apply a diagonal gate to one chunk. Selector bits contributed by
 * targets above the chunk boundary are constant for the chunk, so
 * they fold into the diagonal lookup and the chunk-local bits drive
 * the specialized contiguous diag kernels.
 */
void
applyDiagToChunk(ChunkedStateVector &state, const GateMatrix &m,
                 const std::vector<int> &qubits, Index chunk_idx)
{
    const int k = static_cast<int>(qubits.size());
    const int chunk_bits = state.chunkBits();
    Amp *data = state.chunk(chunk_idx).data();
    const Index chunk_base = chunk_idx << chunk_bits;

    int fixed_sel = 0;
    std::vector<std::pair<int, int>> local; // (chunk bit, selector shift)
    for (int j = 0; j < k; ++j) {
        const int q = qubits[j];
        if (q >= chunk_bits)
            fixed_sel |= static_cast<int>(bits::testBit(chunk_base, q))
                         << j;
        else
            local.emplace_back(q, j);
    }

    applyDiagFolded(data, state.chunkSize(), fixed_sel, local, m);
}

/** Remap gate targets into the group-local register. */
Gate
remapGateForGroup(const Gate &gate, const std::vector<int> &global_bits,
                  int chunk_bits)
{
    Gate out = gate;
    for (int &q : out.qubits) {
        if (q >= chunk_bits) {
            const auto it = std::lower_bound(global_bits.begin(),
                                             global_bits.end(),
                                             q - chunk_bits);
            q = chunk_bits
                + static_cast<int>(it - global_bits.begin());
        }
    }
    return out;
}

/** Case-1 body, non-diagonal: all targets live below the chunk
 *  boundary, so the specialized kernels run directly on the chunk. */
void
applySpecToChunk(ChunkedStateVector &state, const KernelSpec &spec,
                 Index chunk_idx)
{
    applyKernel(spec, state.chunk(chunk_idx).data(),
                state.chunkBits());
}

/**
 * Size the recycled gather buffer for @p need amplitudes. A capacity
 * left over from a larger group is dropped first when it exceeds what
 * L3 could ever serve quickly (common/cacheinfo.hh): one oversized
 * group may grow the buffer, but it must not pin the high-water mark
 * for the rest of the run.
 */
void
prepareGathered(GroupScratch &scratch, std::size_t need)
{
    const std::size_t cap = scratch.gathered.capacity();
    if (cap > need && cap > scratchRetainAmps())
        std::vector<Amp>().swap(scratch.gathered);
    scratch.gathered.resize(need);
}

/**
 * Case-2 body with scratch.members already filled: gather the member
 * chunks into the worker's contiguous register, run the specialized
 * kernel there, and scatter back. @p spec is built from the gate with
 * targets remapped into the group-local register (identical for every
 * group of a plan, so callers hoist it).
 */
void
applyGroupPrepared(ChunkedStateVector &state, const KernelSpec &spec,
                   const GatePlan &plan, GroupScratch &scratch)
{
    const int sub_qubits =
        state.chunkBits() + static_cast<int>(plan.globalBits().size());
    prepareGathered(scratch, stateSize(sub_qubits));
    state.gatherChunks(scratch.members, scratch.gathered.data());
    applyKernel(spec, scratch.gathered.data(), sub_qubits);
    state.scatterChunks(scratch.members, scratch.gathered.data());
}

/** Modeled amplitudes written by one full application of @p spec. */
Index
specAmps(const KernelSpec &spec, int num_qubits)
{
    return kernelWorkItems(spec, num_qubits) *
           static_cast<Index>(kernelItemWidth(spec));
}

/**
 * One gate of a sweep, pre-classified for the chunk-major executor.
 * Non-diagonal gates carry their KernelSpec (targets remapped into
 * the gathered register for cross-chunk gates); diagonal gates carry
 * the matrix plus the selector-bit split that lets the fold be
 * finished per chunk / per group member in the worker.
 */
struct SweepOp
{
    bool diag = false;
    bool cross = false; // non-diagonal, couples the sweep's G bits
    KernelSpec spec{};  // valid when !diag
    GateMatrix dm{1};   // valid when diag
    // Diagonal selector-bit split, (position, selector shift) pairs:
    std::vector<std::pair<int, int>> low;       // chunk-local bits
    std::vector<std::pair<int, int>> memberSel; // index into G
    std::vector<std::pair<int, int>> groupSel;  // chunk-index bit not
                                                // in G (group-constant)
    KernelKind kind{};
    Index amps = 0; // modeled amplitudes (applyGateChunked's totals)
};

/**
 * Classify the gates of one sweep against the sweep's coupled bits
 * @p G (sorted chunk-index positions). Fatal if any gate couples a
 * different bit set — the span then isn't a sweep for this chunk
 * size.
 */
std::vector<SweepOp>
buildSweepOps(std::span<const Gate> gates, const std::vector<int> &G,
              int num_qubits, int chunk_bits, KernelTier tier)
{
    const int sub_qubits = chunk_bits + static_cast<int>(G.size());
    const Index num_chunks = Index{1} << (num_qubits - chunk_bits);
    const Index num_groups = Index{1} << (num_qubits - sub_qubits);

    std::vector<SweepOp> ops;
    ops.reserve(gates.size());
    for (const Gate &gate : gates) {
        SweepOp op;
        if (gate.isDiagonal()) {
            op.diag = true;
            op.dm = gate.matrix();
            const int k = gate.numQubits();
            for (int j = 0; j < k; ++j) {
                const int q = gate.qubits[j];
                if (q < chunk_bits) {
                    op.low.emplace_back(q, j);
                    continue;
                }
                const int g = q - chunk_bits;
                const auto it =
                    std::lower_bound(G.begin(), G.end(), g);
                if (it != G.end() && *it == g)
                    op.memberSel.emplace_back(
                        static_cast<int>(it - G.begin()), j);
                else
                    op.groupSel.emplace_back(g, j);
            }
            op.kind = diagKindOf(k);
            op.amps = stateSize(num_qubits);
        } else {
            const std::vector<int> gbits =
                gateGlobalBits(gate, chunk_bits);
            if (gbits.empty()) {
                op.spec = makeKernelSpec(gate, tier);
                op.amps = num_chunks * specAmps(op.spec, chunk_bits);
            } else {
                if (gbits != G)
                    QGPU_PANIC("gate '", gate.toString(),
                               "' couples other chunk-index bits than "
                               "its sweep: not a sweep at chunk size ",
                               chunk_bits);
                op.cross = true;
                op.spec = makeKernelSpec(
                    remapGateForGroup(gate, G, chunk_bits), tier);
                op.amps = num_groups * specAmps(op.spec, sub_qubits);
            }
            op.kind = op.spec.kind;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/**
 * Chunks the engine's predicate cannot prove zero. Under bounded
 * storage these are exactly the chunks that must be materialized and
 * processed: kernels may write -0.0 into a value-zero chunk, so
 * skipping a chunk the raw path would touch could diverge by sign
 * bits.
 */
std::vector<Index>
liveChunks(const ChunkedStateVector &state, const ZeroPredicate &zero)
{
    std::vector<Index> live;
    live.reserve(state.numChunks());
    for (Index c = 0; c < state.numChunks(); ++c)
        if (!(zero && zero(c)))
            live.push_back(c);
    return live;
}

/** Groups with at least one live member (all groups without a
 *  predicate), matching the skip decision of the unbounded path. */
std::vector<Index>
liveGroups(const GatePlan &plan, const ZeroPredicate &zero)
{
    std::vector<Index> out;
    out.reserve(plan.numGroups());
    std::vector<Index> members;
    for (Index g = 0; g < plan.numGroups(); ++g) {
        if (zero) {
            plan.membersInto(g, members);
            if (std::all_of(members.begin(), members.end(),
                            [&zero](Index c) { return zero(c); }))
                continue;
        }
        out.push_back(g);
    }
    return out;
}

/**
 * Pinned-block pipeline over @p items for bounded-storage states:
 * each block's chunks (expand() appends an item's chunks) are pinned
 * before processing, and the NEXT block's refills are issued
 * asynchronously on the pool while the current block computes — the
 * sweep-aware prefetch that overlaps decompression with kernel work.
 * Pinned chunks are never evicted, so parallel workers only ever see
 * stable resident slots. A block may transiently overshoot the
 * working-set budget when a single item spans more chunks than the
 * budget allows; correctness is unaffected (the overshoot drains as
 * soon as the block unpins).
 */
template <typename Expand, typename Process>
void
runPinnedBlocks(ChunkResidency &res, std::span<const Index> items,
                Index items_per_block, Expand &&expand,
                Process &&process)
{
    if (items.empty())
        return;
    const auto block = static_cast<std::size_t>(items_per_block);
    std::vector<Index> cur_chunks, next_chunks;
    const auto collect = [&](std::size_t lo, std::size_t n,
                             std::vector<Index> &out) {
        out.clear();
        for (std::size_t i = lo; i < lo + n; ++i)
            expand(items[i], out);
    };
    std::size_t at = 0;
    std::size_t cur_n = std::min(block, items.size());
    collect(0, cur_n, cur_chunks);
    res.pin(cur_chunks);
    while (at < items.size()) {
        const std::size_t next_n =
            std::min(block, items.size() - at - cur_n);
        if (next_n > 0) {
            collect(at + cur_n, next_n, next_chunks);
            res.pinAsync(next_chunks);
        }
        process(items.subspan(at, cur_n));
        res.unpin(cur_chunks);
        if (next_n > 0)
            res.waitPins();
        at += cur_n;
        cur_n = next_n;
        std::swap(cur_chunks, next_chunks);
    }
}

/** expand() for items that are chunk indices themselves. */
void
expandChunk(Index c, std::vector<Index> &out)
{
    out.push_back(c);
}

} // namespace

void
applyGroup(ChunkedStateVector &state, const Gate &gate,
           const GatePlan &plan, Index group)
{
    if (plan.perChunk()) {
        // state.chunk() materializes on demand (serial path).
        if (gate.isDiagonal())
            applyDiagToChunk(state, gate.matrix(), gate.qubits,
                             group);
        else
            applySpecToChunk(state, makeKernelSpec(gate), group);
        return;
    }
    GroupScratch scratch;
    plan.membersInto(group, scratch.members);
    if (state.boundedStorage())
        state.residency()->pin(scratch.members);
    const Gate remapped = remapGateForGroup(gate, plan.globalBits(),
                                            state.chunkBits());
    applyGroupPrepared(state, makeKernelSpec(remapped), plan, scratch);
    if (state.boundedStorage())
        state.residency()->unpin(scratch.members);
}

void
applyGateChunked(ChunkedStateVector &state, const Gate &gate,
                 const ZeroPredicate &zero, KernelTier tier)
{
    const WallClock wall;
    const GatePlan plan(gate, state.numQubits(), state.chunkBits());

    // The groups partition the chunk set: every chunk is a member of
    // exactly one group, which is what makes the concurrent fan-out
    // below race-free by construction.
    if (plan.numGroups() * static_cast<Index>(plan.chunksPerGroup()) !=
        state.numChunks())
        QGPU_PANIC("gate plan does not partition the ",
                   state.numChunks(), "-chunk state: ",
                   plan.numGroups(), " groups x ",
                   plan.chunksPerGroup(), " chunks");

    const int threads = simThreads();
    const bool bounded = state.boundedStorage();
    // Run body(chunk) over every live chunk: the plain parallel
    // fan-out, or (bounded storage) a pinned-block pipeline with
    // asynchronous prefetch of the next block's refills.
    const auto for_each_live_chunk = [&](double cost, auto &&body) {
        if (!bounded) {
            parallelFor(
                0, plan.numGroups(), threads,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    for (Index g = lo; g < hi; ++g) {
                        if (zero && zero(g))
                            continue;
                        body(g);
                    }
                },
                1, cost);
            return;
        }
        ChunkResidency &res = *state.residency();
        const std::vector<Index> live = liveChunks(state, zero);
        runPinnedBlocks(
            res, live, res.maxPinnedBlock(), expandChunk,
            [&](std::span<const Index> blk) {
                parallelFor(
                    std::size_t{0}, blk.size(), threads,
                    [&](std::uint64_t lo, std::uint64_t hi) {
                        for (std::uint64_t i = lo; i < hi; ++i)
                            body(blk[i]);
                    },
                    1, cost);
            });
    };
    if (gate.isDiagonal()) {
        const GateMatrix m = gate.matrix();
        for_each_live_chunk(
            static_cast<double>(state.chunkSize()), [&](Index g) {
                applyDiagToChunk(state, m, gate.qubits, g);
            });
        recordKernelMetrics(diagKindOf(gate.numQubits()),
                            stateSize(state.numQubits()));
    } else if (plan.perChunk()) {
        const KernelSpec spec = makeKernelSpec(gate, tier);
        for_each_live_chunk(
            static_cast<double>(specAmps(spec, state.chunkBits())),
            [&](Index g) { applySpecToChunk(state, spec, g); });
        recordKernelMetrics(spec.kind,
                            plan.numGroups() *
                                specAmps(spec, state.chunkBits()));
    } else {
        const Gate remapped = remapGateForGroup(
            gate, plan.globalBits(), state.chunkBits());
        const KernelSpec spec = makeKernelSpec(remapped, tier);
        const int sub_qubits =
            state.chunkBits() +
            static_cast<int>(plan.globalBits().size());
        const double cost =
            static_cast<double>(specAmps(spec, sub_qubits));
        if (!bounded) {
            parallelFor(
                0, plan.numGroups(), threads,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    GroupScratch scratch;
                    for (Index g = lo; g < hi; ++g) {
                        // Compute the member list once per group; the
                        // prune check and the apply below share it.
                        plan.membersInto(g, scratch.members);
                        if (zero) {
                            const bool all_zero = std::all_of(
                                scratch.members.begin(),
                                scratch.members.end(),
                                [&zero](Index c) { return zero(c); });
                            if (all_zero)
                                continue;
                        }
                        applyGroupPrepared(state, spec, plan, scratch);
                    }
                },
                1, cost);
        } else {
            // Gather/scatter touch every member, so whole groups are
            // pinned per block (same skip decision as above via
            // liveGroups).
            ChunkResidency &res = *state.residency();
            const std::vector<Index> lg = liveGroups(plan, zero);
            const Index per_block = std::max<Index>(
                1, res.maxPinnedBlock() / plan.chunksPerGroup());
            std::vector<Index> members;
            runPinnedBlocks(
                res, lg, per_block,
                [&](Index g, std::vector<Index> &out) {
                    plan.membersInto(g, members);
                    out.insert(out.end(), members.begin(),
                               members.end());
                },
                [&](std::span<const Index> blk) {
                    parallelFor(
                        std::size_t{0}, blk.size(), threads,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                            GroupScratch scratch;
                            for (std::uint64_t i = lo; i < hi; ++i) {
                                plan.membersInto(blk[i],
                                                 scratch.members);
                                applyGroupPrepared(state, spec, plan,
                                                   scratch);
                            }
                        },
                        1, cost);
                });
        }
        recordKernelMetrics(spec.kind,
                            plan.numGroups() *
                                specAmps(spec, sub_qubits));
    }
    applySlots().wallTime.observe(wall.seconds());
}

void
applySweepChunked(ChunkedStateVector &state,
                  std::span<const Gate> gates,
                  const std::vector<int> &global_bits,
                  const ZeroPredicate &zero, KernelTier tier)
{
    if (gates.empty())
        return;
    const WallClock wall;
    const int chunk_bits = state.chunkBits();
    const int num_qubits = state.numQubits();
    const Index chunk_size = state.chunkSize();
    const std::vector<SweepOp> ops = buildSweepOps(
        gates, global_bits, num_qubits, chunk_bits, tier);
    const int threads = simThreads();

    if (global_bits.empty()) {
        // Chunk-local sweep: each chunk is loaded once and every gate
        // chains over it while it is cache-resident. A chunk that
        // out-sizes the cache-derived sweep tile (common/cacheinfo.hh)
        // is processed in aligned 2^tile_bits sub-blocks instead, so
        // each op reads amplitudes the previous op just wrote while
        // they are still L2-resident. The tile is widened until it
        // clears every chunk-local target/control bit of the sweep:
        // aligned tiles then contain whole work items of every op, so
        // tiling only splits kernel ranges on work-item boundaries —
        // bit-identical by the kernel range contract.
        int tile_bits = sweepTileBits();
        for (const SweepOp &op : ops) {
            if (op.diag) {
                for (const auto &[q, j] : op.low)
                    tile_bits = std::max(tile_bits, q + 1);
            } else {
                for (int q : op.spec.qubits)
                    tile_bits = std::max(tile_bits, q + 1);
            }
        }
        tile_bits = std::min(tile_bits, chunk_bits);
        const Index num_tiles = chunk_size >> tile_bits;
        const Index tile_amps = Index{1} << tile_bits;
        // Work items per tile for the non-diagonal ops: every op's
        // item count is a power of two dividing the chunk's amplitude
        // count, so it splits evenly across aligned tiles.
        std::vector<Index> op_tile_items(ops.size(), 0);
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (!ops[i].diag)
                op_tile_items[i] =
                    kernelWorkItems(ops[i].spec, chunk_bits) /
                    num_tiles;
        const auto run_chunk = [&](Index c) {
            Amp *data = state.chunk(c).data();
            for (Index t = 0; t < num_tiles; ++t) {
                const Index a0 = t << tile_bits;
                for (std::size_t i = 0; i < ops.size(); ++i) {
                    const SweepOp &op = ops[i];
                    if (!op.diag) {
                        const Index per = op_tile_items[i];
                        applyKernel(op.spec, data, chunk_bits,
                                    t * per, (t + 1) * per);
                        continue;
                    }
                    // op.low bits all fall below tile_bits, so
                    // slice-local offsets select the same
                    // diagonal entries as chunk offsets.
                    int fixed = 0;
                    for (const auto &[g, j] : op.groupSel)
                        fixed |= static_cast<int>(bits::testBit(c, g))
                                 << j;
                    applyDiagFolded(data + a0, tile_amps, fixed,
                                    op.low, op.dm);
                }
            }
        };
        const double chunk_cost = static_cast<double>(ops.size()) *
                                  static_cast<double>(chunk_size);
        if (!state.boundedStorage()) {
            parallelFor(
                0, state.numChunks(), threads,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    for (Index c = lo; c < hi; ++c) {
                        if (zero && zero(c))
                            continue;
                        run_chunk(c);
                    }
                },
                1, chunk_cost);
        } else {
            // Bounded storage: pin a working-set-sized block of live
            // chunks, compute it in parallel, and prefetch the next
            // block's refills on the pool meanwhile.
            ChunkResidency &res = *state.residency();
            const std::vector<Index> live = liveChunks(state, zero);
            runPinnedBlocks(
                res, live, res.maxPinnedBlock(), expandChunk,
                [&](std::span<const Index> blk) {
                    parallelFor(
                        std::size_t{0}, blk.size(), threads,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                            for (std::uint64_t i = lo; i < hi; ++i)
                                run_chunk(blk[i]);
                        },
                        1, chunk_cost);
                });
        }
    } else {
        const GatePlan plan(global_bits, num_qubits, chunk_bits);
        if (plan.numGroups() *
                static_cast<Index>(plan.chunksPerGroup()) !=
            state.numChunks())
            QGPU_PANIC("sweep plan does not partition the ",
                       state.numChunks(), "-chunk state: ",
                       plan.numGroups(), " groups x ",
                       plan.chunksPerGroup(), " chunks");
        const int sub_qubits =
            chunk_bits + static_cast<int>(global_bits.size());
        const int span = plan.chunksPerGroup();
        const auto run_group = [&](Index g, GroupScratch &scratch,
                                   std::vector<char> &live) {
            plan.membersInto(g, scratch.members);
            // Per-member liveness, computed once: the mask
            // behind `zero` is constant across a sweep, and
            // skip decisions must match gate-by-gate exactly
            // (writing to a provably-zero chunk could flip
            // signed-zero bits).
            bool any_live = true;
            if (zero) {
                live.assign(span, 0);
                any_live = false;
                for (int m = 0; m < span; ++m)
                    if (!zero(scratch.members[m])) {
                        live[m] = 1;
                        any_live = true;
                    }
            }
            if (!any_live)
                return;
            prepareGathered(scratch, stateSize(sub_qubits));
            state.gatherChunks(scratch.members,
                               scratch.gathered.data());
            Amp *reg = scratch.gathered.data();
            for (const SweepOp &op : ops) {
                if (op.cross) {
                    // Whole gathered register, exactly like
                    // gate-by-gate's group apply (which runs
                    // when any member is live).
                    applyKernel(op.spec, reg, sub_qubits);
                    continue;
                }
                if (!op.diag) {
                    for (int m = 0; m < span; ++m) {
                        if (zero && !live[m])
                            continue;
                        applyKernel(op.spec, reg + m * chunk_size,
                                    chunk_bits);
                    }
                    continue;
                }
                int group_fixed = 0;
                for (const auto &[gb, j] : op.groupSel)
                    group_fixed |= static_cast<int>(bits::testBit(
                                       scratch.members[0], gb))
                                   << j;
                for (int m = 0; m < span; ++m) {
                    if (zero && !live[m])
                        continue;
                    int fixed = group_fixed;
                    for (const auto &[p, j] : op.memberSel)
                        fixed |= static_cast<int>(bits::testBit(
                                     static_cast<std::uint64_t>(m), p))
                                 << j;
                    applyDiagFolded(reg + m * chunk_size, chunk_size,
                                    fixed, op.low, op.dm);
                }
            }
            state.scatterChunks(scratch.members,
                                scratch.gathered.data());
        };
        const double group_cost = static_cast<double>(ops.size()) *
                                  static_cast<double>(chunk_size) *
                                  static_cast<double>(span);
        if (!state.boundedStorage()) {
            parallelFor(
                0, plan.numGroups(), threads,
                [&](std::uint64_t lo, std::uint64_t hi) {
                    GroupScratch scratch;
                    std::vector<char> live;
                    for (Index g = lo; g < hi; ++g)
                        run_group(g, scratch, live);
                },
                1, group_cost);
        } else {
            // Bounded storage: gather/scatter touch every member of a
            // group, so whole groups are pinned per block (all
            // members, dead ones included — a Zero chunk zero-fills
            // to exactly the bytes the raw path holds).
            ChunkResidency &res = *state.residency();
            const std::vector<Index> lg = liveGroups(plan, zero);
            const Index per_block =
                std::max<Index>(1, res.maxPinnedBlock() / span);
            std::vector<Index> members;
            runPinnedBlocks(
                res, lg, per_block,
                [&](Index g, std::vector<Index> &out) {
                    plan.membersInto(g, members);
                    out.insert(out.end(), members.begin(),
                               members.end());
                },
                [&](std::span<const Index> blk) {
                    parallelFor(
                        std::size_t{0}, blk.size(), threads,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                            GroupScratch scratch;
                            std::vector<char> live;
                            for (std::uint64_t i = lo; i < hi; ++i)
                                run_group(blk[i], scratch, live);
                        },
                        1, group_cost);
                });
        }
    }

    // Kernel counters once per gate per sweep, with the same modeled
    // totals applyGateChunked records; the sweep counters expose how
    // many full passes over the state the circuit actually cost.
    for (const SweepOp &op : ops)
        recordKernelMetrics(op.kind, op.amps);
    const ApplySlots &slots = applySlots();
    slots.sweepCount.add();
    slots.statePasses.add();
    slots.gatesPerSweep.observe(static_cast<double>(gates.size()));
    slots.wallTime.observe(wall.seconds());
}

void
applyCircuitChunked(ChunkedStateVector &state, const Circuit &circuit)
{
    if (circuit.numQubits() != state.numQubits())
        QGPU_PANIC("circuit register ", circuit.numQubits(),
                   " != state register ", state.numQubits());
    const std::span<const Gate> gates{circuit.gates()};
    std::size_t at = 0;
    while (at < gates.size()) {
        const Sweep sweep = nextSweep(gates, at, state.chunkBits());
        applySweepChunked(state,
                          gates.subspan(sweep.begin, sweep.size()),
                          sweep.globalBits);
        at = sweep.end;
    }
}

} // namespace qgpu
