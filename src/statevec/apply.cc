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
    HistogramSlot &gatesPerSweep;
    HistogramSlot &wallTime;
};

const ApplySlots &
applySlots()
{
    static const ApplySlots slots = [] {
        auto &mr = MetricsRegistry::global();
        return ApplySlots{mr.counterSlot("sweep.count"),
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
    const ExactKernels &exact = exactKernels();
    // No varying targets: one constant diagonal entry scales the
    // whole slice.
    if (local.empty()) {
        exact.scale(data, m.at(fixed_sel, fixed_sel), 0, size);
        return;
    }
    if (local.size() == 1) {
        const auto [q0, j0] = local[0];
        const int sel1 = fixed_sel | (1 << j0);
        exact.diag1(data, q0, m.at(fixed_sel, fixed_sel),
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
        exact.diag2(data, qa, qb, lut, 0, size);
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
 * Load group @p g of @p plan into @p scratch: its member chunks and
 * whether each may hold weight under @p zero (every one without a
 * predicate). False when no member is live: the group is then a no-op
 * and must not be touched, since kernels may write -0.0 into a
 * value-zero chunk.
 */
bool
loadGroup(const GatePlan &plan, const ZeroPredicate &zero, Index g,
          GroupScratch &scratch)
{
    plan.membersInto(g, scratch.members);
    scratch.live.resize(scratch.members.size());
    bool any = false;
    for (std::size_t m = 0; m < scratch.members.size(); ++m) {
        scratch.live[m] = !(zero && zero(scratch.members[m]));
        any = any || scratch.live[m] != 0;
    }
    return any;
}

/**
 * Run @p body(group, scratch) over every group of @p plan with a live
 * member, scratch loaded by loadGroup. Each worker reuses one scratch
 * across its range of groups; the groups partition the chunk set, so
 * the workers are race-free by construction. This is the executor's
 * only storage-dependent code.
 *
 * Raw storage fans every group out in one parallelFor. Bounded
 * storage walks the live groups in blocks of whole groups, dead
 * members included (a Zero chunk zero-fills to exactly the bytes the
 * raw path holds), sized to the residency's largest pinned block.
 * Each block is pinned before it computes, and the next block's
 * refills are issued asynchronously on the pool meanwhile: the
 * sweep-aware prefetch that overlaps decompression with kernel work.
 * Pinned chunks are never evicted, so workers only ever see stable
 * resident slots. A single group larger than the block transiently
 * overshoots the working-set budget until it unpins.
 */
template <typename Body>
void
forEachLiveGroup(ChunkedStateVector &state, const GatePlan &plan,
                 const ZeroPredicate &zero, double cost, Body &&body)
{
    if (plan.numGroups() * static_cast<Index>(plan.chunksPerGroup()) !=
        state.numChunks())
        QGPU_PANIC("plan does not partition the ", state.numChunks(),
                   "-chunk state: ", plan.numGroups(), " groups x ",
                   plan.chunksPerGroup(), " chunks");
    const int threads = simThreads();
    // The worker for the groups group_of(lo) .. group_of(hi - 1).
    const auto worker = [&](auto group_of) {
        return [&, group_of](std::uint64_t lo, std::uint64_t hi) {
            GroupScratch scratch;
            for (std::uint64_t i = lo; i < hi; ++i)
                if (loadGroup(plan, zero, group_of(i), scratch))
                    body(group_of(i), scratch);
        };
    };
    if (!state.boundedStorage()) {
        parallelFor(0, plan.numGroups(), threads,
                    worker(std::identity{}), 1, cost);
        return;
    }

    ChunkResidency &res = *state.residency();
    GroupScratch probe;
    std::vector<Index> live;
    for (Index g = 0; g < plan.numGroups(); ++g)
        if (loadGroup(plan, zero, g, probe))
            live.push_back(g);
    const auto per_block = static_cast<std::size_t>(std::max<Index>(
        1, res.maxPinnedBlock() / plan.chunksPerGroup()));
    // The member chunks of the block of live groups starting at `at`.
    const auto block_chunks = [&](std::size_t at,
                                  std::vector<Index> &out) {
        out.clear();
        for (std::size_t i = at;
             i < std::min(at + per_block, live.size()); ++i) {
            plan.membersInto(live[i], probe.members);
            out.insert(out.end(), probe.members.begin(),
                       probe.members.end());
        }
    };
    std::vector<Index> cur, next;
    if (!live.empty()) {
        block_chunks(0, cur);
        res.pin(cur);
    }
    for (std::size_t at = 0; at < live.size(); at += per_block) {
        const std::size_t end = std::min(at + per_block, live.size());
        if (end < live.size()) {
            block_chunks(end, next);
            res.pinAsync(next);
        }
        parallelFor(at, end, threads,
                    worker([&live](std::uint64_t i) { return live[i]; }),
                    1, cost);
        res.unpin(cur);
        if (end < live.size())
            res.waitPins();
        std::swap(cur, next);
    }
}

} // namespace

void
applyGroup(ChunkedStateVector &state, const Gate &gate,
           const GatePlan &plan, Index group)
{
    // Serial: state.chunk() materializes each chunk on demand.
    if (plan.perChunk()) {
        if (gate.isDiagonal())
            applyDiagToChunk(state, gate.matrix(), gate.qubits,
                             group);
        else
            applySpecToChunk(state, makeKernelSpec(gate), group);
        return;
    }
    GroupScratch scratch;
    plan.membersInto(group, scratch.members);
    const Gate remapped = remapGateForGroup(gate, plan.globalBits(),
                                            state.chunkBits());
    applyGroupPrepared(state, makeKernelSpec(remapped), plan, scratch);
}

void
applyGateChunked(ChunkedStateVector &state, const Gate &gate,
                 const ZeroPredicate &zero, KernelTier tier)
{
    const WallClock wall;
    const GatePlan plan(gate, state.numQubits(), state.chunkBits());
    if (gate.isDiagonal()) {
        const GateMatrix m = gate.matrix();
        forEachLiveGroup(state, plan, zero,
                         static_cast<double>(state.chunkSize()),
                         [&](Index c, GroupScratch &) {
                             applyDiagToChunk(state, m, gate.qubits, c);
                         });
        recordKernelMetrics(diagKindOf(gate.numQubits()),
                            stateSize(state.numQubits()));
    } else {
        // A chunk-local gate runs in place on each chunk, a
        // cross-chunk one on each group's gathered register (targets
        // remapped into it; a no-op remap for chunk-local gates).
        const KernelSpec spec = makeKernelSpec(
            remapGateForGroup(gate, plan.globalBits(), state.chunkBits()),
            tier);
        const Index group_amps = specAmps(
            spec, state.chunkBits() +
                      static_cast<int>(plan.globalBits().size()));
        forEachLiveGroup(state, plan, zero,
                         static_cast<double>(group_amps),
                         [&](Index g, GroupScratch &scratch) {
                             if (plan.perChunk())
                                 applySpecToChunk(state, spec, g);
                             else
                                 applyGroupPrepared(state, spec, plan,
                                                    scratch);
                         });
        recordKernelMetrics(spec.kind, plan.numGroups() * group_amps);
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
    const Index chunk_size = state.chunkSize();
    const std::vector<SweepOp> ops = buildSweepOps(
        gates, global_bits, state.numQubits(), chunk_bits, tier);
    const GatePlan plan(global_bits, state.numQubits(), chunk_bits);
    const int span = plan.chunksPerGroup();
    const double cost = static_cast<double>(ops.size()) *
                        static_cast<double>(chunk_size) *
                        static_cast<double>(span);

    if (plan.perChunk()) {
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
        const auto run_chunk = [&](Index c, GroupScratch &) {
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
        forEachLiveGroup(state, plan, zero, cost, run_chunk);
    } else {
        // Cross-chunk sweep: gather each group once and chain every
        // op over the register. Cross-chunk kernels run on the whole
        // register, exactly like gate-by-gate's group apply (which
        // runs when any member is live); chunk-local and diagonal
        // work skips dead members, as gate-by-gate's per-chunk path
        // does (`zero` is constant across a sweep).
        const int sub_qubits =
            chunk_bits + static_cast<int>(global_bits.size());
        const auto run_group = [&](Index, GroupScratch &scratch) {
            prepareGathered(scratch, stateSize(sub_qubits));
            Amp *reg = scratch.gathered.data();
            state.gatherChunks(scratch.members, reg);
            for (const SweepOp &op : ops) {
                if (op.cross) {
                    applyKernel(op.spec, reg, sub_qubits);
                    continue;
                }
                int group_fixed = 0;
                for (const auto &[gb, j] : op.groupSel)
                    group_fixed |= static_cast<int>(bits::testBit(
                                       scratch.members[0], gb))
                                   << j;
                for (int m = 0; m < span; ++m) {
                    if (!scratch.live[m])
                        continue;
                    Amp *data = reg + m * chunk_size;
                    if (!op.diag) {
                        applyKernel(op.spec, data, chunk_bits);
                        continue;
                    }
                    int fixed = group_fixed;
                    for (const auto &[p, j] : op.memberSel)
                        fixed |= static_cast<int>(bits::testBit(
                                     static_cast<std::uint64_t>(m), p))
                                 << j;
                    applyDiagFolded(data, chunk_size, fixed, op.low,
                                    op.dm);
                }
            }
            state.scatterChunks(scratch.members, reg);
        };
        forEachLiveGroup(state, plan, zero, cost, run_group);
    }

    // Kernel counters once per gate per sweep, with the same modeled
    // totals applyGateChunked records; the sweep counters expose how
    // many full passes over the state the circuit actually cost.
    for (const SweepOp &op : ops)
        recordKernelMetrics(op.kind, op.amps);
    const ApplySlots &slots = applySlots();
    slots.sweepCount.add();
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
