/**
 * @file
 * Sweep scheduling: partition a circuit's gate sequence into maximal
 * *sweeps* — runs of consecutive gates whose chunk pairings are
 * compatible — so the executor can make ONE pass over the chunked
 * state per sweep instead of one pass per gate (statevec/apply.hh,
 * applySweepChunked). This moves the paper's core idea (amortize
 * chunk transfer over many gates while the chunk is device-resident)
 * one level down the memory hierarchy: amortize the DRAM pass over
 * many gates while the chunk is cache-resident.
 *
 * Compatibility rules (all exact; sweep execution is bit-identical to
 * gate-by-gate execution):
 *
 *  1. Chunk-local gates (diagonal gates, and non-diagonal gates whose
 *     targets all sit below the chunk boundary) batch freely: their
 *     chunk groups are single chunks, which refine any partition.
 *  2. Cross-chunk gates batch while the induced group partition is
 *     unchanged: every cross-chunk gate of a sweep must couple the
 *     same set of chunk-index bits (the sweep's signature
 *     @c globalBits). The first cross-chunk gate of a sweep donates
 *     its bits; a gate with a different set closes the sweep.
 *  3. With pruning, a sweep may not cross an involvement boundary: a
 *     gate that involves a previously-uninvolved qubit is the LAST
 *     gate of its sweep, so every gate of a sweep sees exactly the
 *     involvement mask that gate-by-gate execution would give it
 *     (the mask is advanced sweep-by-sweep by the engines).
 *
 * The scheduler walks the gate list in program order — a topological
 * order of the gate-dependency DAG (qc/dag.hh). Reordering across
 * DAG-independent gates to lengthen sweeps would change floating-point
 * summation order and break the tolerance-0 differential contract, so
 * sweeps are contiguous runs; order-changing passes (reorder/, fusion)
 * run before scheduling and feed the scheduler their output order.
 */

#ifndef QGPU_SCHED_SWEEP_HH
#define QGPU_SCHED_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "prune/involvement.hh"
#include "qc/circuit.hh"

namespace qgpu
{

/**
 * One sweep: gates [begin, end) of the scheduled sequence, plus the
 * chunk-index bit positions its cross-chunk gates couple (empty for a
 * purely chunk-local sweep). The executor partitions the chunk set by
 * @c globalBits exactly as GatePlan does for a single gate.
 */
struct Sweep
{
    std::size_t begin = 0;
    std::size_t end = 0;

    /** Sorted chunk-index bits coupled by the sweep's cross-chunk
     *  gates; empty iff every gate is chunk-local. */
    std::vector<int> globalBits;

    std::size_t size() const { return end - begin; }
};

/**
 * Chunk-index bit positions gate @p gate couples across the chunk
 * boundary (sorted ascending), for chunks of 2^chunk_bits amplitudes.
 * Empty for diagonal gates (every chunk is independent regardless of
 * target position) and for gates whose targets are all chunk-local.
 * Matches GatePlan's partition for the same gate.
 */
std::vector<int> gateGlobalBits(const Gate &gate, int chunk_bits);

/**
 * The maximal sweep starting at gate @p begin under the rules above.
 * @p mask, when given, supplies the involvement state at @p begin and
 * enables rule 3 (the mask is read, never written; callers advance it
 * after executing the sweep). Requires begin < gates.size().
 *
 * @p noise_bits, for the batched-shot planner (engine/batched.hh),
 * holds per gate the qubit-space mask of qubits a stochastic error
 * attached after gate i may touch non-diagonally
 * (noise::NoiseModel::touchableBits). Rule 3 extends to these
 * *potential* involvement additions — a gate whose attached noise can
 * arm a not-yet-involved qubit is the LAST gate of its sweep, so
 * sampled error gates only ever take effect at sweep boundaries,
 * where the shared schedule's conservative union mask (and with it
 * the sweep-constant zero predicate) is advanced. Errors whose
 * qubits are already involved need no boundary: they split a sweep
 * into sub-spans at replay time, which remains valid because a
 * sub-span of a sweep executed with the sweep's globalBits satisfies
 * every applySweepChunked precondition. Without @p mask (pruning
 * off) noise never invalidates anything and the rule is inert.
 * @p noise_bits must cover gates.size() entries when non-empty.
 */
Sweep nextSweep(std::span<const Gate> gates, std::size_t begin,
                int chunk_bits, const InvolvementMask *mask = nullptr,
                std::span<const std::uint64_t> noise_bits = {});

/**
 * Partition the whole gate sequence into consecutive maximal sweeps.
 * When @p mask is given it is advanced through every gate (rule 3),
 * ending in the post-circuit involvement state. The sweeps exactly
 * cover [0, gates.size()).
 */
std::vector<Sweep> scheduleSweeps(std::span<const Gate> gates,
                                  int chunk_bits,
                                  InvolvementMask *mask = nullptr);

} // namespace qgpu

#endif // QGPU_SCHED_SWEEP_HH
