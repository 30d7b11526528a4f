/**
 * @file
 * The execution plan: the sweep schedule of one run, built once before
 * any amplitude moves. It fixes the executed gate order, each sweep's
 * chunk size, and each sweep's liveness under the involvement mask.
 * Every execution path (streaming, sharded-resident, baseline, and
 * Shared-mode shot replay) walks the same plan; they differ only in
 * how they charge the device model for it.
 */

#ifndef QGPU_SCHED_PLAN_HH
#define QGPU_SCHED_PLAN_HH

#include <cstdint>
#include <vector>

#include "prune/involvement.hh"
#include "sched/sweep.hh"

namespace qgpu
{

/**
 * One planned sweep: its gate range and signature (sched/sweep.hh),
 * the chunk size it runs at, and the involvement mask before and
 * after it. Rule 3 makes liveBits what every gate of the sweep sees;
 * postBits adds the sweep's own involvement (and, in shot plans, the
 * noise it can arm at its boundary) and is the next sweep's liveBits.
 * Both are all-ones when pruning is off.
 */
struct PlanSweep : Sweep
{
    int chunkBits = 0;
    std::uint64_t liveBits = ~std::uint64_t{0};
    std::uint64_t postBits = ~std::uint64_t{0};

    /** Can chunk @p c hold weight while the sweep runs? */
    bool
    chunkLive(Index c) const
    {
        return isLiveChunk(c, chunkBits, liveBits);
    }
};

/** The build-once schedule of one run. */
struct ExecutionPlan
{
    /** Executed gate order (after any reordering and fusion). */
    Circuit ordered{1};
    bool prune = false;
    /** Chunk size the state starts at (the first sweep's). */
    int chunkBits = 0;
    std::vector<PlanSweep> sweeps;
    /** Shot plans: per executed gate, the qubits its noise can arm. */
    std::vector<std::uint64_t> noiseBits;
    /** Shot plans: gate sites whose noise arms a new qubit. */
    std::uint64_t armedSites = 0;
};

/**
 * Plan @p ordered. With @p prune, sweeps obey rule 3 under an
 * involvement mask of @p policy, and each sweep's chunk size is
 * Algorithm 1's dynamic size clamped to [@p min_chunk_bits,
 * @p max_chunk_bits] (equal bounds fix it). Non-empty @p noise_bits
 * (one entry per gate) makes it a shot plan: sweeps close at armable
 * noise sites and the mask arms every qubit the noise can touch.
 */
ExecutionPlan buildPlan(Circuit ordered, bool prune,
                        InvolvementPolicy policy, int min_chunk_bits,
                        int max_chunk_bits,
                        std::vector<std::uint64_t> noise_bits = {});

} // namespace qgpu

#endif // QGPU_SCHED_PLAN_HH
