#include "sched/plan.hh"

#include <bit>

namespace qgpu
{

ExecutionPlan
buildPlan(Circuit ordered, bool prune, InvolvementPolicy policy,
          int min_chunk_bits, int max_chunk_bits,
          std::vector<std::uint64_t> noise_bits)
{
    ExecutionPlan plan;
    plan.ordered = std::move(ordered);
    plan.prune = prune;
    plan.noiseBits = std::move(noise_bits);
    const std::span<const Gate> gates(plan.ordered.gates());
    InvolvementMask mask(plan.ordered.numQubits(), policy);
    plan.chunkBits = mask.dynamicChunkBits(min_chunk_bits, max_chunk_bits);

    for (std::size_t at = 0; at < gates.size();) {
        const int chunk_bits =
            mask.dynamicChunkBits(min_chunk_bits, max_chunk_bits);
        PlanSweep sw{nextSweep(gates, at, chunk_bits,
                               prune ? &mask : nullptr, plan.noiseBits),
                     chunk_bits};
        if (prune) {
            sw.liveBits = mask.bits();
            for (std::size_t i = sw.begin; i < sw.end; ++i) {
                mask.involve(gates[i]);
                if (plan.noiseBits.empty())
                    continue;
                // Conservative union arming: every qubit any shot's
                // sampled error at this site could touch
                // non-diagonally goes live for the rest of the plan.
                std::uint64_t noise = plan.noiseBits[i];
                if ((noise & ~mask.bits()) != 0)
                    ++plan.armedSites;
                for (; noise != 0; noise &= noise - 1)
                    mask.involve(std::countr_zero(noise));
            }
            sw.postBits = mask.bits();
        }
        at = sw.end;
        plan.sweeps.push_back(std::move(sw));
    }
    return plan;
}

} // namespace qgpu
