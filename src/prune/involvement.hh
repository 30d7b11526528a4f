/**
 * @file
 * Qubit involvement tracking (paper §IV-B). A bit of the involvement
 * mask is set once a gate has acted on the corresponding qubit; while
 * it is clear, every amplitude whose index has that bit set is
 * provably zero, which is what licenses pruning.
 */

#ifndef QGPU_PRUNE_INVOLVEMENT_HH
#define QGPU_PRUNE_INVOLVEMENT_HH

#include <cstdint>

#include "common/types.hh"
#include "qc/gate.hh"

namespace qgpu
{

/**
 * How a gate involves its qubits.
 *
 * PerOp is the paper's rule: any gate involves every qubit it names.
 * NonDiagonal is a sharper (still exact) extension implemented here:
 * a diagonal action cannot move weight into the |1> subspace, so a
 * qubit only becomes involved when a gate acts non-diagonally on it
 * (e.g. CX involves its target but not its control; CZ/CP involve
 * nothing). Evaluated as an ablation.
 */
enum class InvolvementPolicy { PerOp, NonDiagonal };

/**
 * Can chunk @p chunk (with @p chunk_bits offset bits) hold non-zero
 * amplitudes while only the qubits in @p live_bits are involved? Every
 * set bit of the shifted chunk index must be live (Algorithm 1 line
 * 7). The one liveness rule every pruning path uses.
 */
inline bool
isLiveChunk(Index chunk, int chunk_bits, std::uint64_t live_bits)
{
    return ((chunk << chunk_bits) & ~live_bits) == 0;
}

/**
 * The involvement bitmask of Algorithm 1.
 */
class InvolvementMask
{
  public:
    explicit InvolvementMask(int num_qubits,
                             InvolvementPolicy policy =
                                 InvolvementPolicy::PerOp);

    int numQubits() const { return numQubits_; }
    std::uint64_t bits() const { return mask_; }
    InvolvementPolicy policy() const { return policy_; }

    /** Mark qubit @p q involved. */
    void involve(int q);

    /** Record the application of @p gate per the active policy. */
    void involve(const Gate &gate);

    bool isInvolved(int q) const;

    /** Number of involved qubits. */
    int count() const;

    bool allInvolved() const { return count() == numQubits_; }

    /** isLiveChunk under this mask's involved qubits. */
    bool chunkIsLive(Index chunk, int chunk_bits) const
    {
        return isLiveChunk(chunk, chunk_bits, mask_);
    }

    /**
     * Dynamic chunk size of Algorithm 1: the run of involved qubits
     * starting at qubit 0 (the least non-zero bit rule), clamped to
     * [@p min_bits, @p max_bits].
     */
    int dynamicChunkBits(int min_bits, int max_bits) const;

  private:
    int numQubits_;
    InvolvementPolicy policy_;
    std::uint64_t mask_ = 0;
};

/**
 * Per-gate qubit bits under a policy, without a mask instance: which
 * qubits would the gate involve?
 */
std::uint64_t gateInvolvementBits(const Gate &gate,
                                  InvolvementPolicy policy);

} // namespace qgpu

#endif // QGPU_PRUNE_INVOLVEMENT_HH
