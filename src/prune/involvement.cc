#include "prune/involvement.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace qgpu
{

InvolvementMask::InvolvementMask(int num_qubits,
                                 InvolvementPolicy policy)
    : numQubits_(num_qubits), policy_(policy)
{
    if (num_qubits < 1 || num_qubits > 62)
        QGPU_FATAL("unsupported qubit count ", num_qubits);
}

void
InvolvementMask::involve(int q)
{
    mask_ = bits::setBit(mask_, q);
}

void
InvolvementMask::involve(const Gate &gate)
{
    if (policy_ == InvolvementPolicy::PerOp) {
        mask_ |= gateInvolvementBits(gate, policy_);
        return;
    }

    // NonDiagonal refinement: a controlled permutation whose controls
    // are all uninvolved acts as the identity on the live subspace
    // (the control-on amplitudes are all zero), so it involves
    // nothing at all.
    switch (gate.kind) {
      case GateKind::CX:
      case GateKind::CY:
        if (isInvolved(gate.qubits[0]))
            involve(gate.qubits[1]);
        return;
      case GateKind::CCX:
        if (isInvolved(gate.qubits[0]) && isInvolved(gate.qubits[1]))
            involve(gate.qubits[2]);
        return;
      case GateKind::CSWAP:
        if (isInvolved(gate.qubits[0])) {
            const bool a = isInvolved(gate.qubits[1]);
            const bool b = isInvolved(gate.qubits[2]);
            if (b)
                involve(gate.qubits[1]);
            if (a)
                involve(gate.qubits[2]);
        }
        return;
      default:
        mask_ |= gateInvolvementBits(gate, policy_);
        return;
    }
}

bool
InvolvementMask::isInvolved(int q) const
{
    return bits::testBit(mask_, q);
}

int
InvolvementMask::count() const
{
    return bits::popcount(mask_);
}

int
InvolvementMask::dynamicChunkBits(int min_bits, int max_bits) const
{
    const int run = bits::trailingOnes(mask_);
    return std::clamp(run, min_bits, max_bits);
}

std::uint64_t
gateInvolvementBits(const Gate &gate, InvolvementPolicy policy)
{
    std::uint64_t out = 0;
    if (policy == InvolvementPolicy::PerOp) {
        for (int q : gate.qubits)
            out = bits::setBit(out, q);
        return out;
    }

    // NonDiagonal: only qubits on which the unitary acts
    // non-diagonally can gain |1>-subspace weight.
    switch (gate.kind) {
      // Fully diagonal gates involve nothing.
      case GateKind::ID:
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::RZ:
      case GateKind::P:
      case GateKind::CZ:
      case GateKind::CP:
      case GateKind::CRZ:
      case GateKind::RZZ:
      case GateKind::CCZ:
        return 0;
      // Controlled permutations involve their targets only.
      case GateKind::CX:
      case GateKind::CY:
        return bits::setBit(0, gate.qubits[1]);
      case GateKind::CCX:
        return bits::setBit(0, gate.qubits[2]);
      case GateKind::CSWAP:
        return bits::setBit(bits::setBit(0, gate.qubits[1]),
                            gate.qubits[2]);
      default:
        // 1q non-diagonal gates, SWAP, Custom: everything named.
        for (int q : gate.qubits)
            out = bits::setBit(out, q);
        return out;
    }
}

} // namespace qgpu
