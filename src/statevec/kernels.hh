/**
 * @file
 * Generic gate-application kernels, templated over an amplitude
 * accessor. These are the "vector-matrix multiplications in the form
 * of Equation 8" the paper describes.
 *
 * An Accessor is any callable mapping a global amplitude index to an
 * Amp reference.
 *
 * The simulators run the specialized contiguous kernels of the
 * dispatch layer (kernel_dispatch.hh) for every gate kind, the dense
 * k-qubit case included. This file is the REFERENCE implementation
 * that layer is differentially tested against (bit-identical,
 * tolerance 0), plus gateFlops, the modeled work every engine
 * charges.
 */

#ifndef QGPU_STATEVEC_KERNELS_HH
#define QGPU_STATEVEC_KERNELS_HH

#include <algorithm>
#include <array>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "qc/gate.hh"

namespace qgpu
{
namespace kernels
{

/**
 * Apply a 1-qubit gate to every amplitude pair of an n-qubit register.
 * @p m is the row-major 2x2 matrix.
 */
template <typename Accessor>
void
apply1q(Accessor &&amp, int num_qubits, int target, const Amp *m,
        Index begin = 0, Index end = ~Index{0})
{
    const Index pairs = stateSize(num_qubits) >> 1;
    end = std::min(end, pairs);
    for (Index i = begin; i < end; ++i) {
        const Index i0 = bits::insertZeroBit(i, target);
        const Index i1 = i0 | (Index{1} << target);
        const Amp a0 = amp(i0);
        const Amp a1 = amp(i1);
        amp(i0) = m[0] * a0 + m[1] * a1;
        amp(i1) = m[2] * a0 + m[3] * a1;
    }
}

/**
 * Apply a diagonal 1-qubit gate: amplitude i picks diagonal entry
 * d[bit(i, target)].
 */
template <typename Accessor>
void
applyDiag1q(Accessor &&amp, int num_qubits, int target,
            const Amp *diag, Index begin = 0, Index end = ~Index{0})
{
    const Index size = stateSize(num_qubits);
    end = std::min(end, size);
    for (Index i = begin; i < end; ++i)
        amp(i) *= diag[bits::testBit(i, target)];
}

/**
 * Apply a generic k-qubit gate. @p gate_qubits follow the Gate matrix
 * convention: matrix index bit j corresponds to gate_qubits[j].
 */
template <typename Accessor>
void
applyK(Accessor &&amp, int num_qubits,
       const std::vector<int> &gate_qubits, const GateMatrix &m,
       Index begin = 0, Index end = ~Index{0})
{
    const int k = static_cast<int>(gate_qubits.size());
    const int dim = 1 << k;

    std::vector<int> sorted = gate_qubits;
    std::sort(sorted.begin(), sorted.end());

    // Address offsets of each matrix basis index relative to the group
    // base: basis bit j contributes 1 << gate_qubits[j].
    std::array<Index, 64> offset{};
    for (int b = 0; b < dim; ++b) {
        Index off = 0;
        for (int j = 0; j < k; ++j)
            if (bits::testBit(static_cast<std::uint64_t>(b), j))
                off |= Index{1} << gate_qubits[j];
        offset[b] = off;
    }

    std::array<Amp, 64> in;
    const Index groups = stateSize(num_qubits - k);
    end = std::min(end, groups);
    for (Index g = begin; g < end; ++g) {
        const Index base = bits::insertZeroBits(g, sorted);
        for (int b = 0; b < dim; ++b)
            in[b] = amp(base | offset[b]);
        for (int r = 0; r < dim; ++r) {
            Amp sum{0, 0};
            for (int c = 0; c < dim; ++c)
                sum += m.at(r, c) * in[c];
            amp(base | offset[r]) = sum;
        }
    }
}

/**
 * Apply a diagonal k-qubit gate: amplitude i picks the diagonal entry
 * selected by its bits at the gate qubits.
 */
template <typename Accessor>
void
applyDiagK(Accessor &&amp, int num_qubits,
           const std::vector<int> &gate_qubits, const GateMatrix &m,
           Index begin = 0, Index end = ~Index{0})
{
    const int k = static_cast<int>(gate_qubits.size());
    const Index size = stateSize(num_qubits);
    end = std::min(end, size);
    for (Index i = begin; i < end; ++i) {
        int sel = 0;
        for (int j = 0; j < k; ++j)
            sel |= bits::testBit(i, gate_qubits[j]) << j;
        amp(i) *= m.at(sel, sel);
    }
}

/**
 * Number of independent work items applyGate iterates for @p gate on
 * an n-qubit register (pairs, amplitudes, or groups). Parallel
 * callers split [0, this) into ranges.
 */
inline Index
gateWorkItems(const Gate &gate, int num_qubits)
{
    if (gate.isDiagonal())
        return stateSize(num_qubits);
    return stateSize(num_qubits - gate.numQubits());
}

/**
 * Dispatch on gate shape over work items [begin, end). This is the
 * one entry point both simulators use; the default range covers the
 * whole register.
 */
template <typename Accessor>
void
applyGate(Accessor &&amp, int num_qubits, const Gate &gate,
          Index begin = 0, Index end = ~Index{0})
{
    const GateMatrix m = gate.matrix();
    if (gate.numQubits() == 1) {
        if (gate.isDiagonal()) {
            const Amp diag[2] = {m.at(0, 0), m.at(1, 1)};
            applyDiag1q(amp, num_qubits, gate.qubits[0], diag,
                        begin, end);
        } else {
            const Amp flat[4] = {m.at(0, 0), m.at(0, 1),
                                 m.at(1, 0), m.at(1, 1)};
            apply1q(amp, num_qubits, gate.qubits[0], flat, begin,
                    end);
        }
        return;
    }
    if (gate.isDiagonal()) {
        applyDiagK(amp, num_qubits, gate.qubits, m, begin, end);
        return;
    }
    applyK(amp, num_qubits, gate.qubits, m, begin, end);
}

/**
 * Modeled floating-point work of applying @p gate to an n-qubit state:
 * complex multiply-adds per amplitude group times group count, at 8
 * flops per complex MAC. Drives the compute-engine timing and the
 * roofline (Fig. 15).
 */
inline double
gateFlops(const Gate &gate, int num_qubits)
{
    const int k = gate.numQubits();
    const double dim = static_cast<double>(1 << k);
    if (gate.isDiagonal()) {
        // One complex multiply (6 flops) per amplitude.
        return 6.0 * static_cast<double>(stateSize(num_qubits));
    }
    const double groups =
        static_cast<double>(stateSize(num_qubits - k));
    return groups * dim * dim * 8.0;
}

} // namespace kernels
} // namespace qgpu

#endif // QGPU_STATEVEC_KERNELS_HH
