#include "statevec/kernel_dispatch.hh"

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace qgpu
{

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Diag1q: return "diag1q";
      case KernelKind::Diag2q: return "diag2q";
      case KernelKind::DiagK: return "diagk";
      case KernelKind::Perm1q: return "perm1q";
      case KernelKind::Ctrl1q: return "ctrl1q";
      case KernelKind::Dense1q: return "dense1q";
      case KernelKind::Dense2q: return "dense2q";
      case KernelKind::DenseK: return "densek";
    }
    return "?";
}

void
panicUnhandledKind(KernelKind kind)
{
    QGPU_PANIC("unhandled kernel kind ", static_cast<int>(kind));
}

namespace kern
{
#include "statevec/kernel_body.inc"
} // namespace kern

KernelSpec
makeKernelSpec(const Gate &gate, KernelTier tier)
{
    KernelSpec s;
    s.tier = tier;
    s.qubits = gate.qubits;
    const int k = gate.numQubits();

    if (gate.isDiagonal()) {
        const GateMatrix m = gate.matrix();
        if (k == 1) {
            s.kind = KernelKind::Diag1q;
            s.target = gate.qubits[0];
            s.m1[0] = m.at(0, 0);
            s.m1[1] = m.at(1, 1);
        } else if (k == 2) {
            s.kind = KernelKind::Diag2q;
            s.tLo = std::min(gate.qubits[0], gate.qubits[1]);
            s.tHi = std::max(gate.qubits[0], gate.qubits[1]);
            const int j_lo = gate.qubits[0] < gate.qubits[1] ? 0 : 1;
            for (int c = 0; c < 4; ++c) {
                const int sel = ((c & 1) << j_lo) |
                                (((c >> 1) & 1) << (1 - j_lo));
                s.lut[c] = m.at(sel, sel);
            }
        } else {
            s.kind = KernelKind::DiagK;
            s.matrix = m;
        }
        return s;
    }

    // Controlled kinds with a dense 1q target block: controls are the
    // leading qubits (gate.hh convention), the target the last one.
    int num_controls = 0;
    switch (gate.kind) {
      case GateKind::CX:
      case GateKind::CY:
        num_controls = 1;
        break;
      case GateKind::CCX:
        num_controls = 2;
        break;
      default:
        break;
    }
    if (num_controls > 0) {
        s.kind = KernelKind::Ctrl1q;
        s.target = gate.qubits[num_controls];
        s.fixedSorted = gate.qubits;
        std::sort(s.fixedSorted.begin(), s.fixedSorted.end());
        for (int c = 0; c < num_controls; ++c)
            s.ctrlMask |= Index{1} << gate.qubits[c];
        // The target block sits at the rows/columns whose control
        // bits (matrix bits 0..nc-1) are all ones.
        const GateMatrix m = gate.matrix();
        const int cm = static_cast<int>(bits::lowMask(num_controls));
        for (int r = 0; r < 2; ++r)
            for (int c = 0; c < 2; ++c)
                s.m1[r * 2 + c] = m.at((r << num_controls) | cm,
                                       (c << num_controls) | cm);
        return s;
    }

    if (k == 1) {
        const GateMatrix m = gate.matrix();
        s.target = gate.qubits[0];
        s.m1[0] = m.at(0, 0);
        s.m1[1] = m.at(0, 1);
        s.m1[2] = m.at(1, 0);
        s.m1[3] = m.at(1, 1);
        s.kind = gate.isPermutation() ? KernelKind::Perm1q
                                      : KernelKind::Dense1q;
        return s;
    }
    if (k == 2) {
        s.kind = KernelKind::Dense2q;
        s.tLo = std::min(gate.qubits[0], gate.qubits[1]);
        s.tHi = std::max(gate.qubits[0], gate.qubits[1]);
        s.matrix = gate.matrix();
        return s;
    }
    s.kind = KernelKind::DenseK;
    s.matrix = gate.matrix();
    return s;
}

Index
kernelWorkItems(const KernelSpec &spec, int num_qubits)
{
    switch (spec.kind) {
      case KernelKind::Diag1q:
      case KernelKind::Diag2q:
      case KernelKind::DiagK:
        return stateSize(num_qubits);
      case KernelKind::Perm1q:
      case KernelKind::Dense1q:
        return stateSize(num_qubits - 1);
      case KernelKind::Ctrl1q:
        return stateSize(num_qubits -
                         static_cast<int>(spec.fixedSorted.size()));
      case KernelKind::Dense2q:
        return stateSize(num_qubits - 2);
      case KernelKind::DenseK:
        return stateSize(num_qubits -
                         static_cast<int>(spec.qubits.size()));
    }
    panicUnhandledKind(spec.kind);
}

int
kernelItemWidth(const KernelSpec &spec)
{
    switch (spec.kind) {
      case KernelKind::Diag1q:
      case KernelKind::Diag2q:
      case KernelKind::DiagK:
        return 1;
      case KernelKind::Perm1q:
      case KernelKind::Dense1q:
      case KernelKind::Ctrl1q:
        return 2;
      case KernelKind::Dense2q:
        return 4;
      case KernelKind::DenseK:
        return 1 << spec.qubits.size();
    }
    panicUnhandledKind(spec.kind);
}

void
applyKernel(const KernelSpec &spec, Amp *data, int num_qubits,
            Index begin, Index end)
{
    end = std::min(end, kernelWorkItems(spec, num_qubits));
    if (begin >= end)
        return;
    if (spec.tier == KernelTier::Fast)
        kernfast::dispatch(spec, data, num_qubits, begin, end);
    else
        exactKernels().dispatch(spec, data, num_qubits, begin, end);
}

const ExactKernels &
exactKernels()
{
    static const ExactKernels selected = [] {
#if defined(__x86_64__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            return ExactKernels{"avx2", kernavx2::scale, kernavx2::diag1,
                                kernavx2::diag2, kernavx2::dispatch};
#endif
        return ExactKernels{"sse2", kern::scale, kern::diag1,
                            kern::diag2, kern::dispatch};
    }();
    return selected;
}

void
recordKernelMetrics(KernelKind kind, Index amps)
{
    // Slots resolved once per kind: this runs per gate per sweep, from
    // every worker of a shot fan-out at once.
    struct KindSlots
    {
        CounterSlot *invocations;
        CounterSlot *amps;
    };
    constexpr int kKinds = static_cast<int>(KernelKind::DenseK) + 1;
    static const std::array<KindSlots, kKinds> slots = [] {
        auto &mr = MetricsRegistry::global();
        std::array<KindSlots, kKinds> table{};
        for (int k = 0; k < kKinds; ++k) {
            const std::string base =
                std::string("kernel.") +
                kernelKindName(static_cast<KernelKind>(k));
            table[k] = {&mr.counterSlot(base + ".invocations"),
                        &mr.counterSlot(base + ".amps")};
        }
        return table;
    }();
    const KindSlots &s = slots[static_cast<int>(kind)];
    s.invocations->add();
    s.amps->add(static_cast<double>(amps));
}

} // namespace qgpu
