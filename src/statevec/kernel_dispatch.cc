#include "statevec/kernel_dispatch.hh"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "statevec/kernels.hh"

namespace qgpu
{

namespace
{

/**
 * Complex multiply on components. For finite operands this is exactly
 * what std::complex operator* computes (the NaN-recovery fixup of
 * __muldc3 never fires), so kernels built from cmul stay bit-identical
 * to the generic path while avoiding its per-multiply branch.
 */
inline Amp
cmul(const Amp &a, const Amp &b)
{
    return Amp{a.real() * b.real() - a.imag() * b.imag(),
               a.real() * b.imag() + a.imag() * b.real()};
}

// Written from test/bench/engine setup code; read in makeKernelSpec,
// which runs outside the parallel kernel loops. Atomic (relaxed)
// because the service layer runs several engines concurrently:
// ExecutionEngine::run only touches the tier when it actually has to
// flip it, but a job opting in while another run is in flight must
// not be a data race. Interleaved runs that NEED different tiers are
// still a logical conflict — the service admits only jobs matching
// its process-wide tier (see service/scheduler.hh).
std::atomic<KernelTier> g_kernel_tier{KernelTier::Exact};

} // namespace

KernelTier
kernelTier()
{
    return g_kernel_tier.load(std::memory_order_relaxed);
}

void
setKernelTier(KernelTier tier)
{
    g_kernel_tier.store(tier, std::memory_order_relaxed);
}

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

namespace kern
{

void
scale(Amp *data, Amp f, Index begin, Index end)
{
    for (Index i = begin; i < end; ++i)
        data[i] = cmul(data[i], f);
}

void
diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end)
{
    if (t == 0) {
        for (Index i = begin; i < end; ++i)
            data[i] = cmul(data[i], (i & 1) ? d1 : d0);
        return;
    }
    // Within a run of 2^t amplitudes the selector bit is constant:
    // multiply each run by one constant in a stride-1 loop.
    const Index run = Index{1} << t;
    Index i = begin;
    while (i < end) {
        const Index blk_end = std::min(end, (i | (run - 1)) + 1);
        const Amp f = ((i >> t) & 1) ? d1 : d0;
        for (; i < blk_end; ++i)
            data[i] = cmul(data[i], f);
    }
}

void
diag2(Amp *data, int t_lo, int t_hi, const Amp *lut, Index begin,
      Index end)
{
    if (t_lo == 0) {
        for (Index i = begin; i < end; ++i) {
            const int sel = static_cast<int>(i & 1) |
                            (static_cast<int>((i >> t_hi) & 1) << 1);
            data[i] = cmul(data[i], lut[sel]);
        }
        return;
    }
    const Index run = Index{1} << t_lo;
    Index i = begin;
    while (i < end) {
        const Index blk_end = std::min(end, (i | (run - 1)) + 1);
        const int sel = static_cast<int>((i >> t_lo) & 1) |
                        (static_cast<int>((i >> t_hi) & 1) << 1);
        const Amp f = lut[sel];
        for (; i < blk_end; ++i)
            data[i] = cmul(data[i], f);
    }
}

void
diagK(Amp *data, const std::vector<int> &qubits, const GateMatrix &m,
      Index begin, Index end)
{
    const int k = static_cast<int>(qubits.size());
    for (Index i = begin; i < end; ++i) {
        int sel = 0;
        for (int j = 0; j < k; ++j)
            sel |= static_cast<int>(bits::testBit(i, qubits[j])) << j;
        data[i] = cmul(data[i], m.at(sel, sel));
    }
}

void
dense1(Amp *data, int t, const Amp *m, Index begin, Index end)
{
    const Amp m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
    if (t == 0) {
        for (Index p = begin; p < end; ++p) {
            Amp *a = data + 2 * p;
            const Amp a0 = a[0], a1 = a[1];
            a[0] = cmul(m00, a0) + cmul(m01, a1);
            a[1] = cmul(m10, a0) + cmul(m11, a1);
        }
        return;
    }
    // Pair index p = (block << t) | j: the |0> element sits at
    // (block << (t+1)) + j, its partner one stride of 2^t above.
    // The inner j loop is stride-1 over a contiguous run.
    const Index run = Index{1} << t;
    Index p = begin;
    while (p < end) {
        const Index blk_end = std::min(end, (p | (run - 1)) + 1);
        Amp *base = data + ((p >> t) << (t + 1));
        Index j = p & (run - 1);
        for (; p < blk_end; ++p, ++j) {
            const Amp a0 = base[j], a1 = base[j + run];
            base[j] = cmul(m00, a0) + cmul(m01, a1);
            base[j + run] = cmul(m10, a0) + cmul(m11, a1);
        }
    }
}

void
perm1(Amp *data, int t, Amp m01, Amp m10, Index begin, Index end)
{
    if (t == 0) {
        for (Index p = begin; p < end; ++p) {
            Amp *a = data + 2 * p;
            const Amp a0 = a[0], a1 = a[1];
            a[0] = cmul(m01, a1);
            a[1] = cmul(m10, a0);
        }
        return;
    }
    const Index run = Index{1} << t;
    Index p = begin;
    while (p < end) {
        const Index blk_end = std::min(end, (p | (run - 1)) + 1);
        Amp *base = data + ((p >> t) << (t + 1));
        Index j = p & (run - 1);
        for (; p < blk_end; ++p, ++j) {
            const Amp a0 = base[j], a1 = base[j + run];
            base[j] = cmul(m01, a1);
            base[j + run] = cmul(m10, a0);
        }
    }
}

void
ctrl1(Amp *data, int t, const std::vector<int> &fixed_sorted,
      Index cmask, const Amp *m, Index begin, Index end)
{
    const Amp m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
    const Index tbit = Index{1} << t;
    const int low = fixed_sorted.front();
    if (low == 0) {
        for (Index w = begin; w < end; ++w) {
            const Index i0 =
                bits::insertZeroBits(w, fixed_sorted) | cmask;
            const Amp a0 = data[i0], a1 = data[i0 | tbit];
            data[i0] = cmul(m00, a0) + cmul(m01, a1);
            data[i0 | tbit] = cmul(m10, a0) + cmul(m11, a1);
        }
        return;
    }
    // Work bits below the lowest fixed bit pass through insertZeroBits
    // unchanged, so they index a stride-1 inner run.
    const Index run = Index{1} << low;
    Index w = begin;
    while (w < end) {
        const Index blk_end = std::min(end, (w | (run - 1)) + 1);
        Amp *base =
            data +
            (bits::insertZeroBits(w & ~(run - 1), fixed_sorted) |
             cmask);
        Index j = w & (run - 1);
        for (; w < blk_end; ++w, ++j) {
            const Amp a0 = base[j], a1 = base[j + tbit];
            base[j] = cmul(m00, a0) + cmul(m01, a1);
            base[j + tbit] = cmul(m10, a0) + cmul(m11, a1);
        }
    }
}

void
dense2(Amp *data, int q0, int q1, const Amp *m, Index begin,
       Index end)
{
    const int tl = std::min(q0, q1), th = std::max(q0, q1);
    const Index o0 = Index{1} << q0, o1 = Index{1} << q1;

    // Mirrors the generic applyK accumulation (zero-initialized sum,
    // columns ascending) so results stay bit-identical.
    auto update = [&](Amp *a) {
        const Amp in[4] = {a[0], a[o0], a[o1], a[o0 + o1]};
        Amp out[4];
        for (int r = 0; r < 4; ++r) {
            Amp sum{0, 0};
            for (int c = 0; c < 4; ++c)
                sum += cmul(m[4 * r + c], in[c]);
            out[r] = sum;
        }
        a[0] = out[0];
        a[o0] = out[1];
        a[o1] = out[2];
        a[o0 + o1] = out[3];
    };

    if (tl == 0) {
        for (Index g = begin; g < end; ++g)
            update(data +
                   bits::insertZeroBit(bits::insertZeroBit(g, tl),
                                       th));
        return;
    }
    const Index run = Index{1} << tl;
    Index g = begin;
    while (g < end) {
        const Index blk_end = std::min(end, (g | (run - 1)) + 1);
        Amp *base =
            data + bits::insertZeroBit(
                       bits::insertZeroBit(g & ~(run - 1), tl), th);
        Index j = g & (run - 1);
        for (; g < blk_end; ++g, ++j)
            update(base + j);
    }
}

} // namespace kern

KernelSpec
makeKernelSpec(const Gate &gate)
{
    KernelSpec s;
    s.tier = kernelTier();
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
    QGPU_PANIC("unhandled kernel kind");
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
    QGPU_PANIC("unhandled kernel kind");
}

void
applyKernel(const KernelSpec &spec, Amp *data, int num_qubits,
            Index begin, Index end)
{
    end = std::min(end, kernelWorkItems(spec, num_qubits));
    if (begin >= end)
        return;
    if (spec.tier == KernelTier::Fast) {
        kernfast::applyKernelFast(spec, data, num_qubits, begin, end);
        return;
    }
    switch (spec.kind) {
      case KernelKind::Diag1q:
        kern::diag1(data, spec.target, spec.m1[0], spec.m1[1], begin,
                    end);
        return;
      case KernelKind::Diag2q:
        kern::diag2(data, spec.tLo, spec.tHi, spec.lut, begin, end);
        return;
      case KernelKind::DiagK:
        kern::diagK(data, spec.qubits, spec.matrix, begin, end);
        return;
      case KernelKind::Perm1q:
        kern::perm1(data, spec.target, spec.m1[1], spec.m1[2], begin,
                    end);
        return;
      case KernelKind::Ctrl1q:
        kern::ctrl1(data, spec.target, spec.fixedSorted,
                    spec.ctrlMask, spec.m1, begin, end);
        return;
      case KernelKind::Dense1q:
        kern::dense1(data, spec.target, spec.m1, begin, end);
        return;
      case KernelKind::Dense2q:
        kern::dense2(data, spec.qubits[0], spec.qubits[1],
                     spec.matrix.data().data(), begin, end);
        return;
      case KernelKind::DenseK:
        kernels::applyK([data](Index i) -> Amp & { return data[i]; },
                        num_qubits, spec.qubits, spec.matrix, begin,
                        end);
        return;
    }
    QGPU_PANIC("unhandled kernel kind");
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
