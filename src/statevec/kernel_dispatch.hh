/**
 * @file
 * Specialized, vectorization-friendly gate-kernel dispatch.
 *
 * Every gate is classified once into a KernelKind and carried as a
 * KernelSpec (small matrices copied out of the GateMatrix, targets
 * pre-sorted, control masks precomputed). Application then runs a
 * dedicated kernel over a contiguous Amp array with strided inner
 * loops the compiler can vectorize — stride-1 pair loops for low
 * targets, blocked two-level loops for high targets — instead of the
 * generic accessor-indirected dense matvec in kernels.hh.
 *
 * The kernels are written once, in kernel_body.inc, and compiled
 * three times: kern:: and kernavx2:: are the exact tier at baseline
 * and AVX2 width (exactKernels() picks one per process), kernfast::
 * the fast-math tier (see KernelTier). kernels.hh remains the
 * reference implementation; the differential suite
 * (tests/test_kernel_dispatch.cc) asserts every exact-tier kernel is
 * bit-identical (tolerance 0) to it, and the two exact copies to each
 * other. All kernels take a [begin, end) range in the kind's work-item
 * space so parallel callers can split freely; any split yields the
 * same result as one full-range call.
 *
 * Per-kind invocation/amplitude counters are published to
 * MetricsRegistry under "kernel.<kind>.invocations" and
 * "kernel.<kind>.amps" by the apply layers (once per gate, so the
 * hot loops never touch the registry mutex).
 */

#ifndef QGPU_STATEVEC_KERNEL_DISPATCH_HH
#define QGPU_STATEVEC_KERNEL_DISPATCH_HH

#include <vector>

#include "common/types.hh"
#include "qc/gate.hh"

namespace qgpu
{

/**
 * Kernel classes in dispatch order. Diagonal kinds touch each
 * amplitude once; Perm1q moves amplitude pairs without mixing;
 * Ctrl1q touches only the pairs whose control bits are all set;
 * the dense kinds run the full matvec at fixed, unrolled width.
 */
enum class KernelKind
{
    Diag1q,  ///< 1q diagonal (Z, S, T, RZ, P, diagonal 1q Custom)
    Diag2q,  ///< 2q diagonal (CZ, CP, CRZ, RZZ, diagonal 2q Custom)
    DiagK,   ///< k>=3 diagonal (CCZ, fused diagonal Custom)
    Perm1q,  ///< 1q anti-diagonal / X-like (X, Y)
    Ctrl1q,  ///< controlled 1q with dense target block (CX, CY, CCX)
    Dense1q, ///< dense 1q (H, SX, RX, RY, U, dense 1q Custom)
    Dense2q, ///< dense 2q (SWAP, RXX, RYY, dense 2q Custom)
    DenseK,  ///< dense k>=3 (CSWAP, fused dense Custom)
};

inline constexpr int numKernelKinds = 8;

/** Short lower-case kind mnemonic ("diag1q", "ctrl1q", ...). */
const char *kernelKindName(KernelKind kind);

/**
 * Panic on a kind outside the enum. Out of line, so the kernel copies
 * built for wider instruction sets emit no message-formatting code the
 * linker could pick for the whole program.
 */
[[noreturn]] void panicUnhandledKind(KernelKind kind);

/**
 * Execution tier a spec is lowered for. The kernels are written once,
 * in kernel_body.inc. @c Exact runs the copy exactKernels() selected
 * (kern:: or kernavx2::), bit-identical (tolerance 0) to kernels.hh
 * for finite amplitudes. @c Fast runs the kernfast::
 * compilation (kernel_fast.cc, -ffp-contract=fast and the host's
 * FMA/AVX-512 sets under CMake option QGPU_FAST_MATH): same
 * arithmetic, contracted rounding, accuracy-bounded at 1e-12 against
 * Exact by the differential suites.
 *
 * The tier is a per-run value, never a process global: engines pass
 * ExecOptions::fastMath down to makeKernelSpec, so runs on different
 * tiers can share one process. Direct kernel users — including the
 * tolerance-0 differential suites — get Exact unless they ask.
 */
enum class KernelTier
{
    Exact,
    Fast,
};

/**
 * True when kernel_fast.cc was compiled with the fast-math flag set
 * (QGPU_FAST_MATH=ON). When false the Fast tier still dispatches to
 * kernfast::, which then compiles under the default flags and meets
 * the 1e-12 contract trivially.
 */
bool fastMathCompiled();

/**
 * A gate lowered to its kernel class: targets pre-sorted, control
 * mask precomputed, and the (small) matrix copied into inline
 * storage. Built once per gate with makeKernelSpec, then applied to
 * any number of chunks/ranges.
 */
struct KernelSpec
{
    KernelKind kind = KernelKind::DenseK;

    /** Gate qubits in matrix order (matrix index bit j <-> qubits[j]). */
    std::vector<int> qubits;

    /** Single target (1q kinds and Ctrl1q). */
    int target = -1;

    /** Sorted targets for Diag2q / Dense2q (tLo < tHi). */
    int tLo = -1, tHi = -1;

    /** Ctrl1q: controls+target ascending, and the control bit mask. */
    std::vector<int> fixedSorted;
    Index ctrlMask = 0;

    /**
     * 1q matrix storage: row-major 2x2 for Dense1q/Perm1q/Ctrl1q,
     * {d0, d1} diagonal entries for Diag1q.
     */
    Amp m1[4] = {};

    /** Diag2q lookup indexed by bit(tLo) | bit(tHi) << 1. */
    Amp lut[4] = {};

    /** Full matrix for Dense2q / DenseK / DiagK. */
    GateMatrix matrix{2};

    /** Tier the spec was lowered for (makeKernelSpec's argument). */
    KernelTier tier = KernelTier::Exact;
};

/** Classify @p gate and lower it to a KernelSpec for @p tier (once
 *  per gate). */
KernelSpec makeKernelSpec(const Gate &gate,
                          KernelTier tier = KernelTier::Exact);

/**
 * Number of independent work items applyKernel iterates for this
 * spec on an n-qubit register: amplitudes for diagonal kinds, pairs
 * for 1q kinds, control-satisfying pairs for Ctrl1q, groups for the
 * dense kinds. Parallel callers split [0, this) into ranges.
 */
Index kernelWorkItems(const KernelSpec &spec, int num_qubits);

/** Amplitudes written per work item (1, 2, or the matvec width). */
int kernelItemWidth(const KernelSpec &spec);

/**
 * Apply the spec'd gate to the contiguous n-qubit register at
 * @p data, over work items [begin, end), through the kernels of
 * spec.tier. On the Exact tier this is bit-identical to
 * kernels::applyGate on the same range for finite amplitudes.
 */
void applyKernel(const KernelSpec &spec, Amp *data, int num_qubits,
                 Index begin = 0, Index end = ~Index{0});

/**
 * Publish one gate application's per-kind counters:
 * kernel.<kind>.invocations += 1, kernel.<kind>.amps += @p amps.
 * Callers pass the number of amplitudes actually written.
 */
void recordKernelMetrics(KernelKind kind, Index amps);

/**
 * Exact-tier kernels at baseline width (kernel_body.inc compiled in
 * kernel_dispatch.cc under the default flags: SSE2 on x86-64), the
 * fallback on hosts without AVX2. The diagonal ones are exposed for
 * the chunked diagonal path, which folds chunk-global selector bits
 * into the LUT before calling. Ranges are in each kernel's own
 * work-item space, as in applyKernel.
 */
namespace kern
{

/** amp[i] *= f over amplitude indices [begin, end). */
void scale(Amp *data, Amp f, Index begin, Index end);

/** 1q diagonal: amp[i] *= d[bit(i, t)] over amplitudes [begin, end). */
void diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end);

/**
 * 2q diagonal over amplitudes [begin, end): amp[i] *=
 * lut[bit(i, t_lo) | bit(i, t_hi) << 1], with t_lo < t_hi.
 */
void diag2(Amp *data, int t_lo, int t_hi, const Amp *lut,
           Index begin, Index end);

/**
 * applyKernel's switch without the range clamp: run the spec's kind
 * over work items [begin, end), which must lie within
 * kernelWorkItems(spec, num_qubits). Ignores spec.tier.
 */
void dispatch(const KernelSpec &spec, Amp *data, int num_qubits,
              Index begin, Index end);

} // namespace kern

/**
 * The exact-tier kernels compiled in kernel_avx2.cc at AVX2 width
 * (x86-64: -O3 -mavx2, FMA, AVX-512 and contraction off). Same
 * operations in the same order as kern::, so bit-identical to it for
 * finite amplitudes. Only run them where exactKernels() selected them
 * or the CPU otherwise reports AVX2.
 */
namespace kernavx2
{

void scale(Amp *data, Amp f, Index begin, Index end);
void diag1(Amp *data, int t, Amp d0, Amp d1, Index begin, Index end);
void diag2(Amp *data, int t_lo, int t_hi, const Amp *lut,
           Index begin, Index end);
void dispatch(const KernelSpec &spec, Amp *data, int num_qubits,
              Index begin, Index end);

} // namespace kernavx2

/**
 * The exact-tier entries this process runs, chosen once on first use:
 * kernavx2:: when the CPU reports AVX2, kern:: otherwise. Every
 * exact-tier kernel call goes through it (applyKernel and the chunked
 * diagonal path).
 */
struct ExactKernels
{
    /** Instruction set of the selected copy: "avx2" or "sse2". */
    const char *isa;
    decltype(&kern::scale) scale;
    decltype(&kern::diag1) diag1;
    decltype(&kern::diag2) diag2;
    decltype(&kern::dispatch) dispatch;
};

/** The selected exact-tier copy (probes the CPU on the first call). */
const ExactKernels &exactKernels();

/**
 * The same kernels compiled in kernel_fast.cc under the fast-math
 * flags (see KernelTier). Only the dispatch entry is exposed.
 */
namespace kernfast
{

/** kern::dispatch, fast-tier compilation. */
void dispatch(const KernelSpec &spec, Amp *data, int num_qubits,
              Index begin, Index end);

} // namespace kernfast

} // namespace qgpu

#endif // QGPU_STATEVEC_KERNEL_DISPATCH_HH
