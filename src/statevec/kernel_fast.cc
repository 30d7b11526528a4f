/**
 * @file
 * Fast-tier kernels: kernel_body.inc compiled a second time, inside
 * namespace kernfast, in a translation unit the build hands
 * -ffp-contract=fast plus the host's FMA/AVX-512 instruction sets
 * (CMake option QGPU_FAST_MATH) while the exact tier in
 * kernel_dispatch.cc keeps the bit-identity-preserving code
 * generation.
 *
 * The speedup comes from the code generation, not a different
 * algorithm: under contraction GCC fuses each complex multiply-add's
 * mul/add pairs into vfmaddsub/vfmsubadd FMAs. Each fused step rounds
 * once instead of twice, so outputs differ from the exact tier by at
 * most one ulp per fused pair; the differential suites bound the
 * end-to-end effect at 1e-12.
 *
 * If QGPU_FAST_MATH is OFF this file compiles under the default flags
 * and the Fast tier degenerates into a second exact tier (the 1e-12
 * contract holds trivially); fastMathCompiled() tells callers which
 * one they got.
 */

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{

bool
fastMathCompiled()
{
#ifdef QGPU_FAST_MATH_COMPILED
    return true;
#else
    return false;
#endif
}

namespace kernfast
{
#include "statevec/kernel_body.inc"
} // namespace kernfast

} // namespace qgpu
