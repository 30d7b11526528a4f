/**
 * @file
 * Exact-tier kernels at AVX2 width: kernel_body.inc compiled a third
 * time, inside namespace kernavx2. On x86-64 the build gives this file
 * alone -O3 -mavx2 with FMA, AVX-512 and contraction off (see
 * src/statevec/CMakeLists.txt), and exactKernels() selects it when
 * the CPU reports AVX2.
 *
 * The vector width changes, the arithmetic does not: every amplitude
 * goes through the same IEEE multiplies and adds, in the same order,
 * as in kern::, so results are bit-identical to it for finite
 * amplitudes. -O3 is what makes the width pay: GCC 12 at -O2 uses the
 * very-cheap vectorizer cost model, which leaves these loops scalar.
 *
 * On other architectures the file compiles under the default flags
 * and is never selected.
 */

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{
namespace kernavx2
{
#include "statevec/kernel_body.inc"
} // namespace kernavx2
} // namespace qgpu
