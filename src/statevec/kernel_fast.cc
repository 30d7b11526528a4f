/**
 * @file
 * Fast-tier kernels: kernel_body.inc compiled once more, inside
 * namespace kernfast. On x86-64 the build gives this file alone
 * -march=x86-64-v3 -mfma -ffp-contract=fast (see
 * src/statevec/CMakeLists.txt), and fastKernels() selects it when the
 * CPU reports x86-64-v3; elsewhere the Fast tier runs the exact copy.
 *
 * What differs is the code generation, not the algorithm: under
 * contraction GCC fuses each complex multiply-add's mul/add pairs into
 * vfmaddsub/vfmsubadd FMAs. Each fused step rounds once instead of
 * twice, so outputs differ from the exact tier by at most one ulp per
 * fused pair; the differential suites bound the end-to-end effect at
 * 1e-12.
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
namespace kernfast
{
#include "statevec/kernel_body.inc"
} // namespace kernfast
} // namespace qgpu
