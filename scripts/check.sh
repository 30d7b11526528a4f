#!/usr/bin/env bash
# One-command verify: configure, build with -Werror, run the tier-1
# test suite. This is the gate every PR must keep green (ROADMAP
# "Tier-1 verify").
#
# Usage: scripts/check.sh [--tsan] [--asan] [--fast-math]
#   --tsan         additionally build with -DQGPU_SANITIZE=thread (in
#                  its own build-tsan directory) and run the
#                  parallelism-focused tests under ThreadSanitizer
#   --asan         additionally build with -DQGPU_SANITIZE=address (in
#                  its own build-asan directory) and run the fault/
#                  integrity suites -- including the tier2 differential
#                  fuzz sweep -- under AddressSanitizer
#   --fast-math    additionally build with -DQGPU_FAST_MATH=ON (in its
#                  own build-check-fast directory, so the contracted
#                  kernel TU is actually compiled), assert via a smoke
#                  run that the fast tier is the compiled one rather
#                  than the exact fallback, and rerun the
#                  versions-differential / kernel-dispatch / precision
#                  / service-differential suites there with
#                  QGPU_FAST_MATH=1 so the 1e-12 accuracy contract is
#                  exercised end to end
#
# The default pass reruns the engine ledger and span checks at
# QGPU_SIM_THREADS=4, and rebuilds the kernel differential suite
# with -DQGPU_NATIVE=ON (build-check-native) and reruns it there, so the
# tolerance-0 specialized-vs-generic guarantee is checked under the
# vectorized -march=native code generation too, together with the
# engine work ledger (committed virtual times, counters and state
# digests, so virtual time and final states must match across builds)
# and the trace span checks.
#   BUILD_DIR=...  override the build directory (default build-check,
#                  kept separate from the default `build` so -Werror
#                  does not pollute incremental developer builds)
#   JOBS=...       override parallelism (default: all cores)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-check}"
JOBS="${JOBS:-$(nproc)}"

RUN_TSAN=0
RUN_ASAN=0
RUN_FAST_MATH=0
for arg in "$@"; do
    case "$arg" in
        --tsan) RUN_TSAN=1 ;;
        --asan) RUN_ASAN=1 ;;
        --fast-math) RUN_FAST_MATH=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Refuse to reuse a build directory whose cache was configured with
# different flags than this pass needs. A stale cache fails silently in
# the worst way: a build-tsan left over from a plain configure would
# "pass" every test without ThreadSanitizer instrumented, and a
# build-check-native carrying QGPU_NATIVE=OFF would re-certify the
# bit-identity contract against the exact same codegen it already ran.
require_cache() {
    local dir="$1" cache="$1/CMakeCache.txt" kv var want have
    shift
    [ -f "$cache" ] || return 0
    for kv in "$@"; do
        var="${kv%%=*}"
        want="${kv#*=}"
        have=$(sed -n "s/^${var}:[A-Z]*=//p" "$cache")
        if [ "$have" != "$want" ]; then
            echo "error: $dir is configured with ${var}='${have}' but" >&2
            echo "       this pass needs ${var}='${want}'. Delete the" >&2
            echo "       directory (rm -rf $dir) and rerun." >&2
            exit 2
        fi
    done
}

require_cache "$BUILD_DIR" "QGPU_SANITIZE=" "QGPU_NATIVE=OFF"
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"
# The engine ledger and span checks again at 4 host threads: the
# committed virtual times, counters and final-state digests must not
# depend on the worker count.
echo "== engine ledger at QGPU_SIM_THREADS=4 ($BUILD_DIR) =="
QGPU_SIM_THREADS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$JOBS" -R 'EngineLedger|EngineSpans'

if [ "$RUN_FAST_MATH" -eq 1 ]; then
    # A dedicated build: the contracted-FMA kernel TU only exists when
    # the tree is configured with -DQGPU_FAST_MATH=ON, so rerunning the
    # suites against the default build would silently exercise the
    # exact fallback and certify nothing. The smoke run pins this down
    # before any suite runs: the tiers banner must say
    # fast-math(compiled), i.e. fastMathCompiled() is true.
    FAST_DIR="${FAST_DIR:-build-check-fast}"
    echo "== fast-math tier pass (QGPU_FAST_MATH=ON, $FAST_DIR) =="
    require_cache "$FAST_DIR" "QGPU_FAST_MATH=ON" "QGPU_SANITIZE=" \
        "QGPU_NATIVE=OFF"
    cmake -B "$FAST_DIR" -S . -DQGPU_FAST_MATH=ON \
        -DCMAKE_CXX_FLAGS="-Werror"
    cmake --build "$FAST_DIR" -j "$JOBS" --target qgpu_sim_cli \
        test_differential test_kernel_dispatch test_precision_tiers \
        test_service_differential
    banner=$("$FAST_DIR"/examples/qgpu_sim --circuit bv --qubits 6 \
        --engine qgpu --fast-math | grep '^tiers:')
    case "$banner" in
        *'fast-math(compiled)'*) ;;
        *)
            echo "error: fast-math smoke run reports '$banner' --" >&2
            echo "       expected kernels=fast-math(compiled); the" >&2
            echo "       contracted kernel TU was not built." >&2
            exit 1 ;;
    esac
    # With the compiled tier proven present, force it on through the
    # environment: the versions-differential suite's cross-version
    # agreement plus the kernel-dispatch specialized-vs-generic and
    # precision-tier checks must hold within the documented fast-math
    # contract (DESIGN.md "Fast-math & precision tiers"). The service
    # differential rides along: its fresh reference run must take the
    # request's tier, not the environment's.
    QGPU_FAST_MATH=1 ctest --test-dir "$FAST_DIR" \
        --output-on-failure -j "$JOBS" \
        -R 'VersionsDifferential|KernelDispatch|Precision|ServiceDifferential'
fi

# Kernel differential suite again under -march=native: FMA contraction
# or wider vectors must not break the bit-identity contract
# (QGPU_NATIVE disables -ffp-contract, FMA3, and AVX-512 for exactly
# this reason -- GCC's complex-multiply vectorization pattern emits
# vfmaddsub through either set regardless of -ffp-contract).
NATIVE_DIR="${NATIVE_DIR:-build-check-native}"
echo "== QGPU_NATIVE kernel differential pass ($NATIVE_DIR) =="
require_cache "$NATIVE_DIR" "QGPU_NATIVE=ON" "QGPU_SANITIZE="
cmake -B "$NATIVE_DIR" -S . -DQGPU_NATIVE=ON
cmake --build "$NATIVE_DIR" -j "$JOBS" --target test_kernel_dispatch \
    test_sweep_executor test_shard_differential test_engine_ledger \
    test_engine_spans
# The sweep suite rides along: sweep execution chains kernels over a
# cache-resident chunk, so its bit-identity-to-gate-by-gate contract
# must also hold under the vectorized code generation. The shard
# differential (single- vs multi-device, tolerance 0) rides along for
# the same reason: its contract is bit-identity of the same kernels
# under a different schedule. The engine ledger compares against the
# fixture committed from the default build, so it asserts that this
# build reproduces every virtual time, counter and final state; the
# span checks ride along with it.
ctest --test-dir "$NATIVE_DIR" --output-on-failure -j "$JOBS" \
    -R 'KernelDispatch|Sweep|ShardDifferential|EngineLedger|EngineSpans|BaselineTimeline'

if [ "$RUN_TSAN" -eq 1 ]; then
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    echo "== ThreadSanitizer pass ($TSAN_DIR) =="
    require_cache "$TSAN_DIR" "QGPU_SANITIZE=thread"
    cmake -B "$TSAN_DIR" -S . -DQGPU_SANITIZE=thread
    cmake --build "$TSAN_DIR" -j "$JOBS" --target test_common \
        test_statevec test_compress test_thread_determinism \
        test_sweep_executor test_shard_differential test_service \
        test_batched_differential test_observability \
        test_chunk_storage test_storage_differential
    # The parallelism-focused suites: the pool itself, the pool-backed
    # parallelFor / threaded apply, the cross-thread determinism +
    # stress tests, the sweep executor (whose group fan-out chains
    # several kernels per worker), the shard differential (which
    # sweeps the same circuits single- and multi-threaded per device
    # count), the job-service suite (concurrent submissions,
    # cross-thread cache/single-flight traffic, and engine runs
    # multiplexed onto the shared pool), and the batched-shot
    # differential (noisy shots replayed at 1 and 4 host threads must
    # stay bit-identical while the shots fan out across the pool), and
    # the metrics registry (lock-free atomic slots updated from many
    # threads at once, by name and through cached references). The
    # GFC property tests fan a block's segments, or a lone segment's
    # element ranges, over the pool at 4 threads. The bounded-storage
    # suites run asynchronous refills: pool tasks decode into chunk
    # slots while the scheduling thread evicts other chunks.
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'ThreadPool|TaskGroup|SimThreads|ParallelFor|ThreadedApply|Determinism|Stress|Sweep|ShardDifferential|Service|ResultCache|Batched|Metrics|GfcProperties|ColdStoreRoundTrip|BoundedState|StorageDifferential'
fi

if [ "$RUN_ASAN" -eq 1 ]; then
    ASAN_DIR="${ASAN_DIR:-build-asan}"
    echo "== AddressSanitizer fault/fuzz pass ($ASAN_DIR) =="
    require_cache "$ASAN_DIR" "QGPU_SANITIZE=address"
    cmake -B "$ASAN_DIR" -S . -DQGPU_SANITIZE=address
    cmake --build "$ASAN_DIR" -j "$JOBS" --target test_fault \
        test_fault_fuzz test_compress test_engines \
        test_chunk_storage test_storage_differential \
        test_storage_fuzz test_noise test_noise_fuzz \
        test_batched_differential
    # The fault-injection surface: the unit suite, the long tier2
    # differential fuzz sweep (50 seeds x every engine version x three
    # prune modes, recovery must be bit-identical or a structured
    # SimError), the codec property tests the sidecar leans on, and
    # the engine edge cases. The bounded-storage suites ride along:
    # eviction, spill-file I/O, codec retry, and the storage fuzz leg
    # (codec/alloc faults armed during eviction and refill) all
    # shuffle heap buffers, which is exactly what ASan watches. The
    # noise suites join for the same reason: shot batches allocate a
    # fresh chunked state per shot and the tier2 noise fuzz sweeps
    # every version x prune mode with sampled gate insertion (plus a
    # fault-on-top-of-noise leg).
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'Checksum|FaultSpec|FaultInjector|SimError|GuardedTransfer|FaultSmoke|FaultFuzz|GfcProperties|EdgeCases|ColdStoreRoundTrip|BoundedState|StorageDifferential|StorageFuzz|Noise|Batched'
fi
