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
#                  fuzz sweep -- under AddressSanitizer, plus the kernel,
#                  sweep and shard differential suites, the span checks
#                  and the engine ledger, whose committed digests must
#                  hold under this second code generation
#   --fast-math    additionally rerun the versions-differential /
#                  kernel-dispatch / precision / service-differential
#                  suites with QGPU_FAST_MATH=1, so the 1e-12 accuracy
#                  contract is exercised end to end, and the engine
#                  ledger, whose runs pin the exact tier
#
# The default pass checks the code generation of the AVX2 exact and
# x86-64-v3 fast kernel copies (x86-64) and reruns the engine ledger
# and span checks at QGPU_SIM_THREADS=4. The engine ledger holds
# committed virtual times, counters and final-state digests, so every
# leg that runs it checks that its build reproduces them.
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
# "pass" every test without ThreadSanitizer instrumented.
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

require_cache "$BUILD_DIR" "QGPU_SANITIZE="
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"
# The kernel copies' code generation. The exact tier's AVX2 copy stays
# bit-identical to the baseline copy only without FMA: GCC's
# complex-multiply pattern emits vfmaddsub whenever FMA3 or AVX-512 is
# on, whatever -ffp-contract says. It must use ymm registers, or it is
# no wider than the baseline. The fast copy must contract into FMA and
# stay within x86-64-v3: no zmm or mask register, or it faults on
# hosts without AVX-512. Neither may define a weak symbol: the linker
# may keep that instance of a template or inline function for every
# caller, exact-tier code on an older host included.
if [ "$(uname -m)" = x86_64 ]; then
    echo "== kernel copy code generation ($BUILD_DIR) =="
    obj_dir="$BUILD_DIR/src/statevec/CMakeFiles/qgpu_statevec.dir"
    codegen() { # object, then: fma ymm wide weak
        local asm
        asm=$(objdump -d --no-show-raw-insn "$1")
        echo "$(grep -cE '\svfn?m(add|sub)' <<<"$asm")" \
             "$(grep -c 'ymm' <<<"$asm")" \
             "$(grep -cE 'zmm|%k[0-7]' <<<"$asm")" \
             "$(nm --defined-only "$1" | awk '$2 == "W"' | wc -l)"
    }
    read -r fma ymm wide weak < <(codegen "$obj_dir/kernel_avx2.cc.o")
    if [ "$fma" -ne 0 ] || [ "$ymm" -eq 0 ] || [ "$weak" -ne 0 ]; then
        echo "error: kernel_avx2.cc.o has $fma FMA instructions (want" >&2
        echo "       0), $ymm ymm uses (want > 0), $weak weak symbols" >&2
        echo "       (want 0)" >&2
        exit 1
    fi
    echo "ok: kernel_avx2.cc.o: $ymm ymm uses, no FMA, no weak symbols"
    read -r fma ymm wide weak < <(codegen "$obj_dir/kernel_fast.cc.o")
    if [ "$fma" -eq 0 ] || [ "$wide" -ne 0 ] || [ "$weak" -ne 0 ]; then
        echo "error: kernel_fast.cc.o has $fma FMA instructions (want" >&2
        echo "       > 0), $wide zmm or mask-register uses (want 0)," >&2
        echo "       $weak weak symbols (want 0)" >&2
        exit 1
    fi
    echo "ok: kernel_fast.cc.o: $fma FMA, no zmm or mask register," \
         "no weak symbols"
fi
# The engine ledger and span checks again at 4 host threads: the
# committed virtual times, counters and final-state digests must not
# depend on the worker count.
echo "== engine ledger at QGPU_SIM_THREADS=4 ($BUILD_DIR) =="
QGPU_SIM_THREADS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$JOBS" -R 'EngineLedger|EngineSpans'

if [ "$RUN_FAST_MATH" -eq 1 ]; then
    # The fast tier forced on through the environment: the
    # versions-differential suite's cross-version agreement plus the
    # kernel-dispatch and precision-tier checks must hold within the
    # documented fast-math contract (DESIGN.md "Fast-math & precision
    # tiers"). The service differential rides along: its fresh
    # reference run must take the request's tier, not the
    # environment's. So does the engine ledger, whose runs pin
    # fastMath = false: the environment default must not leak into
    # them.
    echo "== fast-math tier pass (QGPU_FAST_MATH=1, $BUILD_DIR) =="
    QGPU_FAST_MATH=1 ctest --test-dir "$BUILD_DIR" \
        --output-on-failure -j "$JOBS" \
        -R 'VersionsDifferential|KernelDispatch|Precision|ServiceDifferential|EngineLedger'
fi

if [ "$RUN_TSAN" -eq 1 ]; then
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    echo "== ThreadSanitizer pass ($TSAN_DIR) =="
    require_cache "$TSAN_DIR" "QGPU_SANITIZE=thread"
    cmake -B "$TSAN_DIR" -S . -DQGPU_SANITIZE=thread
    cmake --build "$TSAN_DIR" -j "$JOBS" --target test_common \
        test_statevec test_compress test_thread_determinism \
        test_sweep_executor test_shard_differential test_service \
        test_batched_differential test_observability \
        test_chunk_storage test_storage_differential test_engine_ledger
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
    # slots while the scheduling thread evicts other chunks. The
    # engine ledger's committed digests must hold in this build too.
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'ThreadPool|TaskGroup|SimThreads|ParallelFor|ThreadedApply|Determinism|Stress|Sweep|ShardDifferential|Service|ResultCache|Batched|Metrics|GfcProperties|ColdStoreRoundTrip|BoundedState|StorageDifferential|EngineLedger'
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
        test_batched_differential test_kernel_dispatch test_engine_ledger \
        test_sweep_executor test_shard_differential test_engine_spans
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
    # fault-on-top-of-noise leg). The kernel, sweep and shard
    # differential suites check the kernels' buffer bounds and their
    # tolerance-0 contracts under this second code generation; the
    # engine ledger's digests, committed from the default build, must
    # hold here, and the span checks ride along with it.
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'Checksum|FaultSpec|FaultInjector|SimError|GuardedTransfer|FaultSmoke|FaultFuzz|GfcProperties|EdgeCases|ColdStoreRoundTrip|BoundedState|StorageDifferential|StorageFuzz|Noise|Batched|KernelDispatch|Sweep|ShardDifferential|EngineSpans|BaselineTimeline|EngineLedger'
fi
