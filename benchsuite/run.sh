#!/usr/bin/env bash
# Build the benchmark driver (qgpu_bench) from source and run the suite.
#
#   bash benchsuite/run.sh                  every workload, end-to-end metrics
#   bash benchsuite/run.sh --traced         every workload, traced run
#                                           (per-layer metrics, span files
#                                           in benchsuite/out/)
#   bash benchsuite/run.sh --workload NAME [--seed N] [--seconds S]
#                          [--trace 0|1]    one run; the last line of its
#                                           output is the JSON result
#   bash benchsuite/run.sh --record DIR [--seeds 1,2,3]
#                                           every workload once per seed,
#                                           one result file per run in DIR
#                                           (compare two sets with agree.py)
#   --smoke                                 tiny inputs, for a quick check
#
# Builds into .bench_build/benchsuite at the repository root. Build
# output goes to stderr, so standard output carries only the runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/benchsuite"
out="$here/out"
all_workloads=(paper_versions multi_device large_state bounded_storage
               noisy_shots service_mix)

workload=""
seed=1
seconds=12
trace=0
smoke=()
record=""
seeds="1"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --smoke) smoke=(--smoke); shift ;;
        --record) record="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        -h|--help) sed -n '2,19p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target qgpu_bench -j "$(nproc)" >&2

# Provenance: the commit, when this tree is a git checkout of its own.
commit="unknown"
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]
then
    commit="$(git -C "$root" rev-parse HEAD)"
    if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]
    then
        commit="$commit+dirty"
    fi
fi
mkdir -p "$out"

run_one() { # workload seed [result-file]
    local args=(--workload "$1" --seed "$2" --seconds "$seconds"
                --trace "$trace" --trace-dir "$out" --commit "$commit")
    args+=(${smoke[@]+"${smoke[@]}"})
    if [ -n "${3:-}" ]; then
        args+=(--result "$3")
    fi
    "$build/qgpu_bench" "${args[@]}"
}

if [ -n "$record" ]; then
    mkdir -p "$record"
    for s in ${seeds//,/ }; do
        for w in "${all_workloads[@]}"; do
            run_one "$w" "$s" "$record/$w-seed$s-trace$trace.json"
        done
    done
elif [ -n "$workload" ]; then
    run_one "$workload" "$seed"
else
    for w in "${all_workloads[@]}"; do
        run_one "$w" "$seed"
    done
fi
