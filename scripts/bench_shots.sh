#!/usr/bin/env bash
# Build (if needed) and run the shot-batching bench, producing
# BENCH_shots.json in the repo root: for every circuit family, 1024
# noisy shots through the full Q-GPU engine per-shot (naive baseline,
# serial) vs shared-schedule replay (shots fanned out across all
# hardware threads), with the speedup and batch counters per row. See
# bench/bench_shots.cc for the JSON schema.
#
# Usage: scripts/bench_shots.sh [extra bench_shots args...]
#   BUILD_DIR=...  override the build directory (default build)
#   OUT=...        override the output path (default BENCH_shots.json)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_shots.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_shots \
    >/dev/null

"$BUILD_DIR/bench/bench_shots" "$OUT" "$@"
