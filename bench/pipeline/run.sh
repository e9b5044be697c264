#!/usr/bin/env bash
# Build and run the umon-pipeline benchmark from the repository root.
#
#   bash bench/pipeline/run.sh                      # all four workloads
#   bash bench/pipeline/run.sh --workload hadoop-ingest --seed 7 --seconds 10
#   bash bench/pipeline/run.sh --traced             # same, per-layer metrics
#
# Other arguments pass through to umon_pipeline_bench (see main.cpp). The
# build goes to build-bench/, configured from the product's own CMake
# project with hook.cmake injected, so the benchmark links the product's
# umon_* libraries with the product's flags. Build output goes to stderr;
# stdout carries only the metric lines and, last, the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

build=build-bench
workloads=(hadoop-ingest websearch-collector hadoop-query hadoop-chaos)

args=()
have_workload=0
while [ $# -gt 0 ]; do
  case "$1" in
    --traced) args+=(--trace 1) ;;
    --workload) have_workload=1; args+=("$1" "$2"); shift ;;
    *) args+=("$1") ;;
  esac
  shift
done

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
if ! grep -qs '^CMAKE_PROJECT_umon_INCLUDE' "$build/CMakeCache.txt"; then
  cmake -S . -B "$build" -DCMAKE_PROJECT_umon_INCLUDE="$here/hook.cmake" >&2
fi
cmake --build "$build" --target umon_pipeline_bench -j "$jobs" >&2

if [ "$have_workload" -eq 1 ]; then
  exec "$build/umon_pipeline_bench" "${args[@]}"
fi
status=0
for w in "${workloads[@]}"; do
  "$build/umon_pipeline_bench" --workload "$w" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
