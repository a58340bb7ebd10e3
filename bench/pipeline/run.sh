#!/usr/bin/env bash
# Builds bench_pipeline from source and runs it.
#
#   bench/pipeline/run.sh --workload NAME [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
#       One workload in one process. The last line of standard output is the
#       run's result JSON: {"correct", "attempted", "failed", "metrics"}.
#
#   bench/pipeline/run.sh [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
#       Every workload, each in its own process (so set-up time and peak RSS
#       are per workload). Prints "workload metric value unit" lines and
#       writes DIR/run-seed<S>[-trace].json, the input of compare.py: per
#       workload the result JSON and the numeric lines.
#
#   --smoke runs every workload (or NAME) on one 20-node data center.
#
# The build goes to build-bench/ at the repo root; per-run files (op times,
# and for traced runs the Chrome trace, telemetry JSON and span ledger) go
# to DIR, build-bench/results by default. Exits non-zero when a build fails,
# a run fails, or a run's plan digest differs from digests.txt.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"
workloads=(fig6-150 plan-300 des-storm-300 fault-drift-150)

workload="" seed=1 seconds=20 trace=0 out="$build/results" smoke=()
value() {
  if [ $# -lt 2 ]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
}
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) value "$@"; workload=$2; shift 2 ;;
    --seed) value "$@"; seed=$2; shift 2 ;;
    --seconds) value "$@"; seconds=$2; shift 2 ;;
    --out) value "$@"; out=$2; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace=$2; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); seconds=0.5; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: library sources not found under $root/src" >&2
  exit 2
fi
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4
{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$jobs"
} >&2
mkdir -p "$out"

args=(--seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
      "${smoke[@]}")
if [ -n "$workload" ]; then
  exec "$build/bench_pipeline" --workload "$workload" "${args[@]}"
fi
bench() { "$build/bench_pipeline" --workload "$1" "${args[@]}"; }

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
suffix=""
[ "$trace" = 1 ] && suffix="-trace"
results="$out/run-seed$seed$suffix.json"
json="{\"seed\": $seed, \"trace\": $trace, \"seconds\": $seconds, \"nproc\": $(nproc), \"commit\": \"$commit\", \"workloads\": {"
sep="" status=0
for w in "${workloads[@]}"; do
  output=$(bench "$w") || status=1
  result=$(printf '%s\n' "$output" | tail -n 1)
  case "$result" in
    "{"*) printf '%s\n' "$output" | sed '$d' ;;
    *) printf '%s\n' "$output"; result=null; status=1 ;;
  esac
  lines=$(printf '%s\n' "$output" | awk -v w="$w" '
    $1 == w && NF == 4 && $3 ~ /^-?[0-9][0-9.e+-]*$/ {
      printf "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep, $2, $3, $4
      sep = ", "
    }')
  json+="$sep\"$w\": {\"result\": $result, \"lines\": {$lines}}"
  sep=", "
done
printf '%s}}\n' "$json" > "$results"
echo "wrote $results" >&2
exit "$status"
