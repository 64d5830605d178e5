#!/usr/bin/env bash
# Reproduce everything: build, run the test suite, run every figure and
# ablation bench, and archive outputs under ./results/.
#
#   scripts/reproduce_all.sh            # quick mode (seconds per bench)
#   OCD_FULL=1 scripts/reproduce_all.sh # the paper's full parameter sweep
#   OCD_SANITIZE=1 scripts/reproduce_all.sh # also run tests under ASan+UBSan
#   OCD_JOBS=8 scripts/reproduce_all.sh # worker threads per bench sweep
#                                       # (default: hardware concurrency)
#   OCD_BENCH_BASELINE=old/BENCH_planner.json scripts/reproduce_all.sh
#                                       # warn on >=20% planner-kernel
#                                       # regressions vs a prior snapshot
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast on a typo'd OCD_JOBS instead of hours into the sweep — the
# same validation the ocd::util parallel runtime applies in-process.
if [[ -n "${OCD_JOBS:-}" && ! "${OCD_JOBS}" =~ ^[1-9][0-9]*$ ]]; then
  echo "error: OCD_JOBS must be a positive integer, got '${OCD_JOBS}'" >&2
  exit 1
fi

cmake --preset default
cmake --build --preset default -j "$(nproc)"

if [[ -n "${OCD_SANITIZE:-}" ]]; then
  scripts/check_sanitizers.sh
fi

mkdir -p results
ctest --preset default 2>&1 | tee results/tests.txt

# Vertex-shard replay: re-run the shard-count-invariance differential
# suites on their own and archive the log, so the bit-identity gate
# (schedules and stats identical to sim::run at every tested shard
# count, with and without fault models) is visible at a glance rather
# than buried in the full suite output.
ctest --preset default \
  -R 'ShardDeterminism|ShardCoordinated' \
  --output-on-failure 2>&1 | tee results/shard_replay.txt

# Benchmarks are built separately at full optimisation (-O3 -DNDEBUG,
# the `release-bench` preset); tests stay on the default RelWithDebInfo
# build with assertions enabled.
cmake --preset release-bench
cmake --build --preset release-bench -j "$(nproc)"

for bench in build-bench/bench/*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name=$(basename "$bench")
  [[ "$name" == "micro_benchmarks" ]] && continue
  echo "== ${name} =="
  "$bench" | tee "results/${name}.txt"
done

# Planner-kernel, token-kernel, and shard-step micro-benchmarks:
# human-readable console output plus a machine-readable snapshot for
# scripts/compare_bench.py.
echo "== micro_benchmarks (planner + token kernels + shard steps) =="
build-bench/bench/micro_benchmarks \
  --benchmark_filter='PlannerStepsPerSec|TokenKernel|ShardStep|Partition' \
  --benchmark_out=results/BENCH_planner.json \
  --benchmark_out_format=json | tee results/micro_benchmarks.txt

# The regression gate refuses debug-build snapshots and insists the
# full planner grid is present — every family at the large 1000v/512t
# point, and `global` on the sparse 20k-vertex 8-token instance — so a
# silently dropped benchmark cannot pass unnoticed (a baseline recorded
# before the sparse rows existed fails that --require).  The
# /shards:N gates are --require-any: --allow-undersized-host keeps
# this gate usable on small CI boxes, where presence is still enforced
# but the vacuous contention comparison is skipped.  The scalar
# token-kernel families are likewise required unconditionally; the
# avx2/avx512 families only where this host can run them (elsewhere
# they are SkipWithError rows, which compare_bench.py excludes).
simd_requires=(--require 'TokenKernel/count_intersection_scalar/4096'
               --require 'TokenKernel/fresh_union_apply_scalar/4096')
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd_requires+=(--require 'TokenKernel/count_intersection_avx2/4096'
                  --require 'TokenKernel/fresh_union_apply_avx2/4096')
fi
if grep -qw avx512_vpopcntdq /proc/cpuinfo 2>/dev/null \
    && grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
  simd_requires+=(--require 'TokenKernel/count_intersection_avx512/4096')
fi
if [[ -n "${OCD_BENCH_BASELINE:-}" ]]; then
  python3 scripts/compare_bench.py "${OCD_BENCH_BASELINE}" \
    results/BENCH_planner.json \
    --allow-undersized-host \
    --require 'PlannerStepsPerSec/global/1000/512' \
    --require 'PlannerStepsPerSec/local/1000/512' \
    --require 'PlannerStepsPerSec/random/1000/512' \
    --require 'PlannerStepsPerSec/round_robin/1000/512' \
    --require 'PlannerStepsPerSec/bandwidth/1000/512' \
    --require 'PlannerStepsPerSec/global_sparse/20000/8' \
    --require-any 'ShardStep/round_robin/1000/512/shards:1' \
    --require-any 'ShardStep/round_robin/1000/512/shards:4' \
    --require-any 'ShardStep/local/1000/512/shards:4' \
    --require-any 'ShardStep/bandwidth/1000/512/shards:1' \
    --require-any 'ShardStep/bandwidth/1000/512/shards:4' \
    --require-any 'Partition/greedy/k:4' \
    --require-any 'Partition/flow/k:4' \
    --require-any 'Partition/flow/k:8' \
    "${simd_requires[@]}" ||
    echo "WARNING: planner kernel throughput regressed vs baseline."
fi

echo
echo "All outputs archived in results/."
