#!/usr/bin/env bash
# Build the full tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (the `asan-ubsan` CMake preset, which also defines _GLIBCXX_ASSERTIONS
# so that libstdc++ bounds-checks container indexing) and run the tier-1
# test suite under it, then rebuild the test suite with ThreadSanitizer
# (the `tsan` preset) and run the threaded sweep-harness tests under
# that.  Any sanitizer report or failed assertion fails the run.
#
#   scripts/check_sanitizers.sh             # configure + build + ctest
#   OCD_SAN_FILTER='Simulator*' scripts/check_sanitizers.sh  # ASan subset
#   OCD_TSAN_FILTER='SweepGrid*' scripts/check_sanitizers.sh # TSan subset
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest_args=(--preset asan-ubsan -j "$(nproc)")
if [[ -n "${OCD_SAN_FILTER:-}" ]]; then
  ctest_args+=(-R "${OCD_SAN_FILTER}")
fi
ctest "${ctest_args[@]}"

# SIMD kernel differential pass: the vectorized token kernels promise
# bit-identity with scalar AND sanitizer-cleanliness (unaligned loads
# only, scalar tails, never a byte past num_words).  The fuzz +
# dispatch + planner-replay suites run with OCD_SIMD forced to scalar
# and, on hosts with AVX2, again to avx2, so ASan/UBSan see both
# dispatch tables actually run — the default auto-resolution above only
# exercises one.  The shell probe mirrors the C++ cpuid probe.
simd_levels=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  simd_levels+=(avx2)
fi
for level in "${simd_levels[@]}"; do
  echo "== SIMD differential pass: OCD_SIMD=${level} =="
  OCD_SIMD="${level}" ctest --preset asan-ubsan -j "$(nproc)" \
    -R 'Simd|TokenMatrix|TokenSet'
done

# ThreadSanitizer pass: all intentionally concurrent code sits on the
# ocd::util parallel runtime — the Parallel suite drives the pool
# primitives directly, Determinism replays whole planner/fault runs
# under OCD_JOBS in {1,2,8} (a run never fans out, so any budget must
# give the same schedule), and SweepGrid drives run_grid, including a
# full (policy x seed) grid of run_policy calls, so any shared mutable
# state in the planners shows up here.  FaultSweep runs the lossy
# fig_loss workload shape (fault models + reliable adapters) on the
# same pool.  The vertex-shard runtime rides the same pool, and its
# concurrent regions are the plan fan-out — every shard plans from the
# one shared step view into its own policy and plan — and bandwidth's
# elect/absorb pair, where after the pool barrier every shard reads
# its peers' elected slices in place: ShardDeterminism replays the
# local planners (and every planner under OCD_JOBS in {1, 2, 8})
# against single-process runs, ShardCoordinated replays the
# coordinated planner's token-sliced elections, and ShardPartition
# covers the partitioner; `Shard` selects every one of these
# suites.  The flat-memory suites ride along: TokenMatrix
# / SnapshotRing exercise the view kernels and snapshot ring
# (view-lifetime bugs are ASan's bread and butter, caught in the pass
# above), and AllocCount re-checks the zero-allocation steady state
# with the sanitizer allocators interposed.  OCD_JOBS=8 is forced so
# every primitive actually fans out — with the hardware default a
# small CI box would run the whole pass serially and the races TSan
# exists to catch would never execute.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target ocd_tests ocd_alloc_tests

export TSAN_OPTIONS="halt_on_error=1"
OCD_JOBS=8 ctest --preset tsan -j "$(nproc)" \
  -R "${OCD_TSAN_FILTER:-Parallel|Determinism|SweepGrid|FaultSweep|TokenMatrix|SnapshotRing|AllocCount|MaxFlow|Shard}"

echo "Sanitizer run clean."
