// Runtime-dispatched SIMD word kernels for the TokenSet/TokenMatrix
// layer.
//
// Every hot bitset kernel (intersection popcounts, first-set scans,
// subset/intersects tests, the fused fresh-union apply of the simulator
// apply phase) exists in two bit-identical implementations:
//
//   scalar   portable uint64 loops — the reference semantics
//   avx2     256-bit paths (4 words/vector, pshufb-LUT popcounts)
//
// The active implementation is picked ONCE at first kernel use from
//   1. the set_simd_level() override (tests, benchmarks), else
//   2. the OCD_SIMD environment variable — "scalar" or "avx2",
//      validated exactly like OCD_JOBS: garbage or a level the host
//      cannot run throws ocd::Error naming the variable, else
//   3. avx2 when both the CPU (cpuid-probed) and this build (the
//      -mavx2 TU) support it, scalar otherwise.
//
// Dispatch is a single table pointer: callers go through kernels(),
// one acquire load + an indirect call.  All levels consume exactly
// num_words() whole words — vector loops use unaligned loads and hand
// the sub-vector remainder to scalar code, so no kernel ever reads
// past the word array (ASan-clean) and none needs alignment beyond
// alignof(uint64_t) (no aligned-load UB for UBSan to find).  Bits at
// index >= universe in the last word must be zero — the tail-word
// invariant token_set.hpp asserts in its mutation paths — which is
// what lets every level process whole words without masking.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "ocd/util/error.hpp"

namespace ocd::util::simd {

/// Dispatch levels, ordered: a higher level strictly requires more ISA.
enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// "scalar" / "avx2".
[[nodiscard]] const char* level_name(Level level) noexcept;

/// The word-kernel dispatch table.  One instance per implementation
/// level; all entries are bit-identical across levels (the contract the
/// differential fuzz suite in tests/util/token_matrix_test.cpp checks).
struct Kernels {
  /// popcount over n words.
  std::size_t (*count)(const std::uint64_t* a, std::size_t n);
  /// popcount of a & b over n words, nothing materialized.
  std::size_t (*count_intersection)(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n);
  /// (a & ~b) == 0 over n words.
  bool (*is_subset)(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n);
  /// (a & b) != 0 over n words.
  bool (*intersects)(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n);
  /// Smallest wi in [from, n) with (a[wi] & b[wi]) != 0, or n.  The
  /// word-skipping engine behind first_in_intersection and the sparse
  /// stretches of for_each_in_intersection.
  std::size_t (*first_and_word)(const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t from,
                                std::size_t n);
  /// Fused simulator-apply kernel: fresh = src & ~dst, dst |= src,
  /// returns popcount(fresh).  One pass over memory instead of the
  /// assign / subtract / count / or-assign four-pass sequence.
  std::size_t (*fresh_union_apply)(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::uint64_t* fresh, std::size_t n);
};

/// Highest level this host can actually run: min(cpuid support, levels
/// compiled into this binary).  Probed once, never throws.
[[nodiscard]] Level max_supported_level() noexcept;

/// Parses an OCD_SIMD-style value ("scalar" | "avx2").
/// Throws ocd::Error naming the variable for anything else.  Pure —
/// does not consult the CPU; resolution checks support separately.
[[nodiscard]] Level parse_level_value(const char* text);

/// The level the dispatch table currently resolves to (forcing
/// resolution, so this can throw on an invalid OCD_SIMD).
[[nodiscard]] Level active_level();

/// Programmatic override (tests, benchmarks): forces `level` for every
/// subsequent kernel call.  Throws ocd::Error when the host cannot run
/// it.  Takes precedence over OCD_SIMD until clear_simd_level().
void set_simd_level(Level level);

/// Clears the override, restoring OCD_SIMD / cpuid resolution.
void clear_simd_level();

namespace detail {

/// Null until first resolution; set_simd_level() / clear_simd_level()
/// re-resolve it.  Readers go through kernels().
extern std::atomic<const Kernels*> g_kernels;

/// Resolves override -> OCD_SIMD -> cpuid, publishes and returns the
/// table.  Throws ocd::Error on an invalid or unsupported OCD_SIMD.
const Kernels* resolve_kernels();

}  // namespace detail

/// The active dispatch table.  First call resolves (and may throw on a
/// bad OCD_SIMD); afterwards this is one atomic load.
inline const Kernels& kernels() {
  const Kernels* k = detail::g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) k = detail::resolve_kernels();
  return *k;
}

}  // namespace ocd::util::simd
