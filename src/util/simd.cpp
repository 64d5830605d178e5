// SIMD dispatch resolution plus the scalar reference kernels.
//
// The scalar table is the semantics the AVX2 table must match
// bit-for-bit; it is also the fallback for non-x86 builds and hosts
// without AVX2, and the OCD_SIMD=scalar escape hatch.
#include "ocd/util/simd.hpp"

#include <cstdlib>
#include <mutex>
#include <string>

#include "simd_internal.hpp"

namespace ocd::util::simd {
namespace {

// ---- scalar reference kernels --------------------------------------

std::size_t scalar_count(const std::uint64_t* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(__builtin_popcountll(a[i]));
  return total;
}

std::size_t scalar_count_intersection(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  return total;
}

bool scalar_is_subset(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] & ~b[i]) != 0) return false;
  return true;
}

bool scalar_intersects(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] & b[i]) != 0) return true;
  return false;
}

std::size_t scalar_first_and_word(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t from,
                                  std::size_t n) {
  for (std::size_t i = from; i < n; ++i)
    if ((a[i] & b[i]) != 0) return i;
  return n;
}

std::size_t scalar_fresh_union_apply(std::uint64_t* dst,
                                     const std::uint64_t* src,
                                     std::uint64_t* fresh, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t f = src[i] & ~dst[i];
    fresh[i] = f;
    dst[i] |= src[i];
    total += static_cast<std::size_t>(__builtin_popcountll(f));
  }
  return total;
}

constexpr Kernels kScalarKernels = {
    scalar_count,
    scalar_count_intersection,
    scalar_is_subset,
    scalar_intersects,
    scalar_first_and_word,
    scalar_fresh_union_apply,
};

// ---- probe + resolution --------------------------------------------

/// cpuid-probed AND compiled-in.  A level is usable only when both the
/// host CPU advertises the ISA and the matching TU was built with it.
Level probe_max_level() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2") && detail::avx2_kernels() != nullptr)
    return Level::kAvx2;
#endif
  return Level::kScalar;
}

const Kernels* table_for(Level level) noexcept {
  return level == Level::kAvx2 ? detail::avx2_kernels() : &kScalarKernels;
}

std::mutex g_resolve_mutex;
// -1 = no override; otherwise a Level already validated by
// set_simd_level.  Guarded by g_resolve_mutex for writes.
std::atomic<int> g_override{-1};
std::atomic<int> g_active{-1};

void require_supported(Level level, const std::string& origin) {
  if (level > max_supported_level()) {
    throw Error(origin + " requests " + level_name(level) +
                ", but this host supports at most " +
                level_name(max_supported_level()) +
                " (cpu features and build flags both count)");
  }
}

}  // namespace

const char* level_name(Level level) noexcept {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

Level max_supported_level() noexcept {
  static const Level level = probe_max_level();
  return level;
}

Level parse_level_value(const char* text) {
  const std::string value = text == nullptr ? "" : text;
  if (value == "scalar") return Level::kScalar;
  if (value == "avx2") return Level::kAvx2;
  throw Error("OCD_SIMD must be one of scalar/avx2, got '" + value + "'");
}

Level active_level() {
  kernels();  // force resolution
  return static_cast<Level>(g_active.load(std::memory_order_acquire));
}

void set_simd_level(Level level) {
  require_supported(level, "set_simd_level");
  const std::lock_guard<std::mutex> lock(g_resolve_mutex);
  g_override.store(static_cast<int>(level), std::memory_order_release);
  g_active.store(static_cast<int>(level), std::memory_order_release);
  detail::g_kernels.store(table_for(level), std::memory_order_release);
}

void clear_simd_level() {
  const std::lock_guard<std::mutex> lock(g_resolve_mutex);
  g_override.store(-1, std::memory_order_release);
  detail::g_kernels.store(nullptr, std::memory_order_release);
  g_active.store(-1, std::memory_order_release);
}

namespace detail {

std::atomic<const Kernels*> g_kernels{nullptr};

const Kernels* resolve_kernels() {
  const std::lock_guard<std::mutex> lock(g_resolve_mutex);
  if (const Kernels* k = g_kernels.load(std::memory_order_acquire)) return k;
  Level level;
  const int override_level = g_override.load(std::memory_order_acquire);
  if (override_level >= 0) {
    level = static_cast<Level>(override_level);
  } else if (const char* env = std::getenv("OCD_SIMD")) {
    level = parse_level_value(env);
    require_supported(level, "OCD_SIMD");
  } else {
    level = max_supported_level();
  }
  const Kernels* table = table_for(level);
  g_active.store(static_cast<int>(level), std::memory_order_release);
  g_kernels.store(table, std::memory_order_release);
  return table;
}

}  // namespace detail

}  // namespace ocd::util::simd
