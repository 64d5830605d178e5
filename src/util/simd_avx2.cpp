// AVX2 word kernels: 4 x uint64 per 256-bit vector, unaligned loads
// only (TokenMatrix rows are alignof(uint64_t)), sub-vector remainders
// handled by scalar code so no load ever touches words past num_words.
// Popcounts use the pshufb nibble-LUT + psadbw reduction; emptiness
// tests use vptest for early exit.  This TU is compiled with -mavx2 —
// when the toolchain/arch cannot do that, it degrades to a nullptr
// table and the resolver never selects the level.
#include "simd_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ocd::util::simd::detail {
namespace {

inline __m256i load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Per-lane popcount: 4 x uint64 partial sums (nibble LUT via pshufb,
/// byte sums folded with psadbw).
inline __m256i popcount_lanes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::size_t horizontal_sum(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::size_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
}

std::size_t avx2_count(const std::uint64_t* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_epi64(acc, popcount_lanes(load(a + i)));
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(__builtin_popcountll(a[i]));
  return total;
}

std::size_t avx2_count_intersection(const std::uint64_t* a,
                                    const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i both = _mm256_and_si256(load(a + i), load(b + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(both));
  }
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  return total;
}

bool avx2_is_subset(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vptest CF: (~b & a) == 0, i.e. a's block is a subset of b's.
    if (!_mm256_testc_si256(load(b + i), load(a + i))) return false;
  }
  for (; i < n; ++i)
    if ((a[i] & ~b[i]) != 0) return false;
  return true;
}

bool avx2_intersects(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // vptest ZF: (a & b) == 0 for the whole block.
    if (!_mm256_testz_si256(load(a + i), load(b + i))) return true;
  }
  for (; i < n; ++i)
    if ((a[i] & b[i]) != 0) return true;
  return false;
}

std::size_t avx2_first_and_word(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t from, std::size_t n) {
  std::size_t i = from;
  for (; i + 4 <= n; i += 4) {
    const __m256i both = _mm256_and_si256(load(a + i), load(b + i));
    if (_mm256_testz_si256(both, both)) continue;
    for (std::size_t j = i; j < i + 4; ++j)
      if ((a[j] & b[j]) != 0) return j;
  }
  for (; i < n; ++i)
    if ((a[i] & b[i]) != 0) return i;
  return n;
}

std::size_t avx2_fresh_union_apply(std::uint64_t* dst,
                                   const std::uint64_t* src,
                                   std::uint64_t* fresh, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vd = load(dst + i);
    const __m256i vs = load(src + i);
    const __m256i vf = _mm256_andnot_si256(vd, vs);  // src & ~dst
    store(fresh + i, vf);
    store(dst + i, _mm256_or_si256(vd, vs));
    acc = _mm256_add_epi64(acc, popcount_lanes(vf));
  }
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i) {
    const std::uint64_t f = src[i] & ~dst[i];
    fresh[i] = f;
    dst[i] |= src[i];
    total += static_cast<std::size_t>(__builtin_popcountll(f));
  }
  return total;
}

constexpr Kernels kAvx2Kernels = {
    avx2_count,
    avx2_count_intersection,
    avx2_is_subset,
    avx2_intersects,
    avx2_first_and_word,
    avx2_fresh_union_apply,
};

}  // namespace

const Kernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace ocd::util::simd::detail

#else  // !__AVX2__

namespace ocd::util::simd::detail {

const Kernels* avx2_kernels() noexcept { return nullptr; }

}  // namespace ocd::util::simd::detail

#endif
