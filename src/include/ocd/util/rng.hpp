// Deterministic pseudo-random number generation.
//
// All randomized components of the library (topology generators, the
// Random/Local heuristics, workload builders) draw from ocd::Rng so that
// every experiment is reproducible from a single 64-bit seed.  The
// implementation is xoshiro256** seeded via SplitMix64, which is fast,
// has a tiny state, and is of far higher quality than std::minstd;
// unlike std::mt19937 its output is identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ocd/util/error.hpp"

namespace ocd {

/// SplitMix64: used to expand a single seed into xoshiro state, and
/// useful on its own for hashing.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive a stream seed from a base seed plus two coordinates (e.g.
/// (step, vertex) or (step, arc)).  Used wherever a randomized
/// component must draw the same values regardless of which shard or
/// thread evaluates it: instead of one sequential stream whose
/// consumption order depends on the execution schedule, each
/// coordinate pair gets an independent seed that any evaluator derives
/// identically.  Chained SplitMix64 finalizers keep the mapping
/// well-mixed in both coordinates.
inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                                 std::uint64_t b) noexcept {
  SplitMix64 s1(base);
  std::uint64_t x = s1.next();
  SplitMix64 s2(x ^ a);
  x = s2.next();
  SplitMix64 s3(x ^ b);
  return s3.next();
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator so it can
/// be used with <random> distributions if ever needed, but the member
/// helpers below are preferred (stable across platforms).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform in [0, n).  Requires n > 0.  Uses Lemire rejection to avoid
  /// modulo bias.
  std::uint64_t below(std::uint64_t n);

  /// Uniform real in [0, 1).
  double uniform_real() noexcept {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_real() < p;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// As sample_indices, but writes into `out` (left holding exactly the
  /// k samples) reusing its capacity — allocation-free once out has
  /// capacity n.  Draw sequence is identical to sample_indices.
  void sample_indices_into(std::size_t n, std::size_t k,
                           std::vector<std::size_t>& out);

  /// Derive an independent child generator; used to give each component
  /// (per heuristic, per repetition) its own stream.
  Rng split() noexcept;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace ocd
