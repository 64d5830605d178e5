#include "ocd/util/rng.hpp"

#include <algorithm>

namespace ocd {

std::uint64_t Rng::below(std::uint64_t n) {
  OCD_EXPECTS(n > 0);
  // Lemire's nearly-divisionless method with rejection.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  OCD_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(below(span));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx;
  sample_indices_into(n, k, idx);
  return idx;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
                              std::vector<std::size_t>& out) {
  OCD_EXPECTS(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) setup, fine for the
  // sizes used in this library (n <= a few thousand).
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

Rng Rng::split() noexcept {
  Rng child(0);
  child.s_ = {next(), next(), next(), next()};
  // Guard against the all-zero state, which is a fixed point of xoshiro.
  if ((child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]) == 0) {
    child.s_[0] = 0x9e3779b97f4a7c15ULL;
  }
  return child;
}

}  // namespace ocd
