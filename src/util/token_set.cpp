#include "ocd/util/token_set.hpp"

#include <sstream>

namespace ocd {

TokenSet TokenSet::full(std::size_t universe) {
  TokenSet s(universe);
  if (universe == 0) return s;
  for (auto& w : s.words_) w = ~0ULL;
  // Mask off bits beyond the universe in the last word: every kernel
  // (scalar or vectorized) iterates whole words and relies on the tail
  // bits staying zero.
  const unsigned rem = universe % 64;
  if (rem != 0) s.words_.back() = (1ULL << rem) - 1;
  TokenSetView(s).assert_tail_zero();
  return s;
}

TokenSet TokenSet::of(std::size_t universe,
                      std::initializer_list<TokenId> ids) {
  TokenSet s(universe);
  for (TokenId t : ids) s.set(t);
  return s;
}

void MutableTokenSetView::truncate(std::size_t k) const {
  std::uint64_t* words = mut();
  std::size_t seen = 0;
  for (std::size_t wi = 0, e = num_words(); wi < e; ++wi) {
    const auto in_word =
        static_cast<std::size_t>(__builtin_popcountll(words[wi]));
    if (seen + in_word <= k) {
      seen += in_word;
      continue;
    }
    // Keep only the lowest (k - seen) bits of this word, zero the rest.
    std::uint64_t w = words[wi];
    std::uint64_t kept = 0;
    for (std::size_t need = k - seen; need > 0; --need) {
      const std::uint64_t lowest = w & (~w + 1);
      kept |= lowest;
      w &= w - 1;
    }
    words[wi] = kept;
    for (std::size_t wj = wi + 1; wj < e; ++wj) words[wj] = 0;
    assert_tail_zero();
    return;
  }
}

void TokenSet::truncate(std::size_t k) { MutableTokenSetView(*this).truncate(k); }

std::string TokenSetView::to_string() const {
  std::ostringstream out;
  out << '{';
  bool first_item = true;
  for_each([&](TokenId t) {
    if (!first_item) out << ',';
    out << t;
    first_item = false;
  });
  out << '}';
  return out.str();
}

std::string TokenSet::to_string() const {
  return TokenSetView(*this).to_string();
}

std::size_t TokenSet::hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ universe_;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace ocd
