// TokenSet: a fixed-universe dynamic bitset over token ids, plus the
// non-owning TokenSetView / MutableTokenSetView span types that share
// its word-level kernel API.
//
// Possession sets p_i(v), have/want sets, per-arc send sets and all
// aggregate vectors in the simulator are token sets.  The universe size
// m (|T|) is fixed at construction; all binary operations require equal
// universes, which is enforced with contract checks.
//
// The views exist for the flat-memory hot path: a TokenMatrix (see
// ocd/util/token_matrix.hpp) stores every per-vertex bitset row-major
// in one contiguous buffer, and hands out views onto its rows.  A view
// is two words (pointer + universe); every kernel — count, first/next,
// for_each, the intersection kernels — is implemented once on views,
// and TokenSet delegates to them.  A TokenSet converts implicitly to a
// TokenSetView, so every kernel accepts either representation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "ocd/util/error.hpp"
#include "ocd/util/simd.hpp"

namespace ocd {

using TokenId = std::int32_t;

class TokenSet;

/// Read-only view of a token set: a borrowed span of 64-bit words plus
/// the universe size.  The referee storage must outlive the view and
/// hold (universe + 63) / 64 words.
class TokenSetView {
 public:
  constexpr TokenSetView() noexcept = default;
  constexpr TokenSetView(const std::uint64_t* words,
                         std::size_t universe) noexcept
      : words_(words), universe_(universe) {}
  /// Implicit: any TokenSet can be passed where a view is expected.
  TokenSetView(const TokenSet& set) noexcept;  // NOLINT(runtime/explicit)

  [[nodiscard]] constexpr std::size_t universe_size() const noexcept {
    return universe_;
  }
  [[nodiscard]] constexpr std::size_t num_words() const noexcept {
    return (universe_ + 63) / 64;
  }

  [[nodiscard]] bool test(TokenId t) const {
    OCD_EXPECTS(in_universe(t));
    return (words_[word_of(t)] >> bit_of(t)) & 1ULL;
  }

  /// Number of tokens in the set.
  [[nodiscard]] std::size_t count() const {
    return util::simd::kernels().count(words_, num_words());
  }

  [[nodiscard]] bool empty() const noexcept {
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      if (words_[wi] != 0) return false;
    return true;
  }
  [[nodiscard]] bool any() const noexcept { return !empty(); }

  /// True when every token of this set is also in `other`.
  [[nodiscard]] bool is_subset_of(TokenSetView other) const {
    check_same_universe(other);
    return util::simd::kernels().is_subset(words_, other.words_, num_words());
  }

  [[nodiscard]] bool intersects(TokenSetView other) const {
    check_same_universe(other);
    return util::simd::kernels().intersects(words_, other.words_, num_words());
  }

  /// Smallest token id in the set, or -1 when empty.
  [[nodiscard]] TokenId first() const noexcept {
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi) {
      if (words_[wi] != 0) {
        return static_cast<TokenId>(
            wi * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[wi])));
      }
    }
    return -1;
  }

  /// Smallest token id >= t in the set, or -1 when none.
  [[nodiscard]] TokenId next(TokenId t) const {
    if (t < 0) t = 0;
    if (static_cast<std::size_t>(t) >= universe_) return -1;
    std::size_t wi = word_of(t);
    const std::size_t e = num_words();
    std::uint64_t w = words_[wi] & (~0ULL << bit_of(t));
    while (true) {
      if (w != 0) {
        return static_cast<TokenId>(
            wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
      }
      if (++wi >= e) return -1;
      w = words_[wi];
    }
  }

  /// Smallest token id >= t in the set wrapping around the universe
  /// (circular scan), or -1 when the set is empty.  Used by the
  /// round-robin heuristic.
  [[nodiscard]] TokenId next_circular(TokenId t) const {
    if (universe_ == 0) return -1;
    if (t < 0 || static_cast<std::size_t>(t) >= universe_) t = 0;
    const TokenId found = next(t);
    if (found >= 0) return found;
    return first();
  }

  /// Invokes fn(TokenId) for every member in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        fn(static_cast<TokenId>(wi * 64 + static_cast<std::size_t>(b)));
        w &= w - 1;
      }
    }
  }

  /// Smallest id present in both sets, or -1 when the intersection is
  /// empty.  Word-parallel; neither set is materialized.
  [[nodiscard]] static TokenId first_in_intersection(TokenSetView a,
                                                     TokenSetView b) {
    a.check_same_universe(b);
    const std::size_t e = a.num_words();
    const std::size_t wi =
        util::simd::kernels().first_and_word(a.words_, b.words_, 0, e);
    if (wi >= e) return -1;
    return static_cast<TokenId>(
        wi * 64 + static_cast<std::size_t>(
                      __builtin_ctzll(a.words_[wi] & b.words_[wi])));
  }

  /// |a & b| without materializing the intersection.
  [[nodiscard]] static std::size_t count_intersection(TokenSetView a,
                                                      TokenSetView b) {
    a.check_same_universe(b);
    return util::simd::kernels().count_intersection(a.words_, b.words_,
                                                    a.num_words());
  }

  /// Masked-word iteration: invokes fn for every id of a & b in
  /// increasing order.  fn may return void, or bool to stop early
  /// (false = stop).  Returns false iff the iteration was stopped.
  /// Nonzero masked words are consumed bit by bit exactly as before;
  /// runs of zero masked words are skipped through the vectorized
  /// first_and_word kernel, so dense iterations pay no dispatch cost
  /// and sparse ones scan whole vectors at a time.
  template <typename Fn>
  static bool for_each_in_intersection(TokenSetView a, TokenSetView b,
                                       Fn&& fn) {
    a.check_same_universe(b);
    const std::size_t e = a.num_words();
    for (std::size_t wi = 0; wi < e; ++wi) {
      std::uint64_t w = a.words_[wi] & b.words_[wi];
      if (w == 0) {
        wi = util::simd::kernels().first_and_word(a.words_, b.words_, wi + 1,
                                                  e);
        if (wi >= e) break;
        w = a.words_[wi] & b.words_[wi];
      }
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        const auto t =
            static_cast<TokenId>(wi * 64 + static_cast<std::size_t>(bit));
        if constexpr (std::is_invocable_r_v<bool, Fn&, TokenId>) {
          if (!fn(t)) return false;
        } else {
          fn(t);
        }
        w &= w - 1;
      }
    }
    return true;
  }

  /// Members as a vector, in increasing order.
  [[nodiscard]] std::vector<TokenId> to_vector() const {
    std::vector<TokenId> out;
    out.reserve(count());
    for_each([&](TokenId t) { out.push_back(t); });
    return out;
  }

  /// Members appended into `out` (cleared first; capacity is reused).
  void to_vector_into(std::vector<TokenId>& out) const {
    out.clear();
    for_each([&](TokenId t) { out.push_back(t); });
  }

  /// "{0,3,7}" rendering for diagnostics.
  [[nodiscard]] std::string to_string() const;

  /// Raw word access (read-only) for bulk algorithms.
  [[nodiscard]] const std::uint64_t* words_data() const noexcept {
    return words_;
  }
  [[nodiscard]] std::uint64_t word(std::size_t wi) const noexcept {
    return words_[wi];
  }

  /// Mask of the valid bits in the last word (all ones when the
  /// universe is a multiple of 64).
  [[nodiscard]] constexpr std::uint64_t tail_mask() const noexcept {
    const unsigned rem = static_cast<unsigned>(universe_ % 64);
    return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  }

  /// Tail-word invariant: bits at index >= universe in the last word
  /// are zero.  Every kernel — scalar and vectorized alike — iterates
  /// whole words, so popcounts and scans are only correct under this
  /// invariant.  Mutation paths assert it after any word-level write;
  /// callers of mutable_words() that fill or complement raw words must
  /// re-establish it (mask with tail_mask()) before using any kernel.
  void assert_tail_zero() const {
    OCD_ASSERT_MSG(
        universe_ == 0 || (words_[num_words() - 1] & ~tail_mask()) == 0,
        "tail bits past the universe must stay zero");
  }

  friend bool operator==(TokenSetView a, TokenSetView b) noexcept {
    if (a.universe_ != b.universe_) return false;
    for (std::size_t wi = 0, e = a.num_words(); wi < e; ++wi)
      if (a.words_[wi] != b.words_[wi]) return false;
    return true;
  }

 protected:
  [[nodiscard]] bool in_universe(TokenId t) const noexcept {
    return t >= 0 && static_cast<std::size_t>(t) < universe_;
  }
  static std::size_t word_of(TokenId t) noexcept {
    return static_cast<std::size_t>(t) / 64;
  }
  static unsigned bit_of(TokenId t) noexcept {
    return static_cast<unsigned>(t) % 64;
  }
  void check_same_universe(TokenSetView other) const {
    OCD_EXPECTS(universe_ == other.universe_);
  }

  const std::uint64_t* words_ = nullptr;
  std::size_t universe_ = 0;
};

/// Mutable view of a token set (e.g. a TokenMatrix row).  Mutating
/// methods are const in the span sense: the view itself is a cheap
/// handle; constness of the referee is decided at construction.
class MutableTokenSetView : public TokenSetView {
 public:
  constexpr MutableTokenSetView() noexcept = default;
  constexpr MutableTokenSetView(std::uint64_t* words,
                                std::size_t universe) noexcept
      : TokenSetView(words, universe) {}
  /// Implicit: any mutable TokenSet can be passed where a mutable view
  /// is expected.
  MutableTokenSetView(TokenSet& set) noexcept;  // NOLINT(runtime/explicit)

  void set(TokenId t) const {
    OCD_EXPECTS(in_universe(t));
    mut()[word_of(t)] |= 1ULL << bit_of(t);
  }

  void reset(TokenId t) const {
    OCD_EXPECTS(in_universe(t));
    mut()[word_of(t)] &= ~(1ULL << bit_of(t));
  }

  void clear() const noexcept {
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi) mut()[wi] = 0;
  }

  /// Same-universe overwrite.
  void assign(TokenSetView other) const {
    check_same_universe(other);
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      mut()[wi] = other.word(wi);
    assert_tail_zero();
  }

  const MutableTokenSetView& operator|=(TokenSetView other) const {
    check_same_universe(other);
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      mut()[wi] |= other.word(wi);
    assert_tail_zero();
    return *this;
  }

  const MutableTokenSetView& operator&=(TokenSetView other) const {
    check_same_universe(other);
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      mut()[wi] &= other.word(wi);
    return *this;
  }

  /// Set difference: removes every token of `other`.
  const MutableTokenSetView& operator-=(TokenSetView other) const {
    check_same_universe(other);
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      mut()[wi] &= ~other.word(wi);
    return *this;
  }

  const MutableTokenSetView& operator^=(TokenSetView other) const {
    check_same_universe(other);
    for (std::size_t wi = 0, e = num_words(); wi < e; ++wi)
      mut()[wi] ^= other.word(wi);
    assert_tail_zero();
    return *this;
  }

  /// Fused simulator-apply kernel: in one pass over memory,
  ///   fresh = src - dst (set difference), dst |= src,
  /// returning |fresh| — the tokens of `src` genuinely new to `dst`.
  /// Equivalent to the assign / subtract / count / or-assign sequence
  /// the apply phase used to issue, at a quarter of the word traffic.
  /// All three views must share a universe.
  static std::size_t apply_fresh_union(MutableTokenSetView dst,
                                       TokenSetView src,
                                       MutableTokenSetView fresh) {
    dst.check_same_universe(src);
    dst.check_same_universe(fresh);
    const std::size_t n = util::simd::kernels().fresh_union_apply(
        dst.mut(), src.words_data(), fresh.mut(), dst.num_words());
    dst.assert_tail_zero();
    return n;
  }

  /// apply_fresh_union that additionally folds the fresh set into an
  /// accumulator: uni |= fresh.  The shard runtime's apply phase keeps
  /// the union of an owned vertex's fresh deliveries for its delta.
  static std::size_t apply_fresh_union_merge(MutableTokenSetView dst,
                                             MutableTokenSetView uni,
                                             TokenSetView src,
                                             MutableTokenSetView fresh) {
    dst.check_same_universe(src);
    dst.check_same_universe(fresh);
    dst.check_same_universe(uni);
    const std::size_t n = util::simd::kernels().fresh_union_apply_merge(
        dst.mut(), uni.mut(), src.words_data(), fresh.mut(), dst.num_words());
    dst.assert_tail_zero();
    return n;
  }

  [[nodiscard]] std::uint64_t* mutable_words() const noexcept { return mut(); }

 private:
  // The pointer was taken from mutable storage at construction, so the
  // cast only restores what the base class type erased.
  [[nodiscard]] std::uint64_t* mut() const noexcept {
    return const_cast<std::uint64_t*>(words_);
  }
};

class TokenSet {
 public:
  /// Empty set over an empty universe.
  TokenSet() = default;

  /// Empty set over a universe of `universe` tokens (ids 0..universe-1).
  explicit TokenSet(std::size_t universe)
      : universe_(universe), words_((universe + 63) / 64, 0) {}

  /// Owning copy of a view's contents.
  explicit TokenSet(TokenSetView view)
      : universe_(view.universe_size()),
        words_(view.words_data(), view.words_data() + view.num_words()) {}

  /// Full set over a universe of `universe` tokens.
  static TokenSet full(std::size_t universe);

  /// Set containing exactly the listed tokens.
  static TokenSet of(std::size_t universe, std::initializer_list<TokenId> ids);

  [[nodiscard]] std::size_t universe_size() const noexcept { return universe_; }

  [[nodiscard]] bool test(TokenId t) const {
    OCD_EXPECTS(in_universe(t));
    return (words_[word_of(t)] >> bit_of(t)) & 1ULL;
  }

  void set(TokenId t) {
    OCD_EXPECTS(in_universe(t));
    words_[word_of(t)] |= 1ULL << bit_of(t);
  }

  void reset(TokenId t) {
    OCD_EXPECTS(in_universe(t));
    words_[word_of(t)] &= ~(1ULL << bit_of(t));
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Overwrites this set with the view's contents, adopting its
  /// universe.  Reuses the existing word storage when it is large
  /// enough — the allocation-free path the simulator hot loop uses.
  TokenSet& assign(TokenSetView view) {
    universe_ = view.universe_size();
    words_.assign(view.words_data(), view.words_data() + view.num_words());
    return *this;
  }

  /// Number of tokens in the set.
  [[nodiscard]] std::size_t count() const {
    return TokenSetView(*this).count();
  }

  [[nodiscard]] bool empty() const noexcept {
    return TokenSetView(*this).empty();
  }
  [[nodiscard]] bool any() const noexcept { return !empty(); }

  /// True when every token of this set is also in `other`.
  [[nodiscard]] bool is_subset_of(TokenSetView other) const {
    return TokenSetView(*this).is_subset_of(other);
  }

  [[nodiscard]] bool intersects(TokenSetView other) const {
    return TokenSetView(*this).intersects(other);
  }

  TokenSet& operator|=(TokenSetView other) {
    MutableTokenSetView(*this) |= other;
    return *this;
  }
  TokenSet& operator&=(TokenSetView other) {
    MutableTokenSetView(*this) &= other;
    return *this;
  }
  /// Set difference: removes every token of `other`.
  TokenSet& operator-=(TokenSetView other) {
    MutableTokenSetView(*this) -= other;
    return *this;
  }
  TokenSet& operator^=(TokenSetView other) {
    MutableTokenSetView(*this) ^= other;
    return *this;
  }

  friend TokenSet operator|(TokenSet a, TokenSetView b) { return a |= b; }
  friend TokenSet operator&(TokenSet a, TokenSetView b) { return a &= b; }
  friend TokenSet operator-(TokenSet a, TokenSetView b) { return a -= b; }
  friend TokenSet operator^(TokenSet a, TokenSetView b) { return a ^= b; }

  bool operator==(const TokenSet& other) const = default;

  /// Smallest token id in the set, or -1 when empty.
  [[nodiscard]] TokenId first() const noexcept {
    return TokenSetView(*this).first();
  }

  /// Smallest token id >= t in the set, or -1 when none.
  [[nodiscard]] TokenId next(TokenId t) const {
    return TokenSetView(*this).next(t);
  }

  /// Smallest token id >= t in the set wrapping around the universe
  /// (circular scan), or -1 when the set is empty.  Used by the
  /// round-robin heuristic.
  [[nodiscard]] TokenId next_circular(TokenId t) const {
    return TokenSetView(*this).next_circular(t);
  }

  /// Invokes fn(TokenId) for every member in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    TokenSetView(*this).for_each(std::forward<Fn>(fn));
  }

  /// Smallest id present in both sets, or -1 when the intersection is
  /// empty.  Word-parallel; neither set is materialized.
  [[nodiscard]] static TokenId first_in_intersection(TokenSetView a,
                                                     TokenSetView b) {
    return TokenSetView::first_in_intersection(a, b);
  }

  /// |a & b| without materializing the intersection.
  [[nodiscard]] static std::size_t count_intersection(TokenSetView a,
                                                      TokenSetView b) {
    return TokenSetView::count_intersection(a, b);
  }

  /// Masked-word iteration: invokes fn for every id of a & b in
  /// increasing order.  fn may return void, or bool to stop early
  /// (false = stop).  Returns false iff the iteration was stopped.
  template <typename Fn>
  static bool for_each_in_intersection(TokenSetView a, TokenSetView b,
                                       Fn&& fn) {
    return TokenSetView::for_each_in_intersection(a, b, std::forward<Fn>(fn));
  }

  /// Members as a vector, in increasing order.
  [[nodiscard]] std::vector<TokenId> to_vector() const {
    return TokenSetView(*this).to_vector();
  }

  /// Members into `out` (cleared first), in increasing order; reuses
  /// the vector's capacity.
  void to_vector_into(std::vector<TokenId>& out) const {
    TokenSetView(*this).to_vector_into(out);
  }

  /// Keep only the first k members (lowest ids); no-op when count() <= k.
  void truncate(std::size_t k);

  /// "{0,3,7}" rendering for diagnostics.
  [[nodiscard]] std::string to_string() const;

  /// FNV-style hash usable in unordered containers and memo tables.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Raw word access (read-only) for bulk algorithms.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  [[nodiscard]] bool in_universe(TokenId t) const noexcept {
    return t >= 0 && static_cast<std::size_t>(t) < universe_;
  }
  static std::size_t word_of(TokenId t) noexcept {
    return static_cast<std::size_t>(t) / 64;
  }
  static unsigned bit_of(TokenId t) noexcept {
    return static_cast<unsigned>(t) % 64;
  }

  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

inline TokenSetView::TokenSetView(const TokenSet& set) noexcept
    : words_(set.words().data()), universe_(set.universe_size()) {}

inline MutableTokenSetView::MutableTokenSetView(TokenSet& set) noexcept
    : TokenSetView(set) {}

struct TokenSetHash {
  std::size_t operator()(const TokenSet& s) const noexcept { return s.hash(); }
};

}  // namespace ocd
