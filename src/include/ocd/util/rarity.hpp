// Rarity-ranked token selection kernels shared by the planning
// heuristics.
//
// Every §5.1 heuristic repeatedly picks "the rarest eligible token" out
// of some candidate set, under a priority permutation rebuilt each step
// from the global aggregates (holder counts, optionally need counts,
// optionally a random tie-break).  Scanning that permutation token by
// token costs O(universe) per pick; the kernel here instead permutes
// token sets into *rank space* — bit r of a ranked set is the token at
// priority rank r — where a pick is a word-parallel first-set-bit over
// masked words and a capacity-bounded fill is a masked-word iteration.
//
// Building the order is a stable LSD radix sort over only the key bytes
// that vary, so it reproduces the historic shuffle-then-stable-sort
// order (and rng consumption) at a few passes over the universe.
//
// A single set moves into rank space bit by bit (to_ranks_into on a
// view: one scatter per member).  A whole TokenMatrix moves in O(rows *
// words) word operations with no work per set bit: each 64-row block is
// transposed by 64x64 bit-block transposes into token *columns* (word t
// of a block says which of its 64 rows hold token t), the columns are
// read back in rank order, and the result is transposed back.  The
// columns depend only on the matrix, not on the order, so a caller
// whose rows are fixed for a run (GlobalGreedy's wants) builds them
// once with to_columns and re-ranks them each step with
// columns_to_ranks.  word_columns transposes a single row word the same
// way, into one vertex column per bit of that word (Bandwidth's relay
// election groups its tokens by frontier column).
#pragma once

#include <span>
#include <vector>

#include "ocd/util/rng.hpp"
#include "ocd/util/token_matrix.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd {

/// Bijection between token ids and priority ranks, plus the permutation
/// kernels to move TokenSets in and out of rank space.  Rebuilt (not
/// reallocated) once per planning step.
class RarityRanker {
 public:
  RarityRanker() = default;

  /// Adopts an explicit priority order (order[r] = token at rank r);
  /// must be a permutation of 0..m-1.
  void assign(std::vector<TokenId> order);

  /// Priority by ascending holder count (every count >= 0).  When `rng`
  /// is non-null the ties are broken by a random shuffle applied before
  /// the stable sort — the exact shuffle-then-stable-sort sequence the
  /// heuristics have always used, so rng consumption is unchanged; with
  /// a null `rng` ties keep token-id order.
  void assign_by_rarity(std::span<const std::int32_t> holders, Rng* rng);

  /// Tokens somebody still needs (need > 0) first, then ascending
  /// holder count within each class; same tie-break contract as
  /// assign_by_rarity.
  void assign_by_need_then_rarity(std::span<const std::int32_t> holders,
                                  std::span<const std::int32_t> need,
                                  Rng* rng);

  [[nodiscard]] std::size_t universe_size() const noexcept {
    return order_.size();
  }

  /// Token id at priority rank r.
  [[nodiscard]] TokenId token_at(TokenId rank) const {
    OCD_EXPECTS(rank >= 0 && static_cast<std::size_t>(rank) < order_.size());
    return order_[static_cast<std::size_t>(rank)];
  }

  /// Priority rank of token t.
  [[nodiscard]] TokenId rank_of(TokenId token) const {
    OCD_EXPECTS(token >= 0 && static_cast<std::size_t>(token) < rank_.size());
    return rank_[static_cast<std::size_t>(token)];
  }

  /// Permutes a token-space set into rank space.
  [[nodiscard]] TokenSet to_ranks(TokenSetView tokens) const;

  /// Permutes a rank-space set back into token space.
  [[nodiscard]] TokenSet to_tokens(TokenSetView ranked) const;

  /// In-place variants: `out` must span the same universe; it is
  /// cleared and overwritten.  Allocation-free.
  void to_ranks_into(TokenSetView tokens, MutableTokenSetView out) const;
  void to_tokens_into(TokenSetView ranked, MutableTokenSetView out) const;

  /// Whole-matrix to_ranks_into: out.row(v) = to_ranks(rows.row(v)) for
  /// every row, by to_columns then columns_to_ranks.  `out` must have
  /// the shape of `rows`.  The columns live in the ranker's scratch, so
  /// only a larger shape than any before allocates.
  void to_ranks_into(const util::TokenMatrix& rows, util::TokenMatrix& out);

  /// The token columns of `rows`: for each block b of 64 rows and each
  /// token t < universe, bit i of columns[b * universe + t] says whether
  /// row 64b + i holds t.  Rows past the last are zero.
  static void to_columns(const util::TokenMatrix& rows,
                         std::vector<std::uint64_t>& columns);

  /// The vertex columns of one row word, by the same transposes: with
  /// blocks = ceil(rows / 64), bit i of columns[j * blocks + b] says
  /// whether row 64b + i has bit j of its word `word` set, so bit j's
  /// column is `blocks` consecutive words in vertex order.  Rows past
  /// the last are zero.  `columns` must hold 64 * blocks words.
  static void word_columns(const util::TokenMatrix& rows, std::size_t word,
                           std::span<std::uint64_t> columns);

  /// Reads to_columns(rows) back in rank order and transposes it into
  /// `out`, which then equals to_ranks_into(rows, out)'s result; `out`
  /// gives the shape.  Allocation-free.
  void columns_to_ranks(std::span<const std::uint64_t> columns,
                        util::TokenMatrix& out) const;

 private:
  /// Rebuilds rank_ from order_, validating the permutation.
  void rebuild_rank();
  /// Sorts order_ by the packed (class, position) keys in keys_.
  void sort_by_keys();

  std::vector<TokenId> order_;  ///< rank -> token
  std::vector<TokenId> rank_;   ///< token -> rank
  // Per-rebuild scratch, reused across steps so assign_by_* never
  // allocates in steady state.  keys_ packs (sort key << 32 | position)
  // so sorting the words reproduces the stable_sort order exactly;
  // radix_keys_ is the radix sort's other buffer.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> radix_keys_;
  std::vector<TokenId> scratch_order_;
  /// The whole-matrix conversion's token columns.
  std::vector<std::uint64_t> columns_;
};

/// The shared pick: rarest token (lowest rank) present in both ranked
/// sets, mapped back to its token id; -1 when the sets are disjoint.
[[nodiscard]] TokenId rarest_in_intersection(const RarityRanker& ranker,
                                             TokenSetView ranked_a,
                                             TokenSetView ranked_b);

}  // namespace ocd
