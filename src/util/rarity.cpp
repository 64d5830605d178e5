#include "ocd/util/rarity.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

namespace ocd {

namespace {

/// Stage J of an in-place 64x64 bit-block transpose: in every aligned
/// 2J x 2J sub-block, swaps the top-right J x J quarter with the
/// bottom-left one.  Row k's high J bits of each 2J-bit group trade
/// places with row k + J's low J bits; M selects a group's low J bits.
template <unsigned J, std::uint64_t M>
void transpose_stage(std::uint64_t* a) {
  for (unsigned base = 0; base < 64; base += 2 * J) {
    for (unsigned k = base; k < base + J; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & M;
      a[k] ^= t << J;
      a[k + J] ^= t;
    }
  }
}

/// Transposes a 64x64 bit block in place: afterwards bit i of a[j] is
/// what bit j of a[i] was.
void transpose64(std::uint64_t* a) {
  transpose_stage<32, 0x00000000ffffffffULL>(a);
  transpose_stage<16, 0x0000ffff0000ffffULL>(a);
  transpose_stage<8, 0x00ff00ff00ff00ffULL>(a);
  transpose_stage<4, 0x0f0f0f0f0f0f0f0fULL>(a);
  transpose_stage<2, 0x3333333333333333ULL>(a);
  transpose_stage<1, 0x5555555555555555ULL>(a);
}

/// Loads word `w` of the 64 rows of `rows` from row `first` on into
/// `block` (rows past the last read as zero) and transposes it: bit i
/// of block[j] is bit j of row first + i's word w.
void load_column_block(const util::TokenMatrix& rows, std::size_t first,
                       std::size_t w, std::array<std::uint64_t, 64>& block) {
  const std::size_t wpr = rows.words_per_row();
  const std::size_t height = std::min<std::size_t>(64, rows.rows() - first);
  const std::uint64_t* in = rows.words().data() + first * wpr + w;
  for (std::size_t i = 0; i < height; ++i) block[i] = in[i * wpr];
  std::fill(block.begin() + static_cast<std::ptrdiff_t>(height), block.end(),
            0);
  transpose64(block.data());
}

}  // namespace

void RarityRanker::assign(std::vector<TokenId> order) {
  order_ = std::move(order);
  rebuild_rank();
}

void RarityRanker::rebuild_rank() {
  rank_.assign(order_.size(), -1);
  for (std::size_t r = 0; r < order_.size(); ++r) {
    const TokenId t = order_[r];
    OCD_EXPECTS(t >= 0 && static_cast<std::size_t>(t) < order_.size());
    OCD_EXPECTS(rank_[static_cast<std::size_t>(t)] < 0);  // a permutation
    rank_[static_cast<std::size_t>(t)] = static_cast<TokenId>(r);
  }
}

void RarityRanker::sort_by_keys() {
  // keys_[i] = (sort key << 32) | i over the pre-sort order_, so the
  // words are already in position order.  A stable LSD radix sort by
  // the key bytes therefore puts them in packed-word order, which is
  // exactly the order a stable_sort by the key alone produces.  Bytes
  // on which every key agrees cannot reorder anything and get no pass.
  std::uint64_t any = 0;
  std::uint64_t all = ~0ULL;
  for (const std::uint64_t k : keys_) {
    any |= k;
    all &= k;
  }
  const std::uint64_t varying = any ^ all;
  radix_keys_.resize(keys_.size());
  for (unsigned shift = 32; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 256> start{};
    for (const std::uint64_t k : keys_) ++start[(k >> shift) & 0xff];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    for (const std::uint64_t k : keys_)
      radix_keys_[start[(k >> shift) & 0xff]++] = k;
    keys_.swap(radix_keys_);
  }
  scratch_order_ = order_;  // same size: copy reuses capacity
  for (std::size_t i = 0; i < keys_.size(); ++i)
    order_[i] = scratch_order_[static_cast<std::size_t>(
        keys_[i] & 0xffffffffULL)];
  rebuild_rank();
}

void RarityRanker::assign_by_rarity(std::span<const std::int32_t> holders,
                                    Rng* rng) {
  order_.resize(holders.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (rng != nullptr) rng->shuffle(order_);
  keys_.resize(holders.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::int32_t count = holders[static_cast<std::size_t>(order_[i])];
    OCD_EXPECTS(count >= 0);  // a negative count would sign-extend
    const auto h = static_cast<std::uint64_t>(count);
    keys_[i] = (h << 32) | static_cast<std::uint64_t>(i);
  }
  sort_by_keys();
}

void RarityRanker::assign_by_need_then_rarity(
    std::span<const std::int32_t> holders, std::span<const std::int32_t> need,
    Rng* rng) {
  OCD_EXPECTS(holders.size() == need.size());
  order_.resize(holders.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (rng != nullptr) rng->shuffle(order_);
  keys_.resize(holders.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto t = static_cast<std::size_t>(order_[i]);
    const std::uint64_t unneeded = need[t] > 0 ? 0 : 1;
    OCD_EXPECTS(holders[t] >= 0);  // a negative count would sign-extend
    const auto h = static_cast<std::uint64_t>(holders[t]);
    keys_[i] = (unneeded << 63) | (h << 32) | static_cast<std::uint64_t>(i);
  }
  sort_by_keys();
}

TokenSet RarityRanker::to_ranks(TokenSetView tokens) const {
  TokenSet ranked(order_.size());
  to_ranks_into(tokens, ranked);
  return ranked;
}

TokenSet RarityRanker::to_tokens(TokenSetView ranked) const {
  TokenSet tokens(order_.size());
  to_tokens_into(ranked, tokens);
  return tokens;
}

void RarityRanker::to_ranks_into(TokenSetView tokens,
                                 MutableTokenSetView out) const {
  OCD_EXPECTS(tokens.universe_size() == order_.size());
  OCD_EXPECTS(out.universe_size() == order_.size());
  out.clear();
  tokens.for_each(
      [&](TokenId t) { out.set(rank_[static_cast<std::size_t>(t)]); });
}

void RarityRanker::to_tokens_into(TokenSetView ranked,
                                  MutableTokenSetView out) const {
  OCD_EXPECTS(ranked.universe_size() == order_.size());
  OCD_EXPECTS(out.universe_size() == order_.size());
  out.clear();
  ranked.for_each(
      [&](TokenId r) { out.set(order_[static_cast<std::size_t>(r)]); });
}

void RarityRanker::to_ranks_into(const util::TokenMatrix& rows,
                                 util::TokenMatrix& out) {
  OCD_EXPECTS(rows.universe_size() == order_.size());
  OCD_EXPECTS(out.rows() == rows.rows());
  to_columns(rows, columns_);
  columns_to_ranks(columns_, out);
}

void RarityRanker::to_columns(const util::TokenMatrix& rows,
                              std::vector<std::uint64_t>& columns) {
  const std::size_t universe = rows.universe_size();
  columns.resize((rows.rows() + 63) / 64 * universe);
  std::array<std::uint64_t, 64> block{};
  for (std::size_t first = 0; first < rows.rows(); first += 64) {
    std::uint64_t* col = columns.data() + first / 64 * universe;
    for (std::size_t w = 0; w < rows.words_per_row(); ++w) {
      load_column_block(rows, first, w, block);
      const std::size_t width = std::min<std::size_t>(64, universe - 64 * w);
      std::copy_n(block.begin(), width, col + 64 * w);
    }
  }
}

void RarityRanker::word_columns(const util::TokenMatrix& rows,
                                std::size_t word,
                                std::span<std::uint64_t> columns) {
  OCD_EXPECTS(word < rows.words_per_row());
  const std::size_t blocks = (rows.rows() + 63) / 64;
  OCD_EXPECTS(columns.size() == 64 * blocks);
  std::array<std::uint64_t, 64> block{};
  for (std::size_t b = 0; b < blocks; ++b) {
    load_column_block(rows, 64 * b, word, block);
    for (std::size_t j = 0; j < 64; ++j) columns[j * blocks + b] = block[j];
  }
}

void RarityRanker::columns_to_ranks(std::span<const std::uint64_t> columns,
                                    util::TokenMatrix& out) const {
  const std::size_t universe = order_.size();
  OCD_EXPECTS(out.universe_size() == universe);
  OCD_EXPECTS(columns.size() == (out.rows() + 63) / 64 * universe);
  const std::size_t wpr = out.words_per_row();
  std::array<std::uint64_t, 64> block{};
  for (std::size_t first = 0; first < out.rows(); first += 64) {
    const std::size_t height = std::min<std::size_t>(64, out.rows() - first);
    const std::uint64_t* col = columns.data() + first / 64 * universe;
    std::uint64_t* dst = out.mutable_words() + first * wpr;
    for (std::size_t rw = 0; rw < wpr; ++rw) {
      const std::size_t width = std::min<std::size_t>(64, universe - 64 * rw);
      const TokenId* tokens = order_.data() + 64 * rw;
      for (std::size_t k = 0; k < width; ++k)
        block[k] = col[static_cast<std::size_t>(tokens[k])];
      std::fill(block.begin() + static_cast<std::ptrdiff_t>(width),
                block.end(), 0);  // ranks past the universe
      transpose64(block.data());
      for (std::size_t i = 0; i < height; ++i) dst[i * wpr + rw] = block[i];
    }
  }
}

TokenId rarest_in_intersection(const RarityRanker& ranker,
                               TokenSetView ranked_a, TokenSetView ranked_b) {
  const TokenId rank = TokenSet::first_in_intersection(ranked_a, ranked_b);
  return rank < 0 ? rank : ranker.token_at(rank);
}

}  // namespace ocd
