// RarityRanker: the rank permutation must reproduce the heuristics'
// historic shuffle-then-stable-sort priority order exactly, and the
// rank-space set kernels must be faithful permutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "ocd/util/rarity.hpp"
#include "ocd/util/rng.hpp"
#include "ocd/util/token_matrix.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd {
namespace {

// The pre-kernel code path, verbatim: shuffle token ids, then stable
// sort by ascending holder count.
std::vector<TokenId> legacy_rarity_order(
    const std::vector<std::int32_t>& holders, Rng& rng) {
  std::vector<TokenId> order(holders.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&](TokenId a, TokenId b) {
    return holders[static_cast<std::size_t>(a)] <
           holders[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<TokenId> legacy_need_then_rarity_order(
    const std::vector<std::int32_t>& holders,
    const std::vector<std::int32_t>& need, Rng& rng) {
  std::vector<TokenId> order(holders.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&](TokenId a, TokenId b) {
    const bool needed_a = need[static_cast<std::size_t>(a)] > 0;
    const bool needed_b = need[static_cast<std::size_t>(b)] > 0;
    if (needed_a != needed_b) return needed_a;
    return holders[static_cast<std::size_t>(a)] <
           holders[static_cast<std::size_t>(b)];
  });
  return order;
}

TEST(RarityRanker, ExplicitOrderRoundTrips) {
  RarityRanker ranker;
  ranker.assign({3, 0, 2, 1});
  EXPECT_EQ(ranker.universe_size(), 4u);
  EXPECT_EQ(ranker.token_at(0), 3);
  EXPECT_EQ(ranker.token_at(3), 1);
  EXPECT_EQ(ranker.rank_of(3), 0);
  EXPECT_EQ(ranker.rank_of(1), 3);
  for (TokenId t = 0; t < 4; ++t) {
    EXPECT_EQ(ranker.token_at(ranker.rank_of(t)), t);
  }
}

/// Holder counts whose radix keys vary in one to four bytes: small
/// counts, counts past 2^16, counts near INT32_MAX, and a mix of those
/// three and counts uniform over [0, INT32_MAX], where every byte of
/// the key varies on its own.
std::vector<std::int32_t> holder_counts(std::size_t universe, int kind,
                                        Rng& rng) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> holders(universe);
  for (auto& h : holders) {
    const int k = kind < 3 ? kind : static_cast<int>(rng.below(4));
    if (k == 0) h = static_cast<std::int32_t>(rng.below(6));
    if (k == 1) h = static_cast<std::int32_t>(rng.below(70'000));
    if (k == 2) h = kMax - static_cast<std::int32_t>(rng.below(4));
    if (k == 3) h = static_cast<std::int32_t>(rng.below(1ULL << 31));
  }
  return holders;
}

constexpr const char* kHolderKinds[] = {"below6", "below70000", "nearmax",
                                        "mix"};

TEST(RarityRanker, MatchesLegacyRarityOrderWithRng) {
  for (const std::size_t universe : {1u, 8u, 150u, 512u, 4096u}) {
    for (int kind = 0; kind < 4; ++kind) {
      for (const std::uint64_t seed : {1ULL, 42ULL, 9000ULL}) {
        Rng make(seed);
        const auto holders = holder_counts(universe, kind, make);

        Rng legacy_rng(seed + 7);
        const auto expected = legacy_rarity_order(holders, legacy_rng);

        Rng kernel_rng(seed + 7);
        RarityRanker ranker;
        ranker.assign_by_rarity(holders, &kernel_rng);

        const std::string where = "universe " + std::to_string(universe) +
                                  " " + kHolderKinds[kind] + " seed " +
                                  std::to_string(seed);
        ASSERT_EQ(ranker.universe_size(), holders.size());
        for (std::size_t r = 0; r < expected.size(); ++r) {
          ASSERT_EQ(ranker.token_at(static_cast<TokenId>(r)), expected[r])
              << where << " rank " << r;
        }
        // Identical rng consumption: both streams must now agree.
        EXPECT_EQ(legacy_rng.next(), kernel_rng.next()) << where;
      }
    }
  }
}

TEST(RarityRanker, NegativeHolderCountIsRejected) {
  RarityRanker ranker;
  const std::vector<std::int32_t> holders{3, -1, 2};
  EXPECT_THROW(ranker.assign_by_rarity(holders, nullptr), Error);
  const std::vector<std::int32_t> need{1, 0, 1};
  EXPECT_THROW(ranker.assign_by_need_then_rarity(holders, need, nullptr),
               Error);
}

TEST(RarityRanker, NullRngKeepsTokenIdTieOrder) {
  const std::vector<std::int32_t> holders{2, 1, 2, 0, 1};
  RarityRanker ranker;
  ranker.assign_by_rarity(holders, nullptr);
  // holders==0: {3}; holders==1: {1,4}; holders==2: {0,2}.
  EXPECT_EQ(ranker.token_at(0), 3);
  EXPECT_EQ(ranker.token_at(1), 1);
  EXPECT_EQ(ranker.token_at(2), 4);
  EXPECT_EQ(ranker.token_at(3), 0);
  EXPECT_EQ(ranker.token_at(4), 2);
}

TEST(RarityRanker, MatchesLegacyNeedThenRarityOrder) {
  for (const std::size_t universe : {1u, 8u, 90u, 512u, 4096u}) {
    for (int kind = 0; kind < 4; ++kind) {
      for (const std::uint64_t seed : {5ULL, 123ULL}) {
        Rng make(seed);
        const auto holders = holder_counts(universe, kind, make);
        std::vector<std::int32_t> need(universe);
        for (auto& n : need) n = static_cast<std::int32_t>(make.below(3));

        Rng legacy_rng(seed);
        const auto expected =
            legacy_need_then_rarity_order(holders, need, legacy_rng);
        Rng kernel_rng(seed);
        RarityRanker ranker;
        ranker.assign_by_need_then_rarity(holders, need, &kernel_rng);

        const std::string where = "universe " + std::to_string(universe) +
                                  " " + kHolderKinds[kind] + " seed " +
                                  std::to_string(seed);
        for (std::size_t r = 0; r < expected.size(); ++r) {
          ASSERT_EQ(ranker.token_at(static_cast<TokenId>(r)), expected[r])
              << where << " rank " << r;
        }
        EXPECT_EQ(legacy_rng.next(), kernel_rng.next()) << where;
      }
    }
  }
}

TEST(RarityRanker, RankSpacePermutationRoundTrips) {
  Rng rng(17);
  const std::size_t universe = 130;  // spans word boundaries
  std::vector<std::int32_t> holders(universe);
  for (auto& h : holders) h = static_cast<std::int32_t>(rng.below(4));
  RarityRanker ranker;
  ranker.assign_by_rarity(holders, &rng);

  TokenSet s(universe);
  for (int i = 0; i < 40; ++i) s.set(static_cast<TokenId>(rng.below(universe)));

  const TokenSet ranked = ranker.to_ranks(s);
  EXPECT_EQ(ranked.count(), s.count());
  s.for_each([&](TokenId t) { EXPECT_TRUE(ranked.test(ranker.rank_of(t))); });
  EXPECT_EQ(ranker.to_tokens(ranked), s);
}

// The whole-matrix conversion, the cached-column path and the one-word
// vertex columns against the per-row scatter, on shapes around the
// 64-row block and 64-token word edges.  One ranker, one column buffer and one output matrix serve
// every shape, and both outputs start as all ones, so a word the
// kernels fail to write, or stale scratch from a larger shape, shows.
TEST(RarityRanker, MatrixConversionMatchesPerRow) {
  Rng rng(0x7261'6e6b);
  RarityRanker ranker;
  std::vector<std::uint64_t> columns;
  util::TokenMatrix out;
  for (const std::size_t rows : {0u, 1u, 63u, 64u, 65u, 300u}) {
    for (const std::size_t universe :
         {1u, 8u, 63u, 64u, 65u, 130u, 512u, 513u}) {
      for (const double density : {0.0, 0.05, 0.5, 1.0}) {
        for (const bool shuffled : {true, false}) {
          const std::string where =
              std::to_string(rows) + "x" + std::to_string(universe) +
              " density " + std::to_string(density) +
              (shuffled ? " shuffled" : " null-rng");
          util::TokenMatrix in(rows, universe);
          for (std::size_t v = 0; v < rows; ++v)
            for (std::size_t t = 0; t < universe; ++t)
              if (rng.uniform_real() < density)
                in.row(v).set(static_cast<TokenId>(t));
          std::vector<std::int32_t> holders(universe);
          for (auto& h : holders) h = static_cast<std::int32_t>(rng.below(5));
          ranker.assign_by_rarity(holders, shuffled ? &rng : nullptr);

          // Expected columns: bit i of block b's word t is row 64b + i's
          // bit t, and zero past the last row.
          const std::size_t blocks = (rows + 63) / 64;
          std::vector<std::uint64_t> expected_columns(blocks * universe, 0);
          for (std::size_t v = 0; v < rows; ++v) {
            std::uint64_t* block = expected_columns.data() + v / 64 * universe;
            in.row(v).for_each([&](TokenId t) {
              block[static_cast<std::size_t>(t)] |= 1ULL << (v % 64);
            });
          }
          std::fill(columns.begin(), columns.end(), ~0ULL);
          RarityRanker::to_columns(in, columns);
          ASSERT_EQ(columns, expected_columns) << where;

          // word_columns: the same bits one row word at a time, bit j's
          // column in `blocks` consecutive words, zero past the universe.
          std::vector<std::uint64_t> word_cols(64 * blocks);
          for (std::size_t w = 0; w < in.words_per_row(); ++w) {
            std::fill(word_cols.begin(), word_cols.end(), ~0ULL);
            RarityRanker::word_columns(in, w, word_cols);
            for (std::size_t j = 0; j < 64; ++j) {
              const std::size_t t = 64 * w + j;
              for (std::size_t b = 0; b < blocks; ++b)
                ASSERT_EQ(word_cols[j * blocks + b],
                          t < universe ? expected_columns[b * universe + t]
                                       : 0u)
                    << where << " word " << w << " bit " << j;
            }
          }

          TokenSet expected(universe);
          const auto check_rows = [&](const char* path) {
            for (std::size_t v = 0; v < rows; ++v) {
              ranker.to_ranks_into(in.row(v), expected);
              ASSERT_TRUE(out.row(v) == TokenSetView(expected))
                  << where << " " << path << " row " << v;
              // No bit at or past the universe.
              const std::size_t words = out.words_per_row();
              ASSERT_EQ(out.row(v).word(words - 1) &
                            ~out.row(v).tail_mask(),
                        0u)
                  << where << " " << path << " row " << v;
            }
          };
          const auto poison = [&] {
            out.reset(rows, universe);
            std::fill_n(out.mutable_words(), out.words().size(), ~0ULL);
          };

          poison();
          ranker.to_ranks_into(in, out);
          check_rows("matrix");
          poison();
          ranker.columns_to_ranks(columns, out);
          check_rows("columns");
        }
      }
    }
  }
}

TEST(RarityRanker, RarestInIntersectionPicksLowestHolderCount) {
  const std::vector<std::int32_t> holders{5, 1, 3, 0, 4, 2};
  RarityRanker ranker;
  ranker.assign_by_rarity(holders, nullptr);

  const std::size_t universe = holders.size();
  TokenSet a(universe);
  TokenSet b(universe);
  // Intersection {0, 2, 4}: rarest by holders is token 2.
  for (TokenId t : {0, 2, 4}) {
    a.set(ranker.rank_of(t));
    b.set(ranker.rank_of(t));
  }
  a.set(ranker.rank_of(3));  // only in a — must not win
  EXPECT_EQ(rarest_in_intersection(ranker, a, b), 2);

  const TokenSet empty(universe);
  EXPECT_EQ(rarest_in_intersection(ranker, a, empty), -1);
}

}  // namespace
}  // namespace ocd
