// Differential suite for the flat-memory bitset layer: TokenMatrix rows
// (TokenSetView / MutableTokenSetView) must behave bit-identically to
// standalone TokenSet across word boundaries (63/64/65 bits) and the
// word-level intersection kernels.  Also replays the k-stale snapshot
// semantics of the original deque-of-deep-copies SnapshotBuffer against
// the fixed ring of matrices.
#include "ocd/util/token_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "ocd/sim/knowledge.hpp"
#include "ocd/util/rng.hpp"
#include "ocd/util/simd.hpp"

namespace ocd::util {
namespace {

TEST(TokenMatrix, ShapeAndReset) {
  TokenMatrix m(3, 65);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.universe_size(), 65u);
  EXPECT_EQ(m.words_per_row(), 2u);
  m.row(1).set(64);
  EXPECT_TRUE(m.row(1).test(64));
  EXPECT_FALSE(m.row(0).test(64));
  EXPECT_FALSE(m.row(2).test(64));
  m.reset(2, 64);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.words_per_row(), 1u);
  EXPECT_TRUE(m.row(0).empty());
  EXPECT_TRUE(m.row(1).empty());
}

TEST(TokenMatrix, CopyFromAndEquality) {
  TokenMatrix a(2, 70);
  a.row(0).set(0);
  a.row(1).set(69);
  TokenMatrix b(2, 70);
  EXPECT_NE(a, b);
  b.copy_from(a);
  EXPECT_EQ(a, b);
  // copy_from never reallocates: the row views stay valid.
  const std::uint64_t* before = b.row(0).words_data();
  b.copy_from(a);
  EXPECT_EQ(b.row(0).words_data(), before);
  TokenMatrix wrong(3, 70);
  EXPECT_THROW(wrong.copy_from(a), ContractViolation);
}

TEST(TokenMatrix, AssignRowMatchesTokenSet) {
  const TokenSet set = TokenSet::of(65, {0, 63, 64});
  TokenMatrix m(1, 65);
  m.assign_row(0, set);
  EXPECT_EQ(TokenSet(m.row(0)), set);
}

/// One random mutation applied identically to a TokenSet and a matrix
/// row; returns a fresh random operand set.
TokenSet random_set(std::size_t universe, Rng& rng) {
  TokenSet s(universe);
  const std::size_t k = static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(universe) + 1));
  for (std::size_t i = 0; i < k; ++i)
    s.set(static_cast<TokenId>(rng.below(static_cast<std::uint64_t>(universe))));
  return s;
}

TEST(TokenMatrixFuzz, RowsBehaveLikeTokenSetAcrossWordBoundaries) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    Rng rng(97 + universe);
    TokenMatrix m(2, universe);
    TokenSet a(universe);  // shadow of row 0
    TokenSet b(universe);  // shadow of row 1
    for (int iter = 0; iter < 200; ++iter) {
      const TokenSet operand = random_set(universe, rng);
      switch (rng.below(6)) {
        case 0:
          m.row(0) |= operand;
          a |= operand;
          break;
        case 1:
          m.row(0) &= operand;
          a &= operand;
          break;
        case 2:
          m.row(0) -= operand;
          a -= operand;
          break;
        case 3:
          m.row(0) ^= operand;
          a ^= operand;
          break;
        case 4: {
          const auto t = static_cast<TokenId>(
              rng.below(static_cast<std::uint64_t>(universe)));
          m.row(0).set(t);
          a.set(t);
          break;
        }
        default:
          m.row(1).assign(operand);
          b.assign(operand);
          break;
      }
      // Full kernel parity between the row view and the shadow set.
      const TokenSetView row0 = std::as_const(m).row(0);
      const TokenSetView row1 = std::as_const(m).row(1);
      ASSERT_EQ(TokenSet(row0), a) << "universe=" << universe;
      ASSERT_EQ(TokenSet(row1), b) << "universe=" << universe;
      ASSERT_EQ(row0.count(), a.count());
      ASSERT_EQ(row0.empty(), a.empty());
      ASSERT_EQ(row0.first(), a.first());
      ASSERT_EQ(row0.to_vector(), a.to_vector());
      ASSERT_EQ(row0.is_subset_of(row1), a.is_subset_of(b));
      ASSERT_EQ(row0.intersects(row1), a.intersects(b));
      ASSERT_EQ(TokenSet::first_in_intersection(row0, row1),
                TokenSet::first_in_intersection(a, b));
      ASSERT_EQ(TokenSet::count_intersection(row0, row1),
                TokenSet::count_intersection(a, b));
      std::vector<TokenId> via_rows;
      std::vector<TokenId> via_sets;
      TokenSet::for_each_in_intersection(
          row0, row1, [&](TokenId t) { via_rows.push_back(t); });
      TokenSet::for_each_in_intersection(
          a, b, [&](TokenId t) { via_sets.push_back(t); });
      ASSERT_EQ(via_rows, via_sets);
      if (!a.empty()) {
        const auto probe = static_cast<TokenId>(
            rng.below(static_cast<std::uint64_t>(universe)));
        ASSERT_EQ(row0.test(probe), a.test(probe));
        ASSERT_EQ(row0.next(probe), a.next(probe));
        ASSERT_EQ(row0.next_circular(probe), a.next_circular(probe));
      }
    }
  }
}

TEST(TokenMatrixFuzz, BoundaryBitsStayInsideTheirRow) {
  // Setting the last valid bit of row r must never leak into row r+1
  // for universes straddling a word boundary.
  for (const std::size_t universe : {63u, 64u, 65u}) {
    TokenMatrix m(3, universe);
    const auto last = static_cast<TokenId>(universe - 1);
    m.row(1).set(last);
    m.row(1).set(0);
    EXPECT_TRUE(m.row(0).empty()) << "universe=" << universe;
    EXPECT_TRUE(m.row(2).empty()) << "universe=" << universe;
    EXPECT_EQ(m.row(1).count(), universe == 1 ? 1u : 2u);
    m.row(1).clear();
    EXPECT_TRUE(m.row(1).empty());
  }
}

// ---- SIMD dispatch differential fuzz -------------------------------
//
// The AVX2 kernel level must be bit-identical to the scalar reference
// on every input, including the word-boundary universes where the tail
// word is partial (63/65/127/129) or exactly full (64/128), and the
// universes that enter the 4-word vector loops: one vector (255/256/257)
// and two (511/512/513), each with and without a scalar tail.  For each
// universe the fuzz draws randomized rows, evaluates every kernel once
// per dispatch level, and compares results — including the full
// post-state of the mutating fused apply kernel — bit for bit against
// the scalar run.

/// Everything the kernel API can produce from one (a, b, dst) triple.
struct KernelResults {
  std::size_t count_a = 0;
  std::size_t count_intersection = 0;
  bool subset = false;
  bool intersects = false;
  TokenId first_in_intersection = -1;
  std::vector<TokenId> intersection_members;
  std::size_t fresh_count = 0;
  TokenSet fresh{0};
  TokenSet dst_after{0};

  bool operator==(const KernelResults&) const = default;
};

KernelResults run_all_kernels(TokenSetView a, TokenSetView b,
                              TokenSetView dst) {
  KernelResults r;
  r.count_a = a.count();
  r.count_intersection = TokenSet::count_intersection(a, b);
  r.subset = a.is_subset_of(b);
  r.intersects = a.intersects(b);
  r.first_in_intersection = TokenSet::first_in_intersection(a, b);
  TokenSet::for_each_in_intersection(
      a, b, [&](TokenId t) { r.intersection_members.push_back(t); });
  r.dst_after = TokenSet(dst);
  r.fresh = TokenSet(a);  // arbitrary non-zero prior contents
  r.fresh_count = MutableTokenSetView::apply_fresh_union(r.dst_after, b,
                                                         r.fresh);
  return r;
}

TEST(TokenMatrixFuzz, KernelsBitIdenticalAcrossDispatchLevels) {
  namespace simd = ocd::util::simd;
  // Restore auto resolution however the test exits (ASSERT included).
  const struct LevelGuard {
    ~LevelGuard() { ocd::util::simd::clear_simd_level(); }
  } guard;
  std::vector<simd::Level> levels;
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level()); ++lv)
    levels.push_back(static_cast<simd::Level>(lv));
  ASSERT_GE(levels.size(), 1u);
  for (const std::size_t universe : {63u, 64u, 65u, 127u, 128u, 129u, 255u,
                                     256u, 257u, 511u, 512u, 513u}) {
    Rng rng(211 + universe);
    for (int iter = 0; iter < 120; ++iter) {
      // Rows of a matrix, as in the simulator, not standalone sets —
      // the vector kernels must respect row extents exactly.
      TokenMatrix m(3, universe);
      m.row(0) |= random_set(universe, rng);
      m.row(1) |= random_set(universe, rng);
      m.row(2) |= random_set(universe, rng);
      // Occasionally make b a superset/subset so both branches of the
      // subset test and empty intersections get exercised.
      if (iter % 5 == 0) m.row(1) |= m.row(0);
      if (iter % 7 == 0) m.row(1).clear();

      simd::set_simd_level(simd::Level::kScalar);
      const KernelResults reference =
          run_all_kernels(std::as_const(m).row(0), std::as_const(m).row(1),
                          std::as_const(m).row(2));
      for (const simd::Level level : levels) {
        if (level == simd::Level::kScalar) continue;
        simd::set_simd_level(level);
        const KernelResults vectored =
            run_all_kernels(std::as_const(m).row(0), std::as_const(m).row(1),
                            std::as_const(m).row(2));
        ASSERT_EQ(vectored, reference)
            << "level=" << simd::level_name(level) << " universe=" << universe
            << " iter=" << iter;
      }
      simd::clear_simd_level();
    }
  }
}

/// The seed SnapshotBuffer semantics (PR 1): a deque of deep copies,
/// trimmed to staleness+1 entries, stale view = the front.
class DequeReference {
 public:
  explicit DequeReference(std::int32_t staleness) : staleness_(staleness) {}

  void push(const TokenMatrix& possession) {
    history_.push_back(possession);
    while (history_.size() > static_cast<std::size_t>(staleness_) + 1)
      history_.pop_front();
  }
  [[nodiscard]] const TokenMatrix& stale_view() const {
    return history_.front();
  }

 private:
  std::int32_t staleness_;
  std::deque<TokenMatrix> history_;
};

TEST(SnapshotRing, ReplaysDequeSemantics) {
  for (const std::int32_t staleness : {0, 1, 2, 5}) {
    Rng rng(7 + staleness);
    sim::SnapshotBuffer ring(staleness);
    DequeReference reference(staleness);
    TokenMatrix live(4, 70);
    for (int step = 0; step < 40; ++step) {
      // Monotone possession growth, as in the simulator.
      for (std::size_t v = 0; v < live.rows(); ++v)
        live.row(v) |= random_set(70, rng);
      ring.push(live);
      reference.push(live);
      ASSERT_EQ(ring.stale_view(), reference.stale_view())
          << "staleness=" << staleness << " step=" << step;
    }
  }
}

TEST(SnapshotRing, AliasedZeroStalenessTracksLiveWithoutCopy) {
  TokenMatrix live(2, 40);
  sim::SnapshotBuffer ring(0);
  ring.alias_live(live);
  ring.push(live);
  EXPECT_EQ(&ring.stale_view(), &live);
  live.row(0).set(13);
  EXPECT_TRUE(ring.stale_view().row(0).test(13));
}

}  // namespace
}  // namespace ocd::util
