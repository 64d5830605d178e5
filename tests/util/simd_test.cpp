// Dispatch machinery for the runtime-selected SIMD token kernels:
// level probing, OCD_SIMD validation, programmatic overrides, the
// tail-word invariant the vectorized kernels inherit from the scalar
// reference, and a planner determinism replay under every dispatch
// level the host supports (the end-to-end half of the bit-identity
// contract; the word-level differential fuzz lives in
// token_matrix_test.cpp).
#include "ocd/util/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::util::simd {
namespace {

/// Restores auto resolution however a test exits.
struct LevelGuard {
  ~LevelGuard() { clear_simd_level(); }
};

/// What auto resolution should pick with no programmatic override:
/// the OCD_SIMD environment variable when set (check_sanitizers.sh
/// forces it), otherwise the widest level the host supports.
Level expected_default_level() {
  if (const char* env = std::getenv("OCD_SIMD")) return parse_level_value(env);
  return max_supported_level();
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels;
  for (int lv = 0; lv <= static_cast<int>(max_supported_level()); ++lv)
    levels.push_back(static_cast<Level>(lv));
  return levels;
}

TEST(Simd, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(Simd, ParseLevelValueAcceptsTheDocumentedNames) {
  EXPECT_EQ(parse_level_value("scalar"), Level::kScalar);
  EXPECT_EQ(parse_level_value("avx2"), Level::kAvx2);
}

TEST(Simd, ParseLevelValueRejectsGarbageNamingTheVariable) {
  for (const char* bad :
       {"", "AVX2", "sse2", "2", "scalar ", "native", "avx512"}) {
    try {
      (void)parse_level_value(bad);
      FAIL() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("OCD_SIMD"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_level_value(nullptr), Error);
}

TEST(Simd, OverrideSelectsEachSupportedLevel) {
  const LevelGuard guard;
  for (const Level level : supported_levels()) {
    set_simd_level(level);
    EXPECT_EQ(active_level(), level);
  }
  clear_simd_level();
  EXPECT_EQ(active_level(), expected_default_level());
}

TEST(Simd, OverrideRejectsUnsupportedLevels) {
  if (max_supported_level() == Level::kAvx2) {
    GTEST_SKIP() << "host supports every level; nothing to reject";
  }
  const LevelGuard guard;
  EXPECT_THROW(set_simd_level(Level::kAvx2), Error);
  // A failed override must not disturb the active table.
  EXPECT_EQ(active_level(), expected_default_level());
}

// ---- tail-word invariant -------------------------------------------

// Every kernel iterates whole words, so bits at index >= universe in
// the last word must stay zero.  The mutation paths assert this; a raw
// word write that plants a tail bit must be caught both by the direct
// check and by the next asserting mutation.

TEST(SimdTailInvariant, CleanSetsPass) {
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 129u}) {
    TokenSet s = TokenSet::full(universe);
    EXPECT_NO_THROW(TokenSetView(s).assert_tail_zero());
  }
}

TEST(SimdTailInvariant, PlantedTailBitIsCaught) {
  TokenSet s(70);  // two words, 6 valid bits in the tail word
  const MutableTokenSetView view(s);
  view.mutable_words()[1] |= 1ULL << 20;  // bit 84: past the universe
  EXPECT_THROW(view.assert_tail_zero(), ContractViolation);
}

TEST(SimdTailInvariant, MutationsAssertAfterCorruptOperand) {
  TokenSet corrupt(70);
  MutableTokenSetView(corrupt).mutable_words()[1] |= 1ULL << 30;
  TokenSet clean(70);
  // The union copies the stray bit, and the post-write assert fires.
  EXPECT_THROW(MutableTokenSetView(clean) |= corrupt, ContractViolation);
}

TEST(SimdTailInvariant, WordFillPathsMaskTheTail) {
  for (const std::size_t universe : {63u, 65u, 127u, 130u}) {
    TokenSet s = TokenSet::full(universe);
    EXPECT_EQ(s.count(), universe);
    s.truncate(3);
    EXPECT_NO_THROW(TokenSetView(s).assert_tail_zero());
    EXPECT_EQ(s.count(), 3u);
  }
}

// ---- planner replay per dispatch level -----------------------------

/// ArcSend has no operator==, so schedules are compared send by send.
void expect_schedules_identical(const core::Schedule& a,
                                const core::Schedule& b, const char* label) {
  ASSERT_EQ(a.length(), b.length()) << label;
  ASSERT_EQ(a.bandwidth(), b.bandwidth()) << label;
  for (std::size_t s = 0; s < a.steps().size(); ++s) {
    const core::Timestep sa_step = a.step(s);
    const core::SendRange sa = sa_step.sends();
    const core::Timestep sb_step = b.step(s);
    const core::SendRange sb = sb_step.sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

TEST(SimdDeterminism, PlannerRunsReplayAcrossDispatchLevels) {
  const LevelGuard guard;
  // 48 tokens fit in one word, which no vector loop reaches; 300 tokens
  // span five words, so the apply and intersection kernels also run one
  // 4-word vector plus a scalar tail.
  for (const auto& [vertices, tokens] :
       {std::pair{60, 48}, std::pair{40, 300}}) {
    Rng rng(83);
    Digraph g = topology::random_overlay(vertices, rng);
    const auto inst =
        core::single_source_all_receivers(std::move(g), tokens, 0);
    auto run_at = [&](Level level) {
      set_simd_level(level);
      auto policy = heuristics::make_policy("global");
      sim::SimOptions options;
      options.seed = 41;
      options.max_steps = 50'000;
      return sim::run(inst, *policy, options);
    };
    const auto scalar = run_at(Level::kScalar);
    EXPECT_GT(scalar.steps, 0);
    for (const Level level : supported_levels()) {
      if (level == Level::kScalar) continue;
      const std::string label =
          std::string(level_name(level)) + " tokens=" + std::to_string(tokens);
      const auto vectored = run_at(level);
      EXPECT_EQ(vectored.steps, scalar.steps) << label;
      EXPECT_EQ(vectored.bandwidth, scalar.bandwidth) << label;
      EXPECT_EQ(vectored.stats.useful_moves, scalar.stats.useful_moves)
          << label;
      EXPECT_EQ(vectored.stats.moves_per_step, scalar.stats.moves_per_step)
          << label;
      expect_schedules_identical(vectored.schedule, scalar.schedule,
                                 label.c_str());
    }
  }
}

}  // namespace
}  // namespace ocd::util::simd
