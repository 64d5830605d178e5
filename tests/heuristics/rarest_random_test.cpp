#include "ocd/heuristics/rarest_random.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

TEST(RarestRandom, RequestsNeverExceedArcCapacity) {
  Rng rng(1);
  Digraph g = topology::random_overlay(20, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 24, 0);
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  for (const auto& step : result.schedule.steps()) {
    for (const auto& send : step.sends()) {
      EXPECT_LE(send.tokens.count(),
                static_cast<std::size_t>(inst.graph().arc(send.arc).capacity));
    }
  }
}

TEST(RarestRandom, NoDuplicateRequestsWithinAStep) {
  // Each vertex requests a token from at most one in-neighbor, so a
  // token is never delivered twice to one vertex in a single step, and
  // with fresh knowledge never redundantly at all.
  Rng rng(2);
  Digraph g = topology::random_overlay(25, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 16, 0);
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.redundant_moves, 0);
}

TEST(RarestRandom, PrefersRareTokens) {
  // Source holds tokens {0,1}; a second holder already spreads token 1
  // widely, making token 0 the rare one.  With capacity 1 the receiver
  // must request the rarer token 0 first.
  Digraph g(4);
  g.add_arc(0, 3, 1);  // the link under test
  g.add_arc(1, 2, 1);  // irrelevant, keeps vertices connected
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_have(1, 1);
  inst.add_have(2, 1);  // token 1 held by 3 vertices, token 0 by 1
  inst.add_want(3, 0);
  inst.add_want(3, 1);
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  const auto& first_step = result.schedule.steps().front();
  ASSERT_FALSE(first_step.sends().empty());
  for (const auto& send : first_step.sends()) {
    if (inst.graph().arc(send.arc).from == 0) {
      EXPECT_TRUE(send.tokens.test(0))
          << "rarest token should be requested first";
    }
  }
}

TEST(RarestRandom, WantedTokensBeforeFloodTokens) {
  // Receiver wants token 1 only; capacity 1: the first delivery must be
  // the wanted token even though token 0 is rarer.
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 1);
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 1);
  const core::Timestep first = result.schedule.step(0);
  EXPECT_TRUE(first.sends()[0].tokens.test(1));
}

TEST(RarestRandom, DiversifiesAcrossBranches) {
  // Star: source with 2 unit-capacity out-arcs and 4 tokens; after one
  // step the two receivers should hold different tokens (diversity),
  // which the shared rarity order plus per-arc budgets guarantees here.
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(0, 2, 1);
  g.add_arc(1, 2, 1);
  g.add_arc(2, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  for (VertexId v : {1, 2}) {
    inst.add_want(v, 0);
    inst.add_want(v, 1);
  }
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // Optimal here is 2 steps: diversify then swap; a non-diversifying
  // policy would need 3.
  EXPECT_EQ(result.steps, 2);
}

TEST(RarestRandom, FloodsBeyondWantSets) {
  // Relay vertex wants nothing but must still receive (flood) for the
  // distant wanter to complete.
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);
  RarestRandomPolicy policy;
  const auto result = sim::run(inst, policy);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.steps, 2);
}

}  // namespace
}  // namespace ocd::heuristics
