#include "ocd/heuristics/global_greedy.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/random_useful.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

TEST(GlobalGreedy, NeverDuplicatesDeliveriesWithinOrAcrossSteps) {
  Rng rng(21);
  Digraph g = topology::random_overlay(25, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 16, 0);
  GlobalGreedyPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // Coordination means zero redundancy.
  EXPECT_EQ(result.stats.redundant_moves, 0);
  // Useful moves exactly equal bandwidth, and each (vertex, token) pair
  // arrives at most once.
  EXPECT_EQ(result.stats.useful_moves, result.bandwidth);
  EXPECT_LE(result.bandwidth,
            static_cast<std::int64_t>(inst.num_vertices()) * inst.num_tokens());
}

TEST(GlobalGreedy, SaturatesSourceCapacityOnBroadcast) {
  // Star from a source with 3 unit arcs and 3 tokens wanted everywhere:
  // the greedy fills all three arcs every step.
  Digraph g(4);
  for (VertexId v = 1; v < 4; ++v) {
    g.add_arc(0, v, 1);
    g.add_arc(v, 0, 1);
  }
  core::Instance inst(std::move(g), 3);
  for (TokenId t = 0; t < 3; ++t) inst.add_have(0, t);
  for (VertexId v = 1; v < 4; ++v)
    for (TokenId t = 0; t < 3; ++t) inst.add_want(v, t);
  GlobalGreedyPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.schedule.steps()[0].moves(), 3);
}

TEST(GlobalGreedy, DiversityEnablesPeerExchange) {
  // Two receivers on unit links plus a peer link: diversity (different
  // tokens to each) finishes in 2 steps; sending the same token to both
  // would need 3.  The star test above plus this pins the behaviour.
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
  GlobalGreedyPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 2);
}

TEST(GlobalGreedy, WantsPrioritizedOverFloods) {
  // Capacity-1 arc to a vertex wanting token 1 while token 0 is rarer:
  // the want pass must win the slot.
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 1);
  GlobalGreedyPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 1);
  const core::Timestep first = result.schedule.step(0);
  EXPECT_TRUE(first.sends()[0].tokens.test(1));
}

TEST(GlobalGreedy, AtLeastAsFastAsRandomOnBroadcast) {
  Rng rng(22);
  Digraph g = topology::random_overlay(30, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 24, 0);
  GlobalGreedyPolicy global;
  RandomPolicy random;
  const auto global_run = sim::run(inst, global);
  const auto random_run = sim::run(inst, random);
  ASSERT_TRUE(global_run.success);
  ASSERT_TRUE(random_run.success);
  EXPECT_LE(global_run.steps, random_run.steps + 1);
  EXPECT_LE(global_run.bandwidth, random_run.bandwidth);
}

TEST(GlobalGreedy, CompletesMultiFileWorkload) {
  Rng rng(23);
  Digraph g = topology::random_overlay(40, rng);
  core::Instance inst = core::subdivided_files(std::move(g), 32, 8, 0);
  GlobalGreedyPolicy policy;
  const auto result = sim::run(inst, policy);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(core::is_successful(inst, result.schedule));
}

}  // namespace
}  // namespace ocd::heuristics
