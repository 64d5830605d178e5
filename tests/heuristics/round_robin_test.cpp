#include "ocd/heuristics/round_robin.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

TEST(RoundRobin, CyclesThroughTokensOnNarrowLink) {
  // One arc of capacity 1, three tokens: round robin must send 0,1,2
  // over three steps (receiver wants all three).
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 3);
  for (TokenId t = 0; t < 3; ++t) {
    inst.add_have(0, t);
    inst.add_want(1, t);
  }
  RoundRobinPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 3);
  EXPECT_EQ(result.bandwidth, 3);
  // Step i sends token i (circular order, no repetitions until wrap).
  for (std::size_t i = 0; i < 3; ++i) {
    const core::Timestep step = result.schedule.step(i);
    const core::SendRange sends = step.sends();
    ASSERT_EQ(sends.size(), 1u);
    EXPECT_TRUE(sends[0].tokens.test(static_cast<TokenId>(i)));
  }
}

TEST(RoundRobin, ResendsAfterWrapAround) {
  // Receiver already holds all tokens but wants one it lacks... instead:
  // verify redundancy arises when the link is revisited: two tokens,
  // capacity 2, but receiver keeps receiving while another vertex still
  // needs tokens.
  Digraph g(3);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(2, 0);
  inst.add_want(2, 1);
  RoundRobinPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // Vertex 0 re-sends to 1 every step; expect redundant moves.
  EXPECT_GT(result.stats.redundant_moves, 0);
}

TEST(RoundRobin, SkipsTokensItDoesNotHave) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 4);
  inst.add_have(0, 1);
  inst.add_have(0, 3);
  inst.add_want(1, 1);
  inst.add_want(1, 3);
  RoundRobinPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 2);
  // Only tokens 1 and 3 ever cross.
  for (const auto& step : result.schedule.steps()) {
    for (const auto& send : step.sends()) {
      EXPECT_FALSE(send.tokens.test(0));
      EXPECT_FALSE(send.tokens.test(2));
    }
  }
}

TEST(RoundRobin, VertexWithNoTokensSendsNothing) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 0, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(1, 0);
  RoundRobinPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // Vertex 1 never had anything to send before completion.
  for (const auto& step : result.schedule.steps()) {
    for (const auto& send : step.sends()) EXPECT_EQ(send.arc, 0);
  }
}

TEST(RoundRobin, SlowerThanInformedPoliciesOnBroadcast) {
  Rng rng(6);
  Digraph g = topology::random_overlay(30, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 20, 0);
  RoundRobinPolicy rr;
  const auto rr_result = sim::run(inst, rr);
  auto global = heuristics::make_policy("global");
  const auto global_result = sim::run(inst, *global);
  ASSERT_TRUE(rr_result.success);
  ASSERT_TRUE(global_result.success);
  EXPECT_GE(rr_result.steps, global_result.steps);
  EXPECT_GT(rr_result.bandwidth, global_result.bandwidth);
}

}  // namespace
}  // namespace ocd::heuristics
