#include "ocd/heuristics/random_useful.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

TEST(RandomPolicy, NeverSendsTokensPeerAlreadyHeld) {
  // With staleness 0 the peer view is exact, so every send targets a
  // token the receiver lacked at the start of the step.  Same-step
  // collisions between independent senders are still possible (the
  // paper's "duplicating sends that other peers have also sent"), so
  // redundancy need not be zero — but no send may ever carry a token
  // the receiver possessed at the step boundary.
  Rng rng(2);
  Digraph g = topology::random_overlay(20, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 12, 0);
  RandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  const auto trace = core::possession_trace(inst, result.schedule);
  for (std::size_t i = 0; i < result.schedule.steps().size(); ++i) {
    const core::Timestep step = result.schedule.step(i);
    for (const auto& send : step.sends()) {
      const VertexId to = inst.graph().arc(send.arc).to;
      EXPECT_FALSE(
          send.tokens.intersects(trace[i][static_cast<std::size_t>(to)]))
          << "step " << i;
    }
  }
}

TEST(RandomPolicy, StalenessIntroducesRedundancy) {
  Rng rng(3);
  Digraph g = topology::random_overlay(25, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 16, 0);

  RandomPolicy fresh;
  sim::SimOptions fresh_options;
  fresh_options.seed = 9;
  const auto fresh_result = sim::run(inst, fresh, fresh_options);

  RandomPolicy stale;
  sim::SimOptions stale_options;
  stale_options.seed = 9;
  stale_options.staleness = 3;
  const auto stale_result = sim::run(inst, stale, stale_options);

  ASSERT_TRUE(fresh_result.success);
  ASSERT_TRUE(stale_result.success);
  // Stale peer views add genuinely-already-delivered resends on top of
  // the same-step collisions fresh knowledge already suffers.
  EXPECT_GT(stale_result.stats.redundant_moves,
            fresh_result.stats.redundant_moves);
  EXPECT_GE(stale_result.bandwidth, fresh_result.bandwidth);
}

TEST(RandomPolicy, RespectsCapacityExactly) {
  // Source with 10 tokens, single arc of capacity 3: exactly 3 per step.
  Digraph g(2);
  g.add_arc(0, 1, 3);
  core::Instance inst(std::move(g), 10);
  for (TokenId t = 0; t < 10; ++t) {
    inst.add_have(0, t);
    inst.add_want(1, t);
  }
  RandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 4);  // ceil(10 / 3)
  for (std::size_t i = 0; i + 1 < result.schedule.steps().size(); ++i)
    EXPECT_EQ(result.schedule.steps()[i].moves(), 3);
}

TEST(RandomPolicy, DifferentSeedsUsuallyDiffer) {
  Rng rng(5);
  Digraph g = topology::random_overlay(20, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 30, 0);
  int differing = 0;
  sim::SimOptions a_options;
  sim::SimOptions b_options;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    RandomPolicy a;
    RandomPolicy b;
    a_options.seed = seed;
    b_options.seed = seed + 1000;
    const auto ra = sim::run(inst, a, a_options);
    const auto rb = sim::run(inst, b, b_options);
    if (ra.bandwidth != rb.bandwidth || ra.steps != rb.steps) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RandomPolicy, FloodsTokensNobodyWants) {
  // Vertex 1 wants nothing, yet the random heuristic still pushes
  // tokens to it (it is a flooding heuristic).
  Digraph g(2);
  g.add_arc(0, 1, 2);
  core::Instance inst(std::move(g), 4);
  for (TokenId t = 0; t < 4; ++t) inst.add_have(0, t);
  inst.add_want(1, 0);  // wants only one
  RandomPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // The run ends as soon as wants are met, but with capacity 2 the very
  // first step may already overshoot the single wanted token.
  EXPECT_GE(result.bandwidth, 1);
  EXPECT_LE(result.steps, 2);
}

}  // namespace
}  // namespace ocd::heuristics
