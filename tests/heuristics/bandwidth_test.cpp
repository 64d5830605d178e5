#include "ocd/heuristics/bandwidth_saver.hpp"

#include <gtest/gtest.h>

#include "ocd/core/prune.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/random_useful.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

TEST(BandwidthPolicy, DeliversOnlyEventuallyUsefulTokens) {
  // Sparse wants: every token delivered to a vertex must be wanted by
  // it or forwarded later — i.e. pruning the schedule should remove
  // (almost) nothing compared to flooding heuristics.
  Rng rng(11);
  Digraph g = topology::random_overlay(30, rng);
  auto built =
      core::single_source_receiver_density(std::move(g), 12, 0, 0.25, rng);
  const core::Instance& inst = built.instance;
  ASSERT_GT(built.num_receivers, 0);

  BandwidthPolicy bandwidth;
  const auto bw_run = sim::run(inst, bandwidth);
  ASSERT_TRUE(bw_run.success);

  RandomPolicy random;
  const auto random_run = sim::run(inst, random);
  ASSERT_TRUE(random_run.success);

  // The bandwidth heuristic must use less bandwidth than flooding when
  // few vertices want the file (the paper's Figure 4 finding).
  EXPECT_LT(bw_run.bandwidth, random_run.bandwidth);
}

TEST(BandwidthPolicy, NoSpontaneousFloodToUninterestedLeaves) {
  // Star with one wanter: only the wanter's link should carry tokens.
  Digraph g(4);
  g.add_arc(0, 1, 2);
  g.add_arc(0, 2, 2);
  g.add_arc(0, 3, 2);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(2, 0);
  inst.add_want(2, 1);
  BandwidthPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.bandwidth, 2);  // exactly the wanted tokens
  for (const auto& step : result.schedule.steps()) {
    for (const auto& send : step.sends())
      EXPECT_EQ(inst.graph().arc(send.arc).to, 2);
  }
}

TEST(BandwidthPolicy, UsesRelaysWhenNecessary) {
  // Wanter two hops away: the intermediate (uninterested) vertex is the
  // closest one-hop-knowledge vertex and must be fed.
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);
  BandwidthPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.steps, 2);
  EXPECT_EQ(result.bandwidth, 2);
}

TEST(BandwidthPolicy, ElectsSingleRelayAmongEquivalentPaths) {
  // Diamond: 0 -> {1, 2} -> 3; only one relay should receive the token,
  // and it is vertex 1: the lowest-id frontier vertex at minimum
  // distance.  Vertex 2's arcs come first, so an election that followed
  // arc order (or sources in descending id) would pick vertex 2.
  Digraph g(4);
  g.add_arc(0, 2, 1);
  g.add_arc(2, 3, 1);
  const ArcId relay_arc = g.add_arc(0, 1, 1);
  g.add_arc(1, 3, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(3, 0);
  BandwidthPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.bandwidth, 2);  // one relay + one delivery
  const core::Timestep first = result.schedule.steps().front();
  ASSERT_EQ(first.sends().size(), 1U);
  EXPECT_EQ(first.sends()[0].arc, relay_arc);
}

TEST(BandwidthPolicy, PrunedBandwidthCloseToRaw) {
  Rng rng(13);
  Digraph g = topology::random_overlay(25, rng);
  auto built =
      core::single_source_receiver_density(std::move(g), 10, 0, 0.3, rng);
  const core::Instance& inst = built.instance;
  BandwidthPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  const auto pruned = core::prune(inst, result.schedule);
  // Cautious sending means little prunable waste; allow a small slack
  // for relay elections that became moot.
  EXPECT_LE(result.bandwidth, pruned.bandwidth() * 2);
}

TEST(BandwidthPolicy, HandlesMultiSourceInstances) {
  Rng rng(14);
  Digraph g = topology::random_overlay(20, rng);
  core::Instance inst =
      core::subdivided_files_random_senders(std::move(g), 8, 2, rng);
  BandwidthPolicy policy;
  const auto result = sim::run(inst, policy);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(core::is_successful(inst, result.schedule));
}

}  // namespace
}  // namespace ocd::heuristics
