#include "ocd/heuristics/architectures.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::heuristics {
namespace {

core::Instance broadcast(std::int32_t n, std::int32_t tokens,
                         std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

TEST(Architectures, FactoryKnowsBaselines) {
  EXPECT_NE(make_policy("overcast-tree"), nullptr);
  EXPECT_NE(make_policy("splitstream-forest"), nullptr);
  EXPECT_NE(make_policy("fast-replica"), nullptr);
  EXPECT_EQ(extended_policy_names().size(), 8u);
  // The paper's five stay unchanged.
  EXPECT_EQ(all_policy_names().size(), 5u);
}

TEST(TreePolicy, TreeSpansAllVerticesAndCompletes) {
  const auto inst = broadcast(20, 10, 1);
  TreePolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // A bidirectional spanning tree over n vertices has 2(n-1) arcs.
  EXPECT_EQ(policy.tree_arcs().size(),
            2u * static_cast<std::size_t>(inst.num_vertices() - 1));
  // Only tree arcs ever carry tokens.
  for (const auto& step : result.schedule.steps()) {
    for (const auto& send : step.sends()) {
      EXPECT_NE(std::find(policy.tree_arcs().begin(),
                          policy.tree_arcs().end(), send.arc),
                policy.tree_arcs().end());
    }
  }
}

TEST(TreePolicy, NoRedundantTraffic) {
  // Fresh peer knowledge + a tree (single path to every vertex) means
  // no duplicate deliveries at all.
  const auto inst = broadcast(15, 8, 2);
  TreePolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.redundant_moves, 0);
  EXPECT_EQ(result.bandwidth,
            static_cast<std::int64_t>(inst.num_vertices() - 1) *
                inst.num_tokens());
}

TEST(TreePolicy, SlowerThanMeshOnBroadcast) {
  // The classic single-tree weakness: everything funnels through one
  // structure while the mesh (local) exploits every link.
  const auto inst = broadcast(30, 24, 3);
  TreePolicy tree;
  const auto tree_run = sim::run(inst, tree);
  auto mesh = make_policy("local");
  const auto mesh_run = sim::run(inst, *mesh);
  ASSERT_TRUE(tree_run.success);
  ASSERT_TRUE(mesh_run.success);
  EXPECT_GE(tree_run.steps, mesh_run.steps);
}

TEST(StripedForest, CompletesAndRespectsStripes) {
  const auto inst = broadcast(20, 12, 4);
  StripedForestPolicy policy(4);
  EXPECT_EQ(policy.stripes(), 4);
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(core::is_successful(inst, result.schedule));
}

TEST(StripedForest, SingleStripeDegeneratesToATree) {
  const auto inst = broadcast(15, 6, 5);
  StripedForestPolicy policy(1);
  const auto result = sim::run(inst, policy);
  EXPECT_TRUE(result.success);
}

TEST(StripedForest, RejectsBadStripeCounts) {
  EXPECT_THROW(StripedForestPolicy(0), ContractViolation);
  EXPECT_THROW(StripedForestPolicy(33), ContractViolation);
}

TEST(StripedForest, UsuallyFasterThanSingleTree) {
  // Striping spreads interior load: across seeds the forest should win
  // (or tie) on most broadcasts.
  int forest_wins_or_ties = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = broadcast(25, 24, 100 + seed);
    TreePolicy tree;
    StripedForestPolicy forest(4);
    sim::SimOptions options;
    options.seed = seed;
    const auto tree_run = sim::run(inst, tree, options);
    const auto forest_run = sim::run(inst, forest, options);
    ASSERT_TRUE(tree_run.success);
    ASSERT_TRUE(forest_run.success);
    if (forest_run.steps <= tree_run.steps) ++forest_wins_or_ties;
  }
  EXPECT_GE(forest_wins_or_ties, 3);
}

TEST(Architectures, MultiSourceInstancesStillComplete) {
  Rng rng(6);
  Digraph g = topology::random_overlay(24, rng);
  const auto inst =
      core::subdivided_files_random_senders(std::move(g), 12, 3, rng);
  for (const std::string name :
       {"overcast-tree", "splitstream-forest", "fast-replica"}) {
    auto policy = make_policy(name);
    sim::SimOptions options;
    options.max_steps = 20'000;
    const auto result = sim::run(inst, *policy, options);
    EXPECT_TRUE(result.success) << name;
  }
}


TEST(FastReplica, ScatterBlocksAreDisjointAcrossNeighbors) {
  const auto inst = broadcast(20, 16, 7);
  FastReplicaPolicy policy;
  const auto result = sim::run(inst, policy);
  ASSERT_TRUE(result.success);
  // In the first timestep the source sends pairwise-disjoint blocks.
  TokenSet seen(static_cast<std::size_t>(inst.num_tokens()));
  const core::Timestep first = result.schedule.step(0);
  for (const auto& send : first.sends()) {
    if (inst.graph().arc(send.arc).from != 0) continue;
    EXPECT_FALSE(seen.intersects(send.tokens));
    seen |= send.tokens;
  }
  EXPECT_FALSE(seen.empty());
}

TEST(FastReplica, FasterThanSingleTreeOnBroadcast) {
  int wins_or_ties = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = broadcast(25, 24, 300 + seed);
    TreePolicy tree;
    FastReplicaPolicy fast;
    sim::SimOptions options;
    options.seed = seed;
    const auto tree_run = sim::run(inst, tree, options);
    const auto fast_run = sim::run(inst, fast, options);
    ASSERT_TRUE(tree_run.success);
    ASSERT_TRUE(fast_run.success);
    if (fast_run.steps <= tree_run.steps) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, 4);
}

}  // namespace
}  // namespace ocd::heuristics
