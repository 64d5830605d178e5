#include "ocd/sim/gossip.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/graph/algorithms.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::sim {
namespace {

/// Bidirectional path 0 - 1 - 2 - 3.
core::Instance path4_instance() {
  Digraph g(4);
  for (VertexId v = 0; v < 3; ++v) {
    g.add_arc(v, v + 1, 2);
    g.add_arc(v + 1, v, 2);
  }
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(3, 0);
  return inst;
}

std::vector<TokenSet> initial_possession(const core::Instance& inst) {
  std::vector<TokenSet> p;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) p.push_back(inst.have(v));
  return p;
}

TEST(GossipState, KnowledgeTravelsOneHopPerStep) {
  const auto inst = path4_instance();
  GossipState gossip(inst);
  const auto possession = initial_possession(inst);

  gossip.advance(possession, 0);
  // After one round: vertex 1 knows vertex 0's state; vertex 3 doesn't.
  EXPECT_EQ(gossip.belief(1, 0).tokens.count(), 2u);
  EXPECT_EQ(gossip.belief(3, 0).observed_step, -1);
  EXPECT_EQ(gossip.age(3, 0, 0), GossipState::kUnknownAge);

  gossip.advance(possession, 1);
  gossip.advance(possession, 2);
  // After three rounds the far endpoint knows the source's state.
  EXPECT_EQ(gossip.belief(3, 0).tokens.count(), 2u);
}

TEST(GossipState, AgeBoundedByDistanceAfterWarmup) {
  Rng rng(3);
  Digraph g = topology::random_overlay(15, rng);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  std::vector<std::vector<std::int32_t>> dist;  // dist[w][v]
  for (VertexId w = 0; w < inst.num_vertices(); ++w)
    dist.push_back(bfs_distances(inst.graph(), w));
  GossipState gossip(inst);
  const auto possession = initial_possession(inst);

  const std::int64_t warmup = 20;
  for (std::int64_t step = 0; step <= warmup; ++step)
    gossip.advance(possession, step);

  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    for (VertexId w = 0; w < inst.num_vertices(); ++w) {
      // Undirected gossip distance <= directed hop distance.
      const auto bound = dist[static_cast<std::size_t>(w)]
                             [static_cast<std::size_t>(v)];
      if (bound == kUnreachable) continue;
      EXPECT_LE(gossip.age(v, w, warmup), bound) << v << " about " << w;
    }
  }
}

TEST(GossipState, BeliefsAreUnderApproximations) {
  // As possession grows, beliefs must always be subsets of the truth.
  const auto inst = path4_instance();
  GossipState gossip(inst);
  auto possession = initial_possession(inst);
  for (std::int64_t step = 0; step < 5; ++step) {
    gossip.advance(possession, step);
    for (VertexId v = 0; v < 4; ++v) {
      for (VertexId w = 0; w < 4; ++w) {
        EXPECT_TRUE(gossip.belief(v, w).tokens.is_subset_of(
            possession[static_cast<std::size_t>(w)]));
      }
    }
    // Simulate the token spreading one hop per step.
    if (step < 3)
      possession[static_cast<std::size_t>(step + 1)] = possession[0];
  }
}

TEST(GossipRarest, CompletesRelayChain) {
  const auto inst = path4_instance();
  GossipRarestPolicy policy;
  const auto result = run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(core::is_successful(inst, result.schedule));
  // Knowledge must first reach vertex 1 (1 step of gossip happens
  // within the first planning round), then the token relays; the total
  // stays within optimal (3) + diameter (3).
  EXPECT_LE(result.steps, 6);
}

TEST(GossipRarest, CompletesBroadcastWithinDiameterSlack) {
  Rng rng(9);
  Digraph g = topology::random_overlay(25, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 12, 0);
  const auto diam = diameter(inst.graph());

  GossipRarestPolicy gossip_policy;
  const auto gossip_run = run(inst, gossip_policy);
  ASSERT_TRUE(gossip_run.success);

  auto oracle = heuristics::make_policy("local");
  const auto oracle_run = run(inst, *oracle);
  ASSERT_TRUE(oracle_run.success);

  // Gossip pays at most ~a diameter of extra steps over the oracle
  // version of the same heuristic (beliefs lag by at most diameter).
  EXPECT_LE(gossip_run.steps, oracle_run.steps + 2 * diam + 2);
}

TEST(GossipRarest, RequestsAreAlwaysSatisfiable) {
  // Beliefs under-approximate possession, so the simulator must never
  // reject a gossip-driven send.  Run several seeds; any possession
  // violation would throw.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    Digraph g = topology::random_overlay(15, rng);
    const auto inst = core::single_source_all_receivers(std::move(g), 8, 0);
    GossipRarestPolicy policy;
    SimOptions options;
    options.seed = seed;
    EXPECT_NO_THROW({
      const auto result = run(inst, policy, options);
      EXPECT_TRUE(result.success) << "seed " << seed;
    });
  }
}

TEST(GossipRarest, StaysWithinLocalKnowledgeClass) {
  // Declared kLocalOnly: the runtime enforcement would throw if the
  // policy touched peer/aggregate/global accessors.  A successful run
  // certifies locality.
  const auto inst = path4_instance();
  GossipRarestPolicy policy;
  EXPECT_EQ(policy.knowledge_class(), KnowledgeClass::kLocalOnly);
  EXPECT_NO_THROW(run(inst, policy));
}

}  // namespace
}  // namespace ocd::sim
