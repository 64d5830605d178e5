#include "ocd/graph/digraph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace ocd {
namespace {

std::vector<ArcId> ids(std::span<const ArcId> arcs) {
  return {arcs.begin(), arcs.end()};
}

/// Arcs added with tails and heads interleaved, so each vertex's arcs
/// are scattered over the id range.
Digraph interleaved_graph() {
  Digraph g(4);
  g.add_arc(2, 0, 1);  // 0
  g.add_arc(0, 3, 2);  // 1
  g.add_arc(2, 3, 3);  // 2
  g.add_arc(0, 1, 4);  // 3
  g.add_arc(3, 0, 5);  // 4
  g.add_arc(0, 2, 6);  // 5
  g.add_arc(1, 3, 7);  // 6
  g.add_arc(2, 1, 8);  // 7
  return g;
}

void expect_interleaved_adjacency(const Digraph& g) {
  EXPECT_EQ(ids(g.out_arcs(0)), (std::vector<ArcId>{1, 3, 5}));
  EXPECT_EQ(ids(g.out_arcs(1)), (std::vector<ArcId>{6}));
  EXPECT_EQ(ids(g.out_arcs(2)), (std::vector<ArcId>{0, 2, 7}));
  EXPECT_EQ(ids(g.out_arcs(3)), (std::vector<ArcId>{4}));
  EXPECT_EQ(ids(g.in_arcs(0)), (std::vector<ArcId>{0, 4}));
  EXPECT_EQ(ids(g.in_arcs(1)), (std::vector<ArcId>{3, 7}));
  EXPECT_EQ(ids(g.in_arcs(2)), (std::vector<ArcId>{5}));
  EXPECT_EQ(ids(g.in_arcs(3)), (std::vector<ArcId>{1, 2, 6}));
}

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_arcs(), 0);
}

TEST(Digraph, AddArcBuildsAdjacency) {
  Digraph g(3);
  const ArcId a = g.add_arc(0, 1, 5);
  const ArcId b = g.add_arc(1, 2, 7);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.arc(a).from, 0);
  EXPECT_EQ(g.arc(a).to, 1);
  EXPECT_EQ(g.arc(a).capacity, 5);
  EXPECT_EQ(g.out_arcs(0).size(), 1u);
  EXPECT_EQ(g.out_arcs(0)[0], a);
  EXPECT_EQ(g.in_arcs(2).size(), 1u);
  EXPECT_EQ(g.in_arcs(2)[0], b);
  EXPECT_TRUE(g.out_arcs(2).empty());
}

TEST(Digraph, RejectsSelfArcsAndDuplicates) {
  Digraph g(2);
  EXPECT_THROW(g.add_arc(0, 0, 1), ContractViolation);
  g.add_arc(0, 1, 1);
  EXPECT_THROW(g.add_arc(0, 1, 2), ContractViolation);
}

TEST(Digraph, RejectsInvalidCapacityOrVertex) {
  Digraph g(2);
  EXPECT_THROW(g.add_arc(0, 1, 0), ContractViolation);
  EXPECT_THROW(g.add_arc(0, 2, 1), ContractViolation);
  EXPECT_THROW(g.add_arc(-1, 1, 1), ContractViolation);
}

TEST(Digraph, AddOrMergeAccumulatesCapacity) {
  Digraph g(2);
  const ArcId a = g.add_or_merge_arc(0, 1, 3);
  const ArcId b = g.add_or_merge_arc(0, 1, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.arc(a).capacity, 7);
}

TEST(Digraph, FindArcDistinguishesDirections) {
  Digraph g(2);
  const ArcId fwd = g.add_arc(0, 1, 1);
  EXPECT_EQ(g.find_arc(0, 1), fwd);
  EXPECT_EQ(g.find_arc(1, 0), -1);
  EXPECT_TRUE(g.has_arc(0, 1));
  EXPECT_FALSE(g.has_arc(1, 0));
}

TEST(Digraph, NeighborsAndCapacities) {
  Digraph g(4);
  g.add_arc(0, 1, 3);
  g.add_arc(0, 2, 4);
  g.add_arc(3, 0, 10);
  EXPECT_EQ(g.out_neighbors(0), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(g.in_neighbors(0), (std::vector<VertexId>{3}));
  EXPECT_EQ(g.out_capacity(0), 7);
  EXPECT_EQ(g.in_capacity(0), 10);
  EXPECT_EQ(g.in_capacity(3), 0);
}

TEST(Digraph, AdjacencyKeepsInsertionOrder) {
  const Digraph stale = interleaved_graph();
  ASSERT_FALSE(stale.finalized());
  expect_interleaved_adjacency(stale);  // first read lays out the CSR
  Digraph finalized = interleaved_graph();
  finalized.finalize();
  ASSERT_TRUE(finalized.finalized());
  expect_interleaved_adjacency(finalized);
}

TEST(Digraph, ReadAfterAddShowsTheNewArc) {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  EXPECT_EQ(ids(g.out_arcs(1)), (std::vector<ArcId>{1}));
  EXPECT_EQ(ids(g.in_arcs(0)), (std::vector<ArcId>{}));
  EXPECT_TRUE(g.finalized());

  const ArcId added = g.add_arc(1, 0, 4);
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(ids(g.out_arcs(1)), (std::vector<ArcId>{1, added}));
  EXPECT_EQ(ids(g.in_arcs(0)), (std::vector<ArcId>{added}));
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.out_capacity(1), 5);
  EXPECT_EQ(g.in_neighbors(0), (std::vector<VertexId>{1}));
}

TEST(Digraph, LookupsAgreeBeforeAndAfterFinalize) {
  Digraph stale = interleaved_graph();
  Digraph finalized = interleaved_graph();
  finalized.finalize();
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) {
      SCOPED_TRACE(::testing::Message() << "(" << u << ", " << v << ")");
      EXPECT_EQ(stale.find_arc(u, v), finalized.find_arc(u, v));
      EXPECT_EQ(stale.has_arc(u, v), finalized.has_arc(u, v));
    }
  }
  EXPECT_EQ(finalized.find_arc(2, 3), 2);
  EXPECT_EQ(finalized.find_arc(3, 2), -1);
  ASSERT_FALSE(stale.finalized());

  // Merging into an existing arc keeps the CSR; a new arc invalidates it.
  EXPECT_EQ(stale.add_or_merge_arc(0, 2, 10), 5);
  EXPECT_EQ(finalized.add_or_merge_arc(0, 2, 10), 5);
  EXPECT_TRUE(finalized.finalized());
  EXPECT_EQ(stale.arc(5).capacity, 16);
  EXPECT_EQ(finalized.arc(5).capacity, 16);
  EXPECT_EQ(stale.add_or_merge_arc(3, 2, 9), 8);
  EXPECT_EQ(finalized.add_or_merge_arc(3, 2, 9), 8);
  EXPECT_FALSE(finalized.finalized());
  EXPECT_EQ(stale.find_arc(3, 2), 8);
  EXPECT_EQ(finalized.find_arc(3, 2), 8);
  EXPECT_EQ(ids(stale.out_arcs(3)), (std::vector<ArcId>{4, 8}));
  EXPECT_EQ(ids(finalized.in_arcs(2)), (std::vector<ArcId>{5, 8}));
}

TEST(Digraph, DuplicateThrowsAfterFinalize) {
  Digraph g = interleaved_graph();
  g.finalize();
  EXPECT_THROW(g.add_arc(0, 3, 1), ContractViolation);
  EXPECT_THROW(g.add_arc(2, 1, 1), ContractViolation);
  EXPECT_EQ(g.num_arcs(), 8);
  EXPECT_TRUE(g.finalized());
  expect_interleaved_adjacency(g);
}

TEST(Digraph, GeneratorsAndInstancesReturnFinalizedGraphs) {
  Rng rng(11);
  EXPECT_TRUE(topology::random_overlay(60, rng).finalized());
  EXPECT_TRUE(topology::sparse_random_overlay(300, 4.0, rng).finalized());
  EXPECT_TRUE(topology::transit_stub(
                  topology::transit_stub_options_for_size(100), rng)
                  .finalized());
  Digraph hand_built(2);
  hand_built.add_arc(0, 1, 1);
  hand_built.add_arc(1, 0, 1);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(hand_built), 4, 0);
  EXPECT_TRUE(inst.graph().finalized());
}

TEST(Digraph, ArcAccessOutOfRangeThrows) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  EXPECT_THROW((void)g.arc(1), ContractViolation);
  EXPECT_THROW((void)g.arc(-1), ContractViolation);
}

}  // namespace
}  // namespace ocd
