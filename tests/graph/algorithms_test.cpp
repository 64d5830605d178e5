#include "ocd/graph/algorithms.hpp"

#include <gtest/gtest.h>

namespace ocd {
namespace {

/// Directed path 0 -> 1 -> 2 -> 3.
Digraph path4() {
  Digraph g(4);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  g.add_arc(2, 3, 1);
  return g;
}

/// Bidirectional cycle over n vertices.
Digraph cycle(std::int32_t n) {
  Digraph g(n);
  for (VertexId v = 0; v < n; ++v) {
    g.add_arc(v, (v + 1) % n, 1);
    g.add_arc((v + 1) % n, v, 1);
  }
  return g;
}

TEST(GraphAlgorithms, BfsDistancesOnPath) {
  const Digraph g = path4();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<std::int32_t>{0, 1, 2, 3}));
  const auto d3 = bfs_distances(g, 3);
  EXPECT_EQ(d3[0], kUnreachable);
  EXPECT_EQ(d3[3], 0);
}

TEST(GraphAlgorithms, BfsDistancesToFollowsArcsBackward) {
  const Digraph g = path4();
  const auto d = bfs_distances_to(g, 3);
  EXPECT_EQ(d, (std::vector<std::int32_t>{3, 2, 1, 0}));
  const auto d0 = bfs_distances_to(g, 0);
  EXPECT_EQ(d0[1], kUnreachable);
}

TEST(GraphAlgorithms, StrongConnectivity) {
  EXPECT_FALSE(is_strongly_connected(path4()));
  EXPECT_TRUE(is_strongly_connected(cycle(5)));
  Digraph single(1);
  EXPECT_TRUE(is_strongly_connected(single));
}

TEST(GraphAlgorithms, WeakConnectivity) {
  EXPECT_TRUE(is_weakly_connected(path4()));
  Digraph disconnected(3);
  disconnected.add_arc(0, 1, 1);
  EXPECT_FALSE(is_weakly_connected(disconnected));
}

TEST(GraphAlgorithms, DiameterOfCycle) {
  EXPECT_EQ(diameter(cycle(6)), 3);
  EXPECT_EQ(diameter(cycle(7)), 3);
  EXPECT_EQ(diameter(path4()), kUnreachable);  // not strongly connected
  Digraph single(1);
  EXPECT_EQ(diameter(single), 0);
}

TEST(GraphAlgorithms, InBallFollowsIncomingPaths) {
  const Digraph g = path4();
  // Vertices within radius 1 of vertex 2 (backward): {1, 2}.
  EXPECT_EQ(in_ball(g, 2, 1), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(in_ball(g, 2, 0), (std::vector<VertexId>{2}));
  EXPECT_EQ(in_ball(g, 3, 3), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_THROW(in_ball(g, 3, -1), ContractViolation);
}

TEST(GraphAlgorithms, BfsRequiresValidSource) {
  const Digraph g = path4();
  EXPECT_THROW(bfs_distances(g, 4), ContractViolation);
  EXPECT_THROW(bfs_distances_to(g, -1), ContractViolation);
}

}  // namespace
}  // namespace ocd
