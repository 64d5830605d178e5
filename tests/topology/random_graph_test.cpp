#include "ocd/topology/random_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ocd/graph/algorithms.hpp"

namespace ocd::topology {
namespace {

TEST(RandomGraph, DefaultEdgeProbabilityFormula) {
  EXPECT_NEAR(default_edge_probability(100), 2.0 * std::log(100.0) / 100.0,
              1e-12);
  EXPECT_LE(default_edge_probability(2), 1.0);
  EXPECT_THROW(default_edge_probability(1), ContractViolation);
}

TEST(RandomGraph, ArcsComeInBidirectionalPairs) {
  Rng rng(42);
  const Digraph g = random_overlay(30, rng);
  for (const Arc& arc : g.arcs()) {
    EXPECT_TRUE(g.has_arc(arc.to, arc.from))
        << "missing reverse of (" << arc.from << "," << arc.to << ")";
  }
}

TEST(RandomGraph, CapacitiesWithinPaperRange) {
  Rng rng(7);
  const Digraph g = random_overlay(50, rng);
  for (const Arc& arc : g.arcs()) {
    EXPECT_GE(arc.capacity, 3);
    EXPECT_LE(arc.capacity, 15);
  }
}

TEST(RandomGraph, CustomCapacityRangeRespected) {
  Rng rng(7);
  RandomGraphOptions options;
  options.capacities = CapacityRange{1, 2};
  const Digraph g = random_overlay(20, options, rng);
  for (const Arc& arc : g.arcs()) {
    EXPECT_GE(arc.capacity, 1);
    EXPECT_LE(arc.capacity, 2);
  }
}

TEST(RandomGraph, DeterministicForFixedSeed) {
  Rng rng_a(99);
  Rng rng_b(99);
  const Digraph a = random_overlay(40, rng_a);
  const Digraph b = random_overlay(40, rng_b);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId i = 0; i < a.num_arcs(); ++i) {
    EXPECT_EQ(a.arc(i).from, b.arc(i).from);
    EXPECT_EQ(a.arc(i).to, b.arc(i).to);
    EXPECT_EQ(a.arc(i).capacity, b.arc(i).capacity);
  }
}

TEST(RandomGraph, ZeroProbabilityStillConnectedViaBackbone) {
  Rng rng(5);
  RandomGraphOptions options;
  options.edge_probability = 1e-9;
  const Digraph g = random_overlay(25, options, rng);
  EXPECT_TRUE(is_strongly_connected(g));
  // The backbone alone is a Hamiltonian cycle: 2n arcs.
  EXPECT_GE(g.num_arcs(), 2 * 25);
}

TEST(RandomGraph, DisconnectableWhenForcingDisabled) {
  Rng rng(5);
  RandomGraphOptions options;
  options.edge_probability = 1e-9;
  options.force_connected = false;
  const Digraph g = random_overlay(25, options, rng);
  EXPECT_FALSE(is_strongly_connected(g));
}

TEST(SparseRandomOverlay, ConnectedWithExpectedDegree) {
  Rng rng(13);
  const Digraph g = sparse_random_overlay(5000, 8.0, rng);
  EXPECT_EQ(g.num_vertices(), 5000);
  EXPECT_TRUE(is_strongly_connected(g));
  // Expected arcs ~ 2 * n * degree / 2 = n * degree, plus at most the
  // 2n-arc backbone; allow a generous sampling band.
  const double expected = 5000.0 * 8.0;
  EXPECT_GT(g.num_arcs(), expected * 0.7);
  EXPECT_LT(g.num_arcs(), expected * 1.3 + 2 * 5000);
  for (const Arc& arc : g.arcs()) {
    EXPECT_TRUE(g.has_arc(arc.to, arc.from));
    EXPECT_GE(arc.capacity, 3);
    EXPECT_LE(arc.capacity, 15);
  }
}

TEST(SparseRandomOverlay, DeterministicForFixedSeed) {
  Rng rng_a(77);
  Rng rng_b(77);
  const Digraph a = sparse_random_overlay(800, 6.0, rng_a);
  const Digraph b = sparse_random_overlay(800, 6.0, rng_b);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId i = 0; i < a.num_arcs(); ++i) {
    EXPECT_EQ(a.arc(i).from, b.arc(i).from);
    EXPECT_EQ(a.arc(i).to, b.arc(i).to);
    EXPECT_EQ(a.arc(i).capacity, b.arc(i).capacity);
  }
}

TEST(SparseRandomOverlay, ZeroDegreeIsJustTheBackbone) {
  Rng rng(3);
  const Digraph g = sparse_random_overlay(50, 0.0, rng);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_EQ(g.num_arcs(), 2 * 50);
}

class RandomGraphSizeSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(RandomGraphSizeSweep, ConnectedAndReasonablyDense) {
  const std::int32_t n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  const Digraph g = random_overlay(n, rng);
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_TRUE(is_strongly_connected(g));
  // Expected arcs ~ 2 * C(n,2) * p = 2 n ln n; allow a generous band.
  const double expected = 2.0 * n * std::log(n);
  EXPECT_GT(g.num_arcs(), expected * 0.4);
  EXPECT_LT(g.num_arcs(), expected * 2.5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomGraphSizeSweep,
                         ::testing::Values(10, 20, 50, 100, 200, 400));

}  // namespace
}  // namespace ocd::topology
