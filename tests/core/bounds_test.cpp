#include "ocd/core/bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ocd/core/scenario.hpp"
#include "ocd/exact/bnb.hpp"
#include "ocd/graph/algorithms.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::core {
namespace {

Instance line_instance(std::int32_t capacity = 1) {
  Digraph g(3);
  g.add_arc(0, 1, capacity);
  g.add_arc(1, 2, capacity);
  Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(2, 0);
  inst.add_want(2, 1);
  return inst;
}

TEST(Bounds, BandwidthCountsOutstandingPairs) {
  const Instance inst = line_instance();
  EXPECT_EQ(bandwidth_lower_bound(inst), 2);
}

TEST(Bounds, BandwidthZeroWhenSatisfied) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  EXPECT_EQ(bandwidth_lower_bound(inst), 0);
}

TEST(Bounds, DistanceBoundIsHopDistance) {
  const Instance inst = line_instance();
  EXPECT_EQ(distance_lower_bound(inst), 2);
}

TEST(Bounds, DistanceBoundThrowsWhenUnreachable) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(1, 0);
  inst.add_want(0, 0);  // arc points the wrong way
  EXPECT_THROW(distance_lower_bound(inst), Error);
}

TEST(Bounds, MakespanAccountsForInCapacity) {
  // Vertex 2 wants 2 tokens over a capacity-1 tail arc at distance 2:
  // at radius 1 neither token can have arrived, so M_1(2) = 1 + 2/1;
  // the true optimum is 3 (second token trails one step behind the
  // first).
  const Instance inst = line_instance(/*capacity=*/1);
  const auto bound = makespan_lower_bound(inst);
  EXPECT_EQ(bound, 3);
  EXPECT_FALSE(exact::dfocd_feasible(inst, 2));
  const auto exact = exact::focd_min_makespan(inst, 10);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->makespan, 3);
}

TEST(Bounds, MakespanCertifiesTrailingTokenOnLongPath) {
  // Two tokens down a 5-hop unit-capacity path: M_4(5) = 4 + 2/1 = 6,
  // one more than the hop distance, and 6 is the optimum.
  Digraph g(6);
  for (VertexId v = 0; v < 5; ++v) g.add_arc(v, v + 1, 1);
  Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(5, 0);
  inst.add_want(5, 1);
  EXPECT_EQ(distance_lower_bound(inst), 5);
  EXPECT_EQ(makespan_lower_bound(inst), 6);
  EXPECT_FALSE(exact::dfocd_feasible(inst, 5));
  const auto exact = exact::focd_min_makespan(inst, 10);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->makespan, 6);
}

TEST(Bounds, MakespanTightOnWideLink) {
  const Instance inst = line_instance(/*capacity=*/2);
  EXPECT_EQ(makespan_lower_bound(inst), 2);
  const auto exact = exact::focd_min_makespan(inst, 10);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->makespan, 2);
}

TEST(Bounds, OneStepLookahead) {
  Digraph g(2);
  g.add_arc(0, 1, 2);
  Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 0);
  inst.add_want(1, 1);
  std::vector<TokenSet> possession{inst.have(0), inst.have(1)};
  EXPECT_EQ(one_step_lookahead_bound(inst, possession), 1);

  // Shrink capacity: two tokens cannot cross a 1-capacity arc in a step.
  Digraph g2(2);
  g2.add_arc(0, 1, 1);
  Instance narrow(std::move(g2), 2);
  narrow.add_have(0, 0);
  narrow.add_have(0, 1);
  narrow.add_want(1, 0);
  narrow.add_want(1, 1);
  std::vector<TokenSet> possession2{narrow.have(0), narrow.have(1)};
  EXPECT_EQ(one_step_lookahead_bound(narrow, possession2), 2);
}

TEST(Bounds, OneStepLookaheadZeroWhenDone) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  std::vector<TokenSet> possession{inst.have(0), inst.have(1)};
  EXPECT_EQ(one_step_lookahead_bound(inst, possession), 0);
}

TEST(Bounds, SerialSteinerUpperBoundAtLeastLower) {
  Rng rng(9);
  Digraph g = topology::random_overlay(15, rng);
  Instance inst = single_source_all_receivers(std::move(g), 4, 0);
  const auto lower = bandwidth_lower_bound(inst);
  const auto upper = bandwidth_upper_bound_serial_steiner(inst);
  EXPECT_GE(upper, lower);
}

// Property: on small random instances the bounds bracket the exact
// optimum computed by branch and bound.  focd_min_makespan deepens from
// makespan_lower_bound, so it cannot expose a bound above the optimum;
// the bound is certified by proving that one step less is infeasible.
class BoundsSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsSandwich, LowerBoundsNeverExceedOptimum) {
  Rng rng(GetParam());
  const Instance inst = random_small_instance(5, 2, 0.4, rng);
  const auto exact = exact::focd_min_makespan(inst, 12);
  ASSERT_TRUE(exact.has_value());
  const auto bound = makespan_lower_bound(inst);
  EXPECT_LE(bound, exact->makespan);
  if (bound > 0) {
    EXPECT_FALSE(
        exact::dfocd_feasible(inst, static_cast<std::int32_t>(bound - 1)));
  }
  EXPECT_LE(distance_lower_bound(inst), exact->makespan);
  EXPECT_LE(bandwidth_lower_bound(inst), exact->schedule.bandwidth());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsSandwich,
                         ::testing::Range<std::uint64_t>(0, 200));

// Test-only oracle, straight from the definitions: per needy vertex a
// reverse BFS, the nearest holder of each missing token by a scan of
// every vertex, then M_i(v) at every integer radius i from 0 to the
// farthest holder distance minus one.  Errors follow the library's
// contract: in token order, a wanted token with no holder, then one
// that cannot reach a wanter; then a needy vertex without in-capacity.
struct OracleBounds {
  std::int64_t distance = 0;
  std::int64_t makespan = 0;
};

OracleBounds oracle_bounds(const Instance& inst) {
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto num_tokens = static_cast<std::size_t>(inst.num_tokens());
  std::vector<std::vector<std::int32_t>> nearest(
      n, std::vector<std::int32_t>(num_tokens, kUnreachable));
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    const auto dist_to_v = bfs_distances_to(inst.graph(), v);
    (inst.want(v) - inst.have(v)).for_each([&](TokenId t) {
      for (VertexId u = 0; u < inst.num_vertices(); ++u) {
        if (inst.have(u).test(t)) {
          auto& d = nearest[static_cast<std::size_t>(v)]
                           [static_cast<std::size_t>(t)];
          d = std::min(d, dist_to_v[static_cast<std::size_t>(u)]);
        }
      }
    });
  }
  for (TokenId t = 0; t < inst.num_tokens(); ++t) {
    bool wanted = false;
    bool held = false;
    bool reached = true;
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      held = held || inst.have(v).test(t);
      if (inst.want(v).test(t) && !inst.have(v).test(t)) {
        wanted = true;
        reached = reached && nearest[static_cast<std::size_t>(v)]
                                    [static_cast<std::size_t>(t)] !=
                                 kUnreachable;
      }
    }
    if (wanted && !held)
      throw Error("distance_lower_bound: wanted token has no holder");
    if (!reached) throw Error("distance_lower_bound: wanted token unreachable");
  }
  OracleBounds out;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    std::vector<std::int64_t> hd;
    (inst.want(v) - inst.have(v)).for_each([&](TokenId t) {
      hd.push_back(
          nearest[static_cast<std::size_t>(v)][static_cast<std::size_t>(t)]);
    });
    if (hd.empty()) continue;
    const std::int64_t cap = inst.graph().in_capacity(v);
    if (cap == 0)
      throw Error("makespan_lower_bound: needy vertex has no in-capacity");
    const std::int64_t max_d = *std::max_element(hd.begin(), hd.end());
    out.distance = std::max(out.distance, max_d);
    for (std::int64_t i = 0; i < max_d; ++i) {
      const std::int64_t outside = std::count_if(
          hd.begin(), hd.end(), [i](std::int64_t d) { return d > i; });
      out.makespan = std::max(out.makespan, i + (outside + cap - 1) / cap);
    }
  }
  return out;
}

// A random instance shaped to reach every branch of the bounds: token
// universes on both sides of the 64-bit word boundary, tokens with
// several holders, a wanted token with no holder, wants no holder can
// reach, and a vertex with no in-arcs (zero in-capacity).
Instance fuzz_instance(std::int32_t tokens, Rng& rng) {
  const auto n = static_cast<VertexId>(2 + rng.below(7));
  // 0, 1: ring backbone (strongly connected); 2: random arcs only, so
  // some wants are unreachable; 3: ring backbone, but vertex 0 has no
  // in-arcs.
  const auto shape = rng.below(4);
  const VertexId deaf = shape == 3 ? 0 : -1;
  const double density = 0.1 + 0.4 * rng.uniform_real();
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u == v || v == deaf) continue;
      const bool ring = shape != 2 && v == (u + 1) % n;
      if (ring || rng.chance(density))
        g.add_arc(u, v, static_cast<std::int32_t>(1 + rng.below(3)));
    }
  }
  Instance inst(std::move(g), tokens);
  const TokenId orphan = rng.chance(0.15)
      ? static_cast<TokenId>(rng.below(static_cast<std::uint64_t>(tokens)))
      : -1;
  const double want_probability = 0.05 + 0.45 * rng.uniform_real();
  for (TokenId t = 0; t < tokens; ++t) {
    if (t != orphan) {
      for (auto h = 1 + rng.below(3); h > 0; --h)
        inst.add_have(
            static_cast<VertexId>(rng.below(static_cast<std::uint64_t>(n))), t);
    }
    for (VertexId v = 0; v < n; ++v)
      if (rng.chance(want_probability)) inst.add_want(v, t);
  }
  return inst;
}

template <typename Fn>
std::string outcome(Fn&& fn) {
  try {
    return std::to_string(fn());
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(BoundsOracle, FastPassMatchesDefinitionOnRandomInstances) {
  constexpr std::int32_t kUniverses[] = {1, 2, 3, 7, 63, 64, 65, 128, 129};
  constexpr int kInstances = 450;
  Rng rng(0xb0d5);
  int values = 0;
  int no_holder = 0;
  int unreachable = 0;
  for (int i = 0; i < kInstances; ++i) {
    const std::int32_t tokens = kUniverses[i % std::size(kUniverses)];
    const Instance inst = fuzz_instance(tokens, rng);
    SCOPED_TRACE("instance " + std::to_string(i) + ": " + inst.summary());
    const auto expected_makespan =
        outcome([&] { return oracle_bounds(inst).makespan; });
    EXPECT_EQ(outcome([&] { return makespan_lower_bound(inst); }),
              expected_makespan);
    EXPECT_EQ(outcome([&] { return distance_lower_bound(inst); }),
              outcome([&] { return oracle_bounds(inst).distance; }));
    std::int64_t outstanding = 0;
    for (VertexId v = 0; v < inst.num_vertices(); ++v)
      outstanding += static_cast<std::int64_t>(
          (inst.want(v) - inst.have(v)).count());
    EXPECT_EQ(bandwidth_lower_bound(inst), outstanding);
    if (expected_makespan.find("no holder") != std::string::npos) {
      ++no_holder;
    } else if (expected_makespan.find("unreachable") != std::string::npos) {
      ++unreachable;
    } else {
      ++values;
    }
  }
  // Values and both error kinds each show up often enough to count.
  EXPECT_GE(values, 150);
  EXPECT_GE(no_holder, 20);
  EXPECT_GE(unreachable, 20);
}

}  // namespace
}  // namespace ocd::core
