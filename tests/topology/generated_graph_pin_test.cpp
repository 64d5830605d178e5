// Golden pins for the three overlay generators perfbench and the
// micro-benchmarks build on: random_overlay(200), sparse_random_overlay
// (800, 8.0) and transit_stub(transit_stub_options_for_size(300)), three
// seeds each.
//
// Each graph is reduced to one digest over every arc's (from, to,
// capacity) in id order and every vertex's out_arcs and in_arcs
// sequence, and compared with a constant recorded from the generators
// as they stood before the adjacency storage was rebuilt around one
// CSR form.  A DeterministicForFixedSeed test compares two runs of one
// build, so it cannot see a rewrite that changes every graph the same
// way; these pins can.  A planner walks arcs in out_arcs / in_arcs
// order, so equal digests also mean equal schedules.
#include <gtest/gtest.h>

#include <cstdint>

#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace ocd::topology {
namespace {

std::uint64_t graph_digest(const Digraph& g) {
  // FNV-1a-style fold of 64-bit words: each step is a bijection of the
  // running state, so any single changed word changes the digest.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto add = [&digest](std::int64_t word) {
    digest = (digest ^ static_cast<std::uint64_t>(word)) * 0x100000001b3ULL;
  };
  add(g.num_vertices());
  add(g.num_arcs());
  for (const Arc& arc : g.arcs()) {
    add(arc.from);
    add(arc.to);
    add(arc.capacity);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto arcs : {g.out_arcs(v), g.in_arcs(v)}) {
      add(static_cast<std::int64_t>(arcs.size()));
      for (const ArcId id : arcs) add(id);
    }
  }
  return digest;
}

struct GraphPin {
  std::uint64_t seed;
  std::int32_t num_arcs;
  std::uint64_t digest;
};

// perfbench's default seed and the micro-benchmarks' two instance seeds.
constexpr GraphPin kDensePins[] = {
    {1, 2080, 0x98a3ca461103efa9ULL},
    {29, 2036, 0xe0563975a34091d8ULL},
    {0x5a4d0001, 2092, 0x2f410e24d47f69f1ULL},
};
constexpr GraphPin kSparsePins[] = {
    {1, 7828, 0xed5dbf0f82aaa625ULL},
    {29, 6418, 0xea097be47e65ded6ULL},
    {0x5a4d0001, 6462, 0x8d9705cced3b12afULL},
};
constexpr GraphPin kSwarmPins[] = {
    {1, 1034, 0x7cadaee66d995f4cULL},
    {29, 1014, 0x1cf4228905f9c10bULL},
    {0x5a4d0001, 1026, 0xe77beb4d613b0deeULL},
};

Digraph dense_graph(std::uint64_t seed) {
  Rng rng(seed);
  return random_overlay(200, rng);
}

Digraph sparse_graph(std::uint64_t seed) {
  Rng rng(seed);
  return sparse_random_overlay(800, 8.0, rng);
}

Digraph swarm_graph(std::uint64_t seed) {
  Rng rng(seed);
  return transit_stub(transit_stub_options_for_size(300), rng);
}

void expect_pinned(const Digraph& g, const GraphPin& pin) {
  SCOPED_TRACE(::testing::Message() << "seed " << pin.seed);
  EXPECT_EQ(g.num_arcs(), pin.num_arcs);
  EXPECT_EQ(graph_digest(g), pin.digest)
      << "0x" << std::hex << graph_digest(g);
}

TEST(GeneratedGraphPin, DenseRandomOverlay) {
  for (const GraphPin& pin : kDensePins)
    expect_pinned(dense_graph(pin.seed), pin);
}

TEST(GeneratedGraphPin, SparseRandomOverlay) {
  for (const GraphPin& pin : kSparsePins)
    expect_pinned(sparse_graph(pin.seed), pin);
}

TEST(GeneratedGraphPin, TransitStub) {
  for (const GraphPin& pin : kSwarmPins)
    expect_pinned(swarm_graph(pin.seed), pin);
}

TEST(SparseRandomOverlay, DoesNotPerturbTheDenseGenerator) {
  // Guard against refactors folding the two samplers together or giving
  // them shared state: a random_overlay drawn after a
  // sparse_random_overlay from the same seed must still be the pinned
  // graph, i.e. the dense generator's stream consumption is untouched
  // by the sparse entry point existing and having run.
  const GraphPin& pin = kDensePins[0];
  const Digraph sparse = sparse_graph(pin.seed);
  ASSERT_GT(sparse.num_arcs(), 0);
  expect_pinned(dense_graph(pin.seed), pin);
}

}  // namespace
}  // namespace ocd::topology
