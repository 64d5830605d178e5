#include "ocd/topology/random_graph.hpp"

#include <cmath>

#include "ocd/graph/algorithms.hpp"

namespace ocd::topology {

double default_edge_probability(std::int32_t n) {
  OCD_EXPECTS(n >= 2);
  return std::min(1.0, 2.0 * std::log(static_cast<double>(n)) /
                           static_cast<double>(n));
}

namespace {

std::int32_t draw_capacity(const CapacityRange& range, Rng& rng) {
  OCD_EXPECTS(range.lo >= 1 && range.lo <= range.hi);
  return static_cast<std::int32_t>(rng.uniform_int(range.lo, range.hi));
}

/// Adds arcs u->v and v->u with independent capacities.  Only for a
/// pair that has neither arc yet: the samplers visit each unordered pair
/// once, before any other arc exists, so add_arc's own duplicate check
/// is the one lookup per arc.
void add_pair(Digraph& g, VertexId u, VertexId v, const CapacityRange& range,
              Rng& rng) {
  g.add_arc(u, v, draw_capacity(range, rng));
  g.add_arc(v, u, draw_capacity(range, rng));
}

/// Adds arcs u->v and v->u with independent capacities, skipping (and
/// drawing no capacity for) an arc already present.
void add_bidirectional(Digraph& g, VertexId u, VertexId v,
                       const CapacityRange& range, Rng& rng) {
  if (!g.has_arc(u, v)) g.add_arc(u, v, draw_capacity(range, rng));
  if (!g.has_arc(v, u)) g.add_arc(v, u, draw_capacity(range, rng));
}

/// Joins a disconnected sample with a random Hamiltonian cycle backbone
/// (when options.force_connected) and finalizes the graph: keeps degree
/// growth O(1) and guarantees strong connectivity without biasing toward
/// any hub.
void connect_and_finalize(Digraph& g, const RandomGraphOptions& options,
                          Rng& rng) {
  if (options.force_connected && !is_strongly_connected(g)) {
    const std::int32_t n = g.num_vertices();
    std::vector<VertexId> order(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
    rng.shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const VertexId u = order[i];
      const VertexId v = order[(i + 1) % order.size()];
      add_bidirectional(g, u, v, options.capacities, rng);
    }
  }
  g.finalize();
}

}  // namespace

Digraph random_overlay(std::int32_t n, const RandomGraphOptions& options,
                       Rng& rng) {
  OCD_EXPECTS(n >= 2);
  const double p = options.edge_probability > 0.0
                       ? options.edge_probability
                       : default_edge_probability(n);
  Digraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.chance(p)) add_pair(g, u, v, options.capacities, rng);
    }
  }
  connect_and_finalize(g, options, rng);
  return g;
}

Digraph random_overlay(std::int32_t n, Rng& rng) {
  return random_overlay(n, RandomGraphOptions{}, rng);
}

Digraph sparse_random_overlay(std::int32_t n, double expected_degree,
                              const RandomGraphOptions& options, Rng& rng) {
  OCD_EXPECTS(n >= 2);
  OCD_EXPECTS(expected_degree >= 0.0);
  const double p =
      std::min(1.0, expected_degree / static_cast<double>(n - 1));
  Digraph g(n);
  if (p > 0.0 && p < 1.0) {
    // Batagelj–Brandes: walk the lexicographic sequence of unordered
    // pairs {u, v}, u < v, jumping geometric(p) positions between
    // successful draws.  Row u holds (n - 1 - u) pairs; `row_start`
    // advances monotonically, so decoding the linear index back to
    // (u, v) is amortized O(1) per edge.
    const double log_q = std::log1p(-p);
    const std::int64_t total =
        static_cast<std::int64_t>(n) * (n - 1) / 2;
    std::int64_t i = -1;
    std::int64_t row_start = 0;
    VertexId u = 0;
    while (true) {
      const double r = rng.uniform_real();
      const double skip = std::floor(std::log1p(-r) / log_q);
      if (skip >= static_cast<double>(total - i)) break;
      i += 1 + static_cast<std::int64_t>(skip);
      if (i >= total) break;
      while (i >= row_start + (n - 1 - u)) {
        row_start += n - 1 - u;
        ++u;
      }
      const VertexId v = static_cast<VertexId>(u + 1 + (i - row_start));
      add_pair(g, u, v, options.capacities, rng);
    }
  } else if (p >= 1.0) {
    for (VertexId a = 0; a < n; ++a)
      for (VertexId b = a + 1; b < n; ++b)
        add_pair(g, a, b, options.capacities, rng);
  }
  connect_and_finalize(g, options, rng);
  return g;
}

Digraph sparse_random_overlay(std::int32_t n, double expected_degree,
                              Rng& rng) {
  return sparse_random_overlay(n, expected_degree, RandomGraphOptions{},
                               rng);
}

}  // namespace ocd::topology
