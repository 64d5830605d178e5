#include "ocd/topology/transit_stub.hpp"

#include <cmath>
#include <vector>

#include "ocd/graph/algorithms.hpp"

namespace ocd::topology {

namespace {

std::int32_t draw_capacity(const CapacityRange& range, Rng& rng) {
  return static_cast<std::int32_t>(rng.uniform_int(range.lo, range.hi));
}

void add_bidirectional(Digraph& g, VertexId u, VertexId v,
                       const CapacityRange& range, Rng& rng) {
  if (!g.has_arc(u, v)) g.add_arc(u, v, draw_capacity(range, rng));
  if (!g.has_arc(v, u)) g.add_arc(v, u, draw_capacity(range, rng));
}

/// Connects `members` with a random spanning tree plus extra edges with
/// probability `p` — the standard connected-random-domain construction.
void build_domain(Digraph& g, const std::vector<VertexId>& members, double p,
                  const CapacityRange& range, Rng& rng) {
  if (members.size() <= 1) return;
  // Random spanning tree: attach each vertex (in random order) to a
  // uniformly chosen earlier vertex.
  std::vector<VertexId> order = members;
  rng.shuffle(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    add_bidirectional(g, order[i], order[j], range, rng);
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (rng.chance(p)) add_bidirectional(g, members[i], members[j], range, rng);
    }
  }
}

}  // namespace

Digraph transit_stub(const TransitStubOptions& opt, Rng& rng) {
  OCD_EXPECTS(opt.transit_domains >= 1);
  OCD_EXPECTS(opt.transit_nodes_per_domain >= 1);
  OCD_EXPECTS(opt.stub_domains_per_transit_node >= 0);
  OCD_EXPECTS(opt.stub_nodes_per_domain >= 1);

  Digraph g(opt.total_vertices());
  VertexId next_vertex = 0;

  // Transit routers, grouped by domain.
  std::vector<std::vector<VertexId>> transit(
      static_cast<std::size_t>(opt.transit_domains));
  for (auto& domain : transit) {
    domain.resize(static_cast<std::size_t>(opt.transit_nodes_per_domain));
    for (auto& v : domain) v = next_vertex++;
    build_domain(g, domain, opt.transit_edge_probability, opt.capacities, rng);
  }

  // Backbone: random spanning tree over domains (one inter-domain edge
  // between random representatives per tree edge), plus one extra random
  // inter-domain edge per domain pair with modest probability.
  for (std::size_t d = 1; d < transit.size(); ++d) {
    const std::size_t other = static_cast<std::size_t>(rng.below(d));
    const VertexId u =
        transit[d][static_cast<std::size_t>(rng.below(transit[d].size()))];
    const VertexId v = transit[other][static_cast<std::size_t>(
        rng.below(transit[other].size()))];
    add_bidirectional(g, u, v, opt.capacities, rng);
  }
  for (std::size_t a = 0; a < transit.size(); ++a) {
    for (std::size_t b = a + 1; b < transit.size(); ++b) {
      if (rng.chance(0.3)) {
        const VertexId u =
            transit[a][static_cast<std::size_t>(rng.below(transit[a].size()))];
        const VertexId v =
            transit[b][static_cast<std::size_t>(rng.below(transit[b].size()))];
        add_bidirectional(g, u, v, opt.capacities, rng);
      }
    }
  }

  // Stub domains.
  for (const auto& domain : transit) {
    for (VertexId router : domain) {
      for (std::int32_t s = 0; s < opt.stub_domains_per_transit_node; ++s) {
        std::vector<VertexId> stub(
            static_cast<std::size_t>(opt.stub_nodes_per_domain));
        for (auto& v : stub) v = next_vertex++;
        build_domain(g, stub, opt.stub_edge_probability, opt.capacities, rng);
        const VertexId gateway =
            stub[static_cast<std::size_t>(rng.below(stub.size()))];
        add_bidirectional(g, router, gateway, opt.capacities, rng);
      }
    }
  }

  OCD_ENSURES(next_vertex == g.num_vertices());
  g.finalize();
  OCD_ENSURES(is_strongly_connected(g));
  return g;
}

TransitStubOptions transit_stub_options_for_size(std::int32_t n) {
  OCD_EXPECTS(n >= 8);
  // total = T*Nt*(1 + S*Ns).  Keep S = 2, Ns = 3 (7x multiplier per
  // transit router) and split the remaining factor between T and Nt.
  TransitStubOptions opt;
  opt.stub_domains_per_transit_node = 2;
  opt.stub_nodes_per_domain = 3;
  const double routers_needed =
      static_cast<double>(n) /
      (1.0 + static_cast<double>(opt.stub_domains_per_transit_node *
                                 opt.stub_nodes_per_domain));
  const auto routers = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::lround(routers_needed)));
  opt.transit_domains =
      std::max<std::int32_t>(1, static_cast<std::int32_t>(
                                    std::floor(std::sqrt(routers / 4.0))));
  opt.transit_nodes_per_domain = std::max<std::int32_t>(
      1, (routers + opt.transit_domains - 1) / opt.transit_domains);
  return opt;
}

}  // namespace ocd::topology
