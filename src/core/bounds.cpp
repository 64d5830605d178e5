#include "ocd/core/bounds.hpp"

#include <algorithm>
#include <span>

#include "ocd/core/steiner.hpp"
#include "ocd/graph/algorithms.hpp"

namespace ocd::core {

namespace {

/// Nearest-holder hop distance of every wanted-and-missing (v, t),
/// grouped by vertex: v's entries are dist[offsets[v], offsets[v + 1]).
struct HolderDistances {
  std::vector<std::size_t> offsets;
  std::vector<std::int32_t> dist;
};

/// One multi-source BFS per outstanding token, from its holders; the
/// distance and queue arrays are shared by every token.  Throws, in
/// token order, when a wanted token has no holder or cannot reach a
/// vertex that wants it.
HolderDistances holder_distances(const Instance& inst) {
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  HolderDistances out;
  out.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const TokenSet& want = inst.want(static_cast<VertexId>(v));
    const TokenSet& have = inst.have(static_cast<VertexId>(v));
    out.offsets[v + 1] = out.offsets[v] + want.count() -
                         TokenSet::count_intersection(want, have);
  }
  out.dist.resize(out.offsets[n]);

  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  std::vector<std::int32_t> hops(n, kUnreachable);
  // queue[0, tail) holds every vertex the current BFS reached, so
  // resetting `hops` afterwards costs what the BFS did.
  std::vector<VertexId> queue(n);
  std::vector<VertexId> needy;
  needy.reserve(n);
  for (TokenId t = 0; t < inst.num_tokens(); ++t) {
    std::size_t tail = 0;
    needy.clear();
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      if (inst.have(v).test(t)) {
        hops[static_cast<std::size_t>(v)] = 0;
        queue[tail++] = v;
      } else if (inst.want(v).test(t)) {
        needy.push_back(v);
      }
    }
    if (!needy.empty()) {
      if (tail == 0)
        throw Error("distance_lower_bound: wanted token has no holder");
      for (std::size_t head = 0; head < tail; ++head) {
        const VertexId u = queue[head];
        for (ArcId id : inst.graph().out_arcs(u)) {
          const VertexId w = inst.graph().arc(id).to;
          auto& hw = hops[static_cast<std::size_t>(w)];
          if (hw == kUnreachable) {
            hw = hops[static_cast<std::size_t>(u)] + 1;
            queue[tail++] = w;
          }
        }
      }
      for (VertexId v : needy) {
        const std::int32_t d = hops[static_cast<std::size_t>(v)];
        if (d == kUnreachable)
          throw Error("distance_lower_bound: wanted token unreachable");
        out.dist[cursor[static_cast<std::size_t>(v)]++] = d;
      }
    }
    for (std::size_t i = 0; i < tail; ++i)
      hops[static_cast<std::size_t>(queue[i])] = kUnreachable;
  }
  return out;
}

}  // namespace

std::int64_t bandwidth_lower_bound(const Instance& inst) {
  return inst.total_outstanding();
}

std::int64_t distance_lower_bound(const Instance& inst) {
  const auto dist = holder_distances(inst).dist;
  return dist.empty() ? 0 : *std::max_element(dist.begin(), dist.end());
}

std::int64_t makespan_lower_bound(const Instance& inst) {
  auto [offsets, dist] = holder_distances(inst);
  std::int64_t best = 0;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const std::span<std::int32_t> hd(dist.data() + offsets[i],
                                     dist.data() + offsets[i + 1]);
    if (hd.empty()) continue;
    const std::int64_t in_cap = inst.graph().in_capacity(v);
    if (in_cap == 0)
      throw Error("makespan_lower_bound: needy vertex has no in-capacity");
    std::sort(hd.begin(), hd.end());
    // M_i(v) at radius i = hd[j] - 1: the k - j tokens whose nearest
    // holder is hd[j] or more hops away cannot reach v within i steps,
    // and v then takes in at most in_cap tokens per step.  Inside each
    // gap between holder distances M_i(v) grows with i, so these radii
    // carry the max over all i < max(hd).
    const auto k = static_cast<std::int64_t>(hd.size());
    for (std::int64_t j = 0; j < k; ++j) {
      best = std::max(best, hd[static_cast<std::size_t>(j)] - 1 +
                                (k - j + in_cap - 1) / in_cap);
    }
  }
  return best;
}

std::int64_t one_step_lookahead_bound(const Instance& inst,
                                      std::span<const TokenSet> possession) {
  OCD_EXPECTS(possession.size() ==
              static_cast<std::size_t>(inst.num_vertices()));
  bool outstanding = false;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    const TokenSet missing =
        inst.want(v) - possession[static_cast<std::size_t>(v)];
    if (missing.empty()) continue;
    outstanding = true;
    // Everything must be obtainable in one step: held by an in-neighbor,
    // and within aggregate in-capacity.
    if (static_cast<std::int64_t>(missing.count()) >
        inst.graph().in_capacity(v))
      return 2;
    TokenSet reachable(static_cast<std::size_t>(inst.num_tokens()));
    for (ArcId id : inst.graph().in_arcs(v)) {
      reachable |=
          possession[static_cast<std::size_t>(inst.graph().arc(id).from)];
    }
    if (!missing.is_subset_of(reachable)) return 2;
  }
  return outstanding ? 1 : 0;
}

std::int64_t bandwidth_upper_bound_serial_steiner(const Instance& inst) {
  std::int64_t total = 0;
  for (TokenId t = 0; t < inst.num_tokens(); ++t) {
    std::vector<VertexId> terminals;
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      if (inst.want(v).test(t) && !inst.have(v).test(t)) terminals.push_back(v);
    }
    if (terminals.empty()) continue;
    const auto roots = inst.sources_of(t);
    if (roots.empty())
      throw Error("bandwidth_upper_bound_serial_steiner: no holder");
    total += steiner_tree(inst.graph(), roots, terminals).cost();
  }
  return total;
}

}  // namespace ocd::core
