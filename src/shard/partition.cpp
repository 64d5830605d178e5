#include "ocd/shard/partition.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "ocd/flow/max_flow.hpp"
#include "ocd/util/env.hpp"

namespace ocd::shard {

namespace {

/// Deterministic BFS traversal order over the undirected skeleton:
/// lowest-id unvisited seed, neighbors in adjacency (CSR) order, out-
/// arcs before in-arcs.  Covers every vertex even in disconnected
/// graphs (each component restarts from its lowest id).
std::vector<VertexId> bfs_order(const Digraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  std::vector<VertexId> queue;
  queue.reserve(n);
  for (VertexId seed = 0; seed < graph.num_vertices(); ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    visited[static_cast<std::size_t>(seed)] = 1;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      order.push_back(v);
      for (ArcId a : graph.out_arcs(v)) {
        const VertexId w = graph.arc(a).to;
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
      for (ArcId a : graph.in_arcs(v)) {
        const VertexId w = graph.arc(a).from;
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  return order;
}

/// FlowCutter-style pair refinement: one solver + scratch set shared
/// across every (a, b) pair so the whole stage allocates only up to its
/// high-water mark.
class FlowRefiner {
 public:
  FlowRefiner(const Digraph& graph, std::vector<std::int32_t>& shard_of,
              std::vector<std::int64_t>& sizes, std::int64_t lo,
              std::int64_t hi, std::int32_t region_limit,
              std::int64_t auto_limit)
      : graph_(graph),
        shard_of_(shard_of),
        sizes_(sizes),
        lo_(lo),
        hi_(hi),
        region_limit_(region_limit),
        auto_limit_(auto_limit),
        is_boundary_(static_cast<std::size_t>(graph.num_vertices()), 0),
        in_region_(static_cast<std::size_t>(graph.num_vertices()), 0),
        local_id_(static_cast<std::size_t>(graph.num_vertices()), -1) {}

  /// Attempts to shrink the a-b cut; mutates shard_of_/sizes_ when a
  /// strictly better in-band reassignment exists.  Two attempts: a wide
  /// corridor first (finds the big separator-crossing cuts, but its min
  /// cut can be too lopsided for the band), then — if nothing was
  /// adopted — a band-safe corridor whose region sizes guarantee every
  /// cut is adoptable, so a strict local improvement is never forfeited
  /// to the balance check.
  void refine_pair(std::int32_t a, std::int32_t b) {
    collect_boundary(a, b);
    if (pair_cut_ == 0) return;  // blocks not adjacent
    if (!attempt(a, b, /*band_safe=*/false)) attempt(a, b, /*band_safe=*/true);
    for (const VertexId v : boundary_)
      is_boundary_[static_cast<std::size_t>(v)] = 0;
  }

 private:
  // One corridor extraction + solve + (possibly) adoption.  Returns
  // whether a reassignment was adopted; always clears the region
  // scratch so the next attempt or pair starts clean.
  bool attempt(std::int32_t a, std::int32_t b, bool band_safe) {
    grow_region(a, region_a_, region_cap(a, b, band_safe));
    grow_region(b, region_b_, region_cap(b, a, band_safe));
    bool adopted = false;
    if (!region_a_.empty() && !region_b_.empty()) {
      const flow::MaxFlow::Flow flow_value = build_and_solve(a, b);
      const std::int64_t fixed = fixed_cut(a, b);
      if (flow_value + fixed < pair_cut_) {
        // Source-reachable cut first, the sink-reaching one as
        // fallback: same value, differently balanced sides.
        adopted = apply_side(a, b, /*sink_side=*/false);
        if (!adopted) {
          mf_.compute_sink_side();
          adopted = apply_side(a, b, /*sink_side=*/true);
        }
      }
    }
    clear_regions();
    return adopted;
  }

  // Per-side region cap.  The band-safe cap bounds the worst case of
  // any cut (one side moves wholesale) to stay inside the band:
  //   new_self >= size_self - |region_self| >= lo  and
  //   new_other <= size_other + |region_self| <= hi.
  // The wide cap only guards the contraction anchor (never more than
  // half the block, so the s/t core stays non-empty) and the configured
  // or auto resource limit.
  [[nodiscard]] std::int64_t region_cap(std::int32_t self,
                                        std::int32_t other,
                                        bool band_safe) const {
    const std::int64_t size_self = sizes_[static_cast<std::size_t>(self)];
    std::int64_t cap = size_self / 2;
    if (band_safe)
      cap = std::min(
          cap, std::min(size_self - lo_,
                        hi_ - sizes_[static_cast<std::size_t>(other)]));
    if (region_limit_ > 0) return std::min<std::int64_t>(cap, region_limit_);
    if (band_safe) return cap;
    // Auto mode: scale with this side's boundary — a region smaller
    // than its own boundary pins most crossing arcs in fixed_cut and
    // cannot improve anything.
    std::int64_t seeds = 0;
    for (const VertexId v : boundary_)
      if (shard_of_[static_cast<std::size_t>(v)] == self) ++seeds;
    return std::min(cap, std::max(auto_limit_, 2 * seeds));
  }

  // Boundary = endpoints of a-b crossing arcs.  Every crossing arc's
  // tail is scanned exactly once via out-arcs of both blocks, so
  // pair_cut_ counts directed crossings exactly.
  void collect_boundary(std::int32_t a, std::int32_t b) {
    boundary_.clear();
    pair_cut_ = 0;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      const std::int32_t sv = shard_of_[static_cast<std::size_t>(v)];
      if (sv != a && sv != b) continue;
      const std::int32_t other = sv == a ? b : a;
      for (ArcId arc : graph_.out_arcs(v)) {
        const VertexId w = graph_.arc(arc).to;
        if (shard_of_[static_cast<std::size_t>(w)] != other) continue;
        ++pair_cut_;
        if (!is_boundary_[static_cast<std::size_t>(v)]) {
          is_boundary_[static_cast<std::size_t>(v)] = 1;
          boundary_.push_back(v);
        }
        if (!is_boundary_[static_cast<std::size_t>(w)]) {
          is_boundary_[static_cast<std::size_t>(w)] = 1;
          boundary_.push_back(w);
        }
      }
    }
    std::sort(boundary_.begin(), boundary_.end());
  }

  // Region per side: BFS from the boundary inside the block, ascending
  // seed order, out- before in-arcs, truncated at `cap` vertices (see
  // region_cap; a non-positive cap yields an empty region and the
  // caller gives up on this attempt).
  void grow_region(std::int32_t block, std::vector<VertexId>& region,
                   std::int64_t cap) {
    region.clear();
    for (const VertexId v : boundary_) {
      if (shard_of_[static_cast<std::size_t>(v)] != block) continue;
      if (static_cast<std::int64_t>(region.size()) >= cap) break;
      if (in_region_[static_cast<std::size_t>(v)]) continue;
      in_region_[static_cast<std::size_t>(v)] = 1;
      region.push_back(v);
    }
    const auto admit = [&](VertexId w) {
      if (shard_of_[static_cast<std::size_t>(w)] != block) return;
      if (in_region_[static_cast<std::size_t>(w)]) return;
      if (static_cast<std::int64_t>(region.size()) >= cap) return;
      in_region_[static_cast<std::size_t>(w)] = 1;
      region.push_back(w);
    };
    for (std::size_t head = 0; head < region.size(); ++head) {
      const VertexId v = region[head];
      for (ArcId arc : graph_.out_arcs(v)) admit(graph_.arc(arc).to);
      for (ArcId arc : graph_.in_arcs(v)) admit(graph_.arc(arc).from);
    }
  }

  // Arcs whose endpoints are both truncated boundary vertices can never
  // change sides; they stay cut whatever the flow says.
  [[nodiscard]] std::int64_t fixed_cut(std::int32_t a, std::int32_t b) const {
    std::int64_t fixed = 0;
    for (const VertexId v : boundary_) {
      if (in_region_[static_cast<std::size_t>(v)]) continue;
      const std::int32_t sv = shard_of_[static_cast<std::size_t>(v)];
      const std::int32_t other = sv == a ? b : a;
      for (ArcId arc : graph_.out_arcs(v)) {
        const VertexId w = graph_.arc(arc).to;
        if (shard_of_[static_cast<std::size_t>(w)] == other &&
            !in_region_[static_cast<std::size_t>(w)])
          ++fixed;
      }
    }
    return fixed;
  }

  // Local network: terminal s = 0 (the contracted core of a), t = 1
  // (core of b), region vertices from 2.  Each directed overlay arc is
  // one unit-capacity *undirected* flow edge — a separated unordered
  // pair with arcs both ways costs 2, matching the cut_arcs count.
  flow::MaxFlow::Flow build_and_solve(std::int32_t a, std::int32_t b) {
    std::int32_t next = 2;
    for (const VertexId v : region_a_)
      local_id_[static_cast<std::size_t>(v)] = next++;
    for (const VertexId v : region_b_)
      local_id_[static_cast<std::size_t>(v)] = next++;
    mf_.reset(next);
    const auto endpoint = [&](VertexId w) -> std::int32_t {
      if (in_region_[static_cast<std::size_t>(w)])
        return local_id_[static_cast<std::size_t>(w)];
      const std::int32_t sw = shard_of_[static_cast<std::size_t>(w)];
      if (sw == a) return 0;
      if (sw == b) return 1;
      return -1;  // third block: the a-b cut does not price this arc
    };
    const auto add_edges_of = [&](const std::vector<VertexId>& region) {
      for (const VertexId u : region) {
        const std::int32_t lu = local_id_[static_cast<std::size_t>(u)];
        for (ArcId arc : graph_.out_arcs(u)) {
          const std::int32_t lw = endpoint(graph_.arc(arc).to);
          if (lw >= 0) mf_.add_edge(lu, lw, 1, 1);
        }
        for (ArcId arc : graph_.in_arcs(u)) {
          const VertexId w = graph_.arc(arc).from;
          // Region-region arcs were added by the tail's out-scan.
          if (in_region_[static_cast<std::size_t>(w)]) continue;
          const std::int32_t lw = endpoint(w);
          if (lw >= 0) mf_.add_edge(lu, lw, 1, 1);
        }
      }
    };
    add_edges_of(region_a_);
    add_edges_of(region_b_);
    return mf_.run(0, 1);
  }

  // Adopts one canonical min cut when its reassignment keeps both
  // blocks in the balance band.  Vertices on the source side belong to
  // a, the rest to b; offsetting moves may cancel, which is how a tight
  // band (k | n, eps = 0) can still improve via swaps.
  bool apply_side(std::int32_t a, std::int32_t b, bool sink_side) {
    const auto target = [&](VertexId v) {
      const std::int32_t lv = local_id_[static_cast<std::size_t>(v)];
      const bool source_side =
          sink_side ? !mf_.in_sink_side(lv) : mf_.in_source_side(lv);
      return source_side ? a : b;
    };
    std::int64_t delta_a = 0;  // net ownership change of block a
    for (const VertexId v : region_a_)
      if (target(v) == b) --delta_a;
    for (const VertexId v : region_b_)
      if (target(v) == a) ++delta_a;
    const std::int64_t new_a = sizes_[static_cast<std::size_t>(a)] + delta_a;
    const std::int64_t new_b = sizes_[static_cast<std::size_t>(b)] - delta_a;
    if (new_a < lo_ || new_a > hi_ || new_b < lo_ || new_b > hi_)
      return false;
    for (const VertexId v : region_a_)
      shard_of_[static_cast<std::size_t>(v)] = target(v);
    for (const VertexId v : region_b_)
      shard_of_[static_cast<std::size_t>(v)] = target(v);
    sizes_[static_cast<std::size_t>(a)] = new_a;
    sizes_[static_cast<std::size_t>(b)] = new_b;
    return true;
  }

  // Region scratch only — boundary flags outlive both attempts of a
  // pair and are cleared by refine_pair.
  void clear_regions() {
    for (const VertexId v : region_a_) {
      in_region_[static_cast<std::size_t>(v)] = 0;
      local_id_[static_cast<std::size_t>(v)] = -1;
    }
    for (const VertexId v : region_b_) {
      in_region_[static_cast<std::size_t>(v)] = 0;
      local_id_[static_cast<std::size_t>(v)] = -1;
    }
  }

  const Digraph& graph_;
  std::vector<std::int32_t>& shard_of_;
  std::vector<std::int64_t>& sizes_;
  const std::int64_t lo_;
  const std::int64_t hi_;
  const std::int32_t region_limit_;  ///< hard per-side cap; 0 = auto
  const std::int64_t auto_limit_;    ///< floor of the auto cap
  flow::MaxFlow mf_;
  std::vector<char> is_boundary_;
  std::vector<char> in_region_;
  std::vector<std::int32_t> local_id_;
  std::vector<VertexId> boundary_;
  std::vector<VertexId> region_a_;
  std::vector<VertexId> region_b_;
  std::int64_t pair_cut_ = 0;
};

}  // namespace

std::int32_t resolve_balance_eps(std::int32_t requested) {
  if (requested >= 0) {
    if (requested > 100)
      throw Error("balance_eps must be in [0, 100] percent, got " +
                  std::to_string(requested));
    return requested;
  }
  if (requested < -1)
    throw Error("balance_eps must be >= -1, got " +
                std::to_string(requested));
  const char* env = std::getenv("OCD_SHARD_BALANCE_EPS");
  if (env == nullptr) return 0;
  return static_cast<std::int32_t>(
      util::parse_env_nonneg_int("OCD_SHARD_BALANCE_EPS", env, 100));
}

Partition partition_vertices(const Digraph& graph, std::int32_t num_shards,
                             std::int32_t refinement_sweeps) {
  PartitionOptions options;
  options.num_shards = num_shards;
  options.refinement_sweeps = refinement_sweeps;
  options.balance_eps = 0;  // historical exact band, env-independent
  return partition_vertices(graph, options);
}

Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options) {
  const std::int32_t n = graph.num_vertices();
  const std::int32_t num_shards = options.num_shards;
  OCD_EXPECTS(num_shards >= 1);
  OCD_EXPECTS(num_shards <= std::max(n, 1));
  OCD_EXPECTS(options.refinement_sweeps >= 0);
  OCD_EXPECTS(options.flow_region_limit >= 0);
  const std::int32_t eps = resolve_balance_eps(options.balance_eps);

  Partition part;
  part.num_shards = num_shards;
  part.shard_of.assign(static_cast<std::size_t>(n), 0);

  // Phase 1 — BFS-grow: chop the traversal order into num_shards
  // consecutive blocks; the first n%num_shards blocks take the ceiling
  // size so every shard lands in [lo, hi] exactly.  Consecutive BFS
  // vertices are graph-close, so blocks start out with most of their
  // adjacency internal.
  const auto hi =
      static_cast<std::int64_t>((n + num_shards - 1) / num_shards);
  const auto lo = static_cast<std::int64_t>(n / num_shards);
  const auto big_blocks = static_cast<std::int64_t>(n % num_shards);
  const std::vector<VertexId> order = bfs_order(graph);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto pos = static_cast<std::int64_t>(i);
    const std::int64_t s =
        pos < big_blocks * hi
            ? pos / std::max<std::int64_t>(hi, 1)
            : big_blocks + (pos - big_blocks * hi) /
                               std::max<std::int64_t>(lo, 1);
    part.shard_of[static_cast<std::size_t>(order[i])] =
        static_cast<std::int32_t>(std::min<std::int64_t>(s, num_shards - 1));
  }

  std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_shards), 0);
  for (std::int32_t s : part.shard_of) ++sizes[static_cast<std::size_t>(s)];

  // The eps-relaxed balance band both refinement stages must respect.
  // eps = 0 is the exact [lo, hi] band; the lower bound never drops
  // under 1, so no shard can be refined empty.
  const std::int64_t slack = eps * lo / 100;
  const std::int64_t lo_band = std::max<std::int64_t>(1, lo - slack);
  const std::int64_t hi_band =
      std::min<std::int64_t>(std::max<std::int64_t>(n, 1), hi + slack);

  // Phase 2 — greedy refinement sweeps in vertex-id order: move a
  // vertex to the shard holding the (strict) majority of its neighbors
  // when the move keeps every shard size within the band.  Gains are
  // evaluated against the current labels, so each sweep is
  // deterministic and terminates by construction; later sweeps see the
  // earlier ones' labels and keep chipping at the cut until a sweep
  // moves nothing (a local minimum) or the sweep budget runs out.
  if (num_shards > 1) {
    std::vector<std::int64_t> freq(static_cast<std::size_t>(num_shards), 0);
    std::vector<std::int32_t> seen;
    seen.reserve(16);
    for (std::int32_t sweep = 0; sweep < options.refinement_sweeps; ++sweep) {
      std::int64_t moved = 0;
      for (VertexId v = 0; v < n; ++v) {
        const auto cur = static_cast<std::size_t>(
            part.shard_of[static_cast<std::size_t>(v)]);
        seen.clear();
        const auto tally = [&](VertexId w) {
          const auto s = static_cast<std::size_t>(
              part.shard_of[static_cast<std::size_t>(w)]);
          if (freq[s] == 0) seen.push_back(static_cast<std::int32_t>(s));
          ++freq[s];
        };
        for (ArcId a : graph.out_arcs(v)) tally(graph.arc(a).to);
        for (ArcId a : graph.in_arcs(v)) tally(graph.arc(a).from);
        std::int32_t best = static_cast<std::int32_t>(cur);
        std::int64_t best_freq = freq[cur];
        std::sort(seen.begin(), seen.end());  // lowest shard id wins ties
        for (std::int32_t s : seen) {
          if (freq[static_cast<std::size_t>(s)] > best_freq) {
            best_freq = freq[static_cast<std::size_t>(s)];
            best = s;
          }
        }
        for (std::int32_t s : seen) freq[static_cast<std::size_t>(s)] = 0;
        if (best != static_cast<std::int32_t>(cur) && sizes[cur] > lo_band &&
            sizes[static_cast<std::size_t>(best)] < hi_band) {
          part.shard_of[static_cast<std::size_t>(v)] = best;
          --sizes[cur];
          ++sizes[static_cast<std::size_t>(best)];
          ++moved;
        }
      }
      if (moved == 0) break;
    }
  }

  // Phase 3 — opt-in flow refinement: one pass over adjacent block
  // pairs in ascending (a, b) order; each pair's boundary region is
  // re-read from the labels the previous pairs left behind.
  if (options.flow_refine && num_shards > 1) {
    const std::int64_t auto_limit =
        std::max<std::int64_t>(256, 4 * (hi_band - lo_band + 1));
    FlowRefiner refiner(graph, part.shard_of, sizes, lo_band, hi_band,
                        options.flow_region_limit, auto_limit);
    for (std::int32_t a = 0; a < num_shards; ++a)
      for (std::int32_t b = a + 1; b < num_shards; ++b)
        refiner.refine_pair(a, b);
  }

  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    if (part.shard_of[static_cast<std::size_t>(arc.from)] !=
        part.shard_of[static_cast<std::size_t>(arc.to)])
      ++part.stats.cut_arcs;
  }
  part.stats.num_shards = num_shards;
  part.stats.total_arcs = graph.num_arcs();
  part.stats.min_owned = n == 0 ? 0 : *std::min_element(sizes.begin(),
                                                        sizes.end());
  part.stats.max_owned = n == 0 ? 0 : *std::max_element(sizes.begin(),
                                                        sizes.end());
  return part;
}

}  // namespace ocd::shard
