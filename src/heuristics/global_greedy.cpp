#include "ocd/heuristics/global_greedy.hpp"

#include <algorithm>

namespace ocd::heuristics {

namespace {

/// One arc's fused candidate scan against (cand, out, wave_ok):
/// `wanted` is the first wanted in-cap candidate (rank), `flood` the
/// first in-cap candidate of any kind, `cand_left` ORs every candidate
/// word seen before the wanted hit — nonzero means candidates remain
/// (only meaningful when both picks are -1, i.e. the scan ran through).
struct ArcScan {
  TokenId wanted = -1;
  TokenId flood = -1;
  std::uint64_t cand_left = 0;
};

ArcScan scan_arc(const std::uint64_t* cand_w, const std::uint64_t* out_w,
                 const std::uint64_t* ok_w, std::size_t num_words) {
  ArcScan r;
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t cw = cand_w[wi];
    r.cand_left |= cw;
    const std::uint64_t in_cap = cw & ok_w[wi];
    if (in_cap == 0) continue;
    const std::uint64_t wanted = in_cap & out_w[wi];
    if (wanted != 0) {
      r.wanted = static_cast<TokenId>(
          wi * 64 + static_cast<std::size_t>(__builtin_ctzll(wanted)));
      return r;
    }
    if (r.flood < 0)
      r.flood = static_cast<TokenId>(
          wi * 64 + static_cast<std::size_t>(__builtin_ctzll(in_cap)));
  }
  return r;
}

}  // namespace

void GlobalGreedyPolicy::reset(const core::Instance& instance,
                               std::uint64_t seed) {
  rng_ = Rng(seed);
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  const auto num_arcs = static_cast<std::size_t>(instance.graph().num_arcs());
  ranked_poss_.reset(n, universe);
  candidates_.reset(num_arcs, universe);
  outstanding_.reset(n, universe);
  remaining_.assign(num_arcs, 0);
  grant_count_.assign(universe, 0);
  full_ = TokenSet::full(universe);
  wave_ok_ = TokenSet(universe);
  capped_ = TokenSet(universe);
  active_.clear();
  active_.reserve(num_arcs);
  asleep_.assign(num_arcs, 0);
  epoch_ = 0;
}

// Coordinated greedy over (arc, token) pairs.  Assignment proceeds in
// passes; during wave w a token may hold at most w+1 grants, which
// spreads *different* rare tokens across the arcs (diversity) instead of
// pushing the single rarest token everywhere.  Wanted deliveries are
// preferred over pure diversity floods at every pick, and a token is
// never delivered twice to the same vertex (the coordination the paper
// describes).
//
// All per-step sets live in rank space (bit r = token at rarity rank r,
// see ocd/util/rarity.hpp), so each pick is a first-set-bit over
// `cand_words & wanted_words & wave_ok_words` instead of an O(universe)
// scan of the rarity order.  Per-arc candidate sets are maintained
// incrementally: granting a token to a vertex clears its bit from every
// in-arc of that vertex.
//
// Every working set lives in the policy's scratch members (sized in
// reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void GlobalGreedyPolicy::plan_step(const sim::StepView& view,
                                   sim::StepPlan& plan) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  const auto universe = static_cast<std::size_t>(view.num_tokens());

  // Possession permuted once per step; every other rank-space set is a
  // word-parallel combination of these.
  ranker_.assign_by_rarity(view.aggregate_holders(), &rng_);
  for (std::size_t vi = 0; vi < n; ++vi)
    ranker_.to_ranks_into(possession.row(vi), ranked_poss_.row(vi));

  // Per-arc candidates (tail has, head lacks) and remaining capacity;
  // the arcs that have both form the pick list, in arc-id order.
  active_.clear();
  for (std::size_t ai = 0; ai < num_arcs; ++ai) {
    const auto a = static_cast<ArcId>(ai);
    const Arc& arc = graph.arc(a);
    MutableTokenSetView cand = candidates_.row(ai);
    cand.assign(ranked_poss_.row(static_cast<std::size_t>(arc.from)));
    cand -= ranked_poss_.row(static_cast<std::size_t>(arc.to));
    remaining_[ai] = view.capacity(a);
    if (remaining_[ai] > 0 && !cand.empty()) active_.push_back(a);
  }
  if (active_.empty()) return;

  // Outstanding wants per vertex, fixed at step start.
  for (std::size_t vi = 0; vi < n; ++vi) {
    MutableTokenSetView out = outstanding_.row(vi);
    ranker_.to_ranks_into(inst.want(static_cast<VertexId>(vi)), out);
    out -= ranked_poss_.row(vi);
  }

  // wave_ok holds the ranks whose grant count is still <= wave; ranks
  // pushed over the cap park in `capped` until the next wave relaxes it.
  // A capped rank holds exactly wave+1 grants, so a relaxation returns
  // every rank to wave_ok and `uncapped` (wave_ok's size) to universe.
  std::fill(grant_count_.begin(), grant_count_.end(), 0);
  wave_ok_.assign(full_);
  capped_.clear();
  std::int32_t wave = 0;
  std::size_t uncapped = universe;

  // An arc whose candidates are all over the duplication cap cannot
  // pick again until the cap relaxes (its candidate set and wave_ok only
  // shrink within a wave), so it falls asleep: its stamp is set to the
  // current epoch, and each pass skips it with one compare instead of a
  // word scan.  A relaxation starts a new epoch, which wakes every arc
  // at once; so does the start of a step.
  const auto wake_all = [&] {
    if (++epoch_ == 0) {  // wrapped: old stamps would read as asleep
      std::fill(asleep_.begin(), asleep_.end(), 0);
      epoch_ = 1;
    }
  };
  const auto relax = [&] {
    ++wave;
    wave_ok_ |= capped_;
    capped_.clear();
    uncapped = universe;
    wake_all();
  };
  wake_all();

  // The live list is active_[first, size()).  A pass visits it in order
  // and compacts the survivors forward.  It stops as soon as every rank
  // is capped: no arc can pick before the next relaxation, so each scan
  // left in the pass could only put an arc to sleep or find it
  // exhausted.  The visited survivors then slide up against the
  // unvisited tail, and the list restarts after the gap, so the pass
  // costs only the arcs it visited.  Arcs left with no candidates or no
  // capacity leave the list when a pass next reaches them.
  //
  // The schedule is the one a full rescan of every arc in every pass
  // would give: the list order never changes, and every skipped scan
  // (a sleeping arc, the rest of a stopped pass, the all-asleep pass
  // before a relaxation) could only have put an arc to sleep or dropped
  // it, never picked.
  const std::size_t num_words = wave_ok_.words().size();
  const std::uint64_t* ok_w = wave_ok_.words().data();
  std::size_t first = 0;
  while (first < active_.size()) {
    const std::size_t end = active_.size();
    const std::uint32_t epoch = epoch_;
    std::size_t kept = first;
    std::size_t p = first;
    bool picker_kept_capacity = false;
    while (p < end) {
      const ArcId a = active_[p++];
      const auto ai = static_cast<std::size_t>(a);
      if (asleep_[ai] == epoch) {
        active_[kept++] = a;
        continue;
      }
      const Arc& arc = graph.arc(a);
      const ArcScan scan = scan_arc(
          candidates_.row(ai).words_data(),
          outstanding_.row(static_cast<std::size_t>(arc.to)).words_data(),
          ok_w, num_words);
      const TokenId pick = scan.wanted >= 0 ? scan.wanted : scan.flood;

      if (pick < 0) {
        // Candidates left means they are all capped: sleep until the
        // next relaxation.  None left means the arc is done for good.
        if (scan.cand_left != 0) {
          asleep_[ai] = epoch;
          active_[kept++] = a;
        }
        continue;
      }

      plan.send(a, ranker_.token_at(pick), universe);
      if (++grant_count_[static_cast<std::size_t>(pick)] > wave) {
        wave_ok_.reset(pick);
        capped_.set(pick);
        --uncapped;
      }
      // The head now holds (a grant of) this token: no arc into it may
      // offer the token again this step.
      for (const ArcId b : graph.in_arcs(arc.to))
        candidates_.row(static_cast<std::size_t>(b)).reset(pick);
      if (--remaining_[ai] > 0) {
        active_[kept++] = a;
        picker_kept_capacity = true;
      }
      if (uncapped == 0) break;
    }

    if (p < end) {
      if (kept < p) {
        ArcId* list = active_.data();
        std::move_backward(list + first, list + kept, list + p);
        first = p - (kept - first);
      }
    } else {
      active_.resize(kept);
    }
    // Relax once every rank is capped, or once no arc that picked in
    // this pass kept capacity (every other listed arc is asleep): the
    // next pass could not pick either way.
    if (uncapped == 0 || !picker_kept_capacity) relax();
  }
}

}  // namespace ocd::heuristics
