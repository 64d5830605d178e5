#include "ocd/heuristics/global_greedy.hpp"

#include <algorithm>

namespace ocd::heuristics {

namespace {

/// One arc's fused candidate scan.  The candidates are `tail & ~held`
/// (the tail's ranks the head neither had at step start nor was
/// granted since); `wanted` is the first wanted in-cap candidate
/// (rank), `flood` the first in-cap candidate of any kind, `cand_left`
/// ORs every candidate word seen before the wanted hit — nonzero means
/// candidates remain (only meaningful when both picks are -1, i.e. the
/// scan ran through).
struct ArcScan {
  TokenId wanted = -1;
  TokenId flood = -1;
  std::uint64_t cand_left = 0;
};

ArcScan scan_arc(const std::uint64_t* tail_w, const std::uint64_t* held_w,
                 const std::uint64_t* out_w, const std::uint64_t* ok_w,
                 std::size_t num_words) {
  ArcScan r;
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t cw = tail_w[wi] & ~held_w[wi];
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
  instance_ = &instance;
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  const auto num_arcs = static_cast<std::size_t>(instance.graph().num_arcs());
  ranked_poss_.reset(n, universe);
  held_.reset(n, universe);
  // outstanding_ stages the token-space wants for their one transpose;
  // every step overwrites it in rank space.
  outstanding_.reset(n, universe);
  for (std::size_t vi = 0; vi < n; ++vi)
    outstanding_.assign_row(vi, instance.want(static_cast<VertexId>(vi)));
  RarityRanker::to_columns(outstanding_, want_columns_);
  remaining_.assign(num_arcs, 0);
  grant_count_.assign(universe, 0);
  full_ = TokenSet::full(universe);
  wave_ok_ = TokenSet(universe);
  capped_ = TokenSet(universe);
  live_.clear();
  live_.reserve(num_arcs);
  awake_.clear();
  awake_.reserve(num_arcs);
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
// `tail & ~held & wanted & wave_ok` words instead of an O(universe)
// scan of the rarity order.  Candidates are kept per vertex, not per
// arc: held[v] starts as v's ranked possession and gains each rank
// granted to v, so one bit per grant updates every arc into v.
//
// Every working set lives in the policy's scratch members (sized in
// reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void GlobalGreedyPolicy::plan_step(const sim::StepView& view,
                                   sim::StepPlan& plan) {
  const Digraph& graph = view.graph();
  const util::TokenMatrix& possession = view.global_possession();
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  OCD_EXPECTS(&view.instance() == instance_);  // whose wants reset() took

  // Possession permuted once per step, as one matrix; every other
  // rank-space set is a word-parallel combination of it and the wants.
  ranker_.assign_by_rarity(view.aggregate_holders(), &rng_);
  ranker_.to_ranks_into(possession, ranked_poss_);

  // The live list: arcs with capacity whose tail holds a rank the head
  // lacks, in arc-id order.  No candidate row is written.
  live_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const std::int32_t capacity = view.capacity(a);
    if (capacity <= 0) continue;
    const Arc& arc = graph.arc(a);
    if (ranked_poss_.row(static_cast<std::size_t>(arc.from))
            .is_subset_of(ranked_poss_.row(static_cast<std::size_t>(arc.to))))
      continue;
    remaining_[static_cast<std::size_t>(a)] = capacity;
    live_.push_back(a);
  }
  if (live_.empty()) return;
  held_.copy_from(ranked_poss_);

  // Outstanding wants per vertex, fixed at step start: the want columns
  // read back in this step's rank order, less ranked possession.
  ranker_.columns_to_ranks(want_columns_, outstanding_);
  for (std::size_t vi = 0; vi < n; ++vi)
    outstanding_.row(vi) -= ranked_poss_.row(vi);

  // wave_ok holds the ranks whose grant count is still <= wave; ranks
  // pushed over the cap park in `capped` until the next wave relaxes it.
  // A capped rank holds exactly wave+1 grants, so a relaxation returns
  // every rank to wave_ok and `uncapped` (wave_ok's size) to universe.
  std::fill(grant_count_.begin(), grant_count_.end(), 0);
  wave_ok_.assign(full_);
  capped_.clear();
  std::int32_t wave = 0;
  std::size_t uncapped = universe;
  const auto relax = [&] {
    ++wave;
    wave_ok_ |= capped_;
    capped_.clear();
    uncapped = universe;
  };

  // Scans arc `a` and grants its pick, if any.  Returns whether the arc
  // picked and kept capacity.  An arc left with no candidate gets
  // remaining 0, so afterwards remaining > 0 means it stays live.
  const std::size_t num_words = wave_ok_.words().size();
  const std::uint64_t* ok_w = wave_ok_.words().data();
  const auto visit = [&](ArcId a) {
    const auto ai = static_cast<std::size_t>(a);
    const Arc& arc = graph.arc(a);
    const auto head = static_cast<std::size_t>(arc.to);
    const ArcScan scan = scan_arc(
        ranked_poss_.row(static_cast<std::size_t>(arc.from)).words_data(),
        held_.row(head).words_data(), outstanding_.row(head).words_data(),
        ok_w, num_words);
    const TokenId pick = scan.wanted >= 0 ? scan.wanted : scan.flood;
    if (pick < 0) {
      // Candidates left means they are all capped: the arc sleeps until
      // the next relaxation.  None left means it is done for good.
      if (scan.cand_left == 0) remaining_[ai] = 0;
      return false;
    }
    plan.send(a, ranker_.token_at(pick), universe);
    if (++grant_count_[static_cast<std::size_t>(pick)] > wave) {
      wave_ok_.reset(pick);
      capped_.set(pick);
      --uncapped;
    }
    // The head now holds (a grant of) this token: no arc into it may
    // offer the token again this step.
    held_.row(head).set(pick);
    return --remaining_[ai] > 0;
  };

  // Each wave starts with a pass over the whole live list, in order,
  // compacting the survivors forward.  An arc that finds only capped
  // candidates cannot pick again until the cap relaxes (its candidates
  // and wave_ok only shrink within a wave), so the wave's later passes
  // visit only the awake list: the arcs that picked in the pass before
  // and kept capacity.  Arcs that go dry there are dropped from the live
  // list by the next wave's first pass.  Any pass stops as soon as every
  // rank is capped: no arc can pick before the next relaxation.  A
  // stopped first pass slides its visited survivors up against the
  // unvisited tail, and the list restarts after the gap, so the pass
  // costs only the arcs it visited.
  //
  // The schedule is the one a full rescan of every arc in every pass
  // would give: the list order never changes, and every skipped scan
  // (an arc outside the awake list, the rest of a stopped pass) could
  // only have found the arc asleep or dry, never picked.
  std::size_t first = 0;
  while (first < live_.size()) {
    const std::size_t end = live_.size();
    std::size_t kept = first;
    std::size_t p = first;
    awake_.clear();
    while (p < end) {
      const ArcId a = live_[p++];
      const auto ai = static_cast<std::size_t>(a);
      if (remaining_[ai] == 0) continue;  // went dry in a later pass
      if (visit(a)) awake_.push_back(a);
      if (remaining_[ai] > 0) live_[kept++] = a;
      if (uncapped == 0) break;
    }
    if (p < end) {
      if (kept < p) {
        ArcId* list = live_.data();
        std::move_backward(list + first, list + kept, list + p);
        first = p - (kept - first);
      }
    } else {
      live_.resize(kept);
    }

    while (!awake_.empty() && uncapped > 0) {
      std::size_t still = 0;
      for (std::size_t i = 0; i < awake_.size() && uncapped > 0; ++i) {
        const ArcId a = awake_[i];
        if (visit(a)) awake_[still++] = a;
      }
      awake_.resize(still);
    }
    relax();
  }
}

}  // namespace ocd::heuristics
