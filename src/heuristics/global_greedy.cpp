#include "ocd/heuristics/global_greedy.hpp"

#include <algorithm>
#include <array>

#include "ocd/util/binstream.hpp"

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
}

// Coordinated greedy over (arc, token) pairs.  Assignment proceeds in
// passes; during pass w a token may hold at most w+1 grants, which
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
// in-arc of that vertex, and arcs whose candidates or capacity are
// exhausted leave the active list for good (both only shrink).
//
// Every working set lives in the policy's scratch members (sized in
// reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void GlobalGreedyPolicy::plan_step(const sim::StepView& view,
                                   sim::StepPlan& plan) {
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  ranker_.assign_by_rarity(view.aggregate_holders(), &rng_);
  plan_waves(view, [&](ArcId a, TokenId pick) {
    plan.send(a, ranker_.token_at(pick), universe);
  });
}

template <typename Grant>
void GlobalGreedyPolicy::plan_waves(const sim::StepView& view, Grant&& grant) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());

  // Possession permuted once per step; every other rank-space set is a
  // word-parallel combination of these.
  for (std::size_t vi = 0; vi < n; ++vi)
    ranker_.to_ranks_into(possession.row(vi), ranked_poss_.row(vi));

  // Per-arc candidates (tail has, head lacks) and remaining capacity.
  bool anything = false;
  for (std::size_t ai = 0; ai < num_arcs; ++ai) {
    const Arc& arc = graph.arc(static_cast<ArcId>(ai));
    MutableTokenSetView cand = candidates_.row(ai);
    cand.assign(ranked_poss_.row(static_cast<std::size_t>(arc.from)));
    cand -= ranked_poss_.row(static_cast<std::size_t>(arc.to));
    anything = anything || !cand.empty();
    remaining_[ai] = view.capacity(static_cast<ArcId>(ai));
  }
  if (!anything) return;

  // Outstanding wants per vertex, fixed at step start.
  for (std::size_t vi = 0; vi < n; ++vi) {
    MutableTokenSetView out = outstanding_.row(vi);
    ranker_.to_ranks_into(inst.want(static_cast<VertexId>(vi)), out);
    out -= ranked_poss_.row(vi);
  }

  // wave_ok holds the ranks whose grant count is still <= wave; ranks
  // pushed over the cap park in `capped` until the next wave relaxes it.
  std::fill(grant_count_.begin(), grant_count_.end(), 0);
  wave_ok_.assign(full_);
  capped_.clear();

  active_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    if (remaining_[ai] > 0 && !candidates_.row(ai).empty())
      active_.push_back(a);
  }

  // An arc whose candidates are all over the duplication cap cannot pick
  // again until the cap relaxes (its candidate set and wave_ok only
  // shrink within a wave), so instead of rescanning it every pass it
  // falls asleep and skips to the next relaxation: one flag check per
  // pass instead of a full word scan.  The pick sequence — and hence the
  // schedule — is identical to rescanning everything, because a sleeping
  // arc could never have picked in the passes it skips, and it keeps its
  // slot in the list so the scan order never changes.
  const std::size_t num_words = wave_ok_.words().size();
  const std::uint64_t* ok_w = wave_ok_.words().data();
  std::int32_t wave = 0;
  std::size_t awake = active_.size();
  while (!active_.empty()) {
    if (awake == 0) {
      // Every surviving arc is capped: the full rescan would be a
      // no-progress pass.  Relax the cap and wake everyone.
      ++wave;
      wave_ok_ |= capped_;
      capped_.clear();
      for (const ArcId a : active_) asleep_[static_cast<std::size_t>(a)] = 0;
      awake = active_.size();
    }

    std::size_t kept = 0;
    for (std::size_t p = 0; p < active_.size(); ++p) {
      const ArcId a = active_[p];
      const auto ai = static_cast<std::size_t>(a);
      if (asleep_[ai]) {
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
        --awake;
        if (scan.cand_left != 0) {
          asleep_[ai] = 1;
          active_[kept++] = a;
        }
        continue;
      }

      grant(a, pick);
      if (++grant_count_[static_cast<std::size_t>(pick)] > wave) {
        wave_ok_.reset(pick);
        capped_.set(pick);
      }
      // The head now holds (a grant of) this token: no arc into it may
      // offer the token again this step.
      for (const ArcId b : graph.in_arcs(arc.to))
        candidates_.row(static_cast<std::size_t>(b)).reset(pick);
      if (--remaining_[ai] > 0) {
        active_[kept++] = a;
      } else {
        --awake;  // capacity exhausted: the arc leaves for good
      }
    }
    active_.resize(kept);
  }
}

void GlobalGreedyPolicy::save_state(util::BinStream& out) const {
  for (std::uint64_t word : rng_.state()) out.put_u64(word);
}

void GlobalGreedyPolicy::load_state(util::BinStream& in) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = in.get_u64("global.rng");
  rng_.set_state(state);
}

void GlobalGreedyPolicy::begin_coordination(const CoordinationSetup& setup) {
  coord_ = setup;
  const Digraph& graph = setup.instance->graph();
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto universe = static_cast<std::size_t>(setup.instance->num_tokens());
  arc_owned_.assign(num_arcs, 0);
  owned_arcs_.clear();
  touched_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    if (setup.shard_of[static_cast<std::size_t>(arc.from)] != setup.shard)
      continue;
    arc_owned_[static_cast<std::size_t>(a)] = 1;
    owned_arcs_.push_back(a);
    touched_.push_back(arc.from);
    touched_.push_back(arc.to);
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  granted_.reset(n, universe);
  head_dirty_.assign(n, 0);
  dirty_heads_.clear();
  entries_.clear();
  list_ranks_.clear();
  merge_active_.clear();
  picks_.clear();
  ord_of_arc_.clear();
  cand_scratch_ = TokenSet(universe);
  flood_scratch_ = TokenSet(universe);
  own_entries_ = 0;
  own_any_ = false;
}

// Phase 1 of the coordinated step: draw the per-step rarity order
// (exactly the rng sequence plan_step draws, so checkpoints and the
// single-process run stay in lockstep), rebuild the rank-space rows
// the owned arcs touch, and summarize every owned candidate arc into
// its k smallest wanted/flood ranks.  The frame peers receive is the
// encoded summary; the decoded form stays in entries_/list_ranks_ as
// the own-shard prefix of the merge input.
std::int64_t GlobalGreedyPolicy::coord_prescore(const sim::StepView& view,
                                                std::string& frame) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();

  ranker_.assign_by_rarity(view.aggregate_holders(), &rng_);
  for (const VertexId v : touched_) {
    const auto vi = static_cast<std::size_t>(v);
    ranker_.to_ranks_into(possession.row(vi), ranked_poss_.row(vi));
    MutableTokenSetView out = outstanding_.row(vi);
    ranker_.to_ranks_into(inst.want(v), out);
    out -= ranked_poss_.row(vi);
  }

  entries_.clear();
  list_ranks_.clear();
  bool local_any = false;
  const auto topk = static_cast<std::size_t>(coord_.wave_topk);
  for (const ArcId a : owned_arcs_) {
    const Arc& arc = graph.arc(a);
    cand_scratch_.assign(ranked_poss_.row(static_cast<std::size_t>(arc.from)));
    cand_scratch_ -= ranked_poss_.row(static_cast<std::size_t>(arc.to));
    if (cand_scratch_.empty()) continue;
    // The serial `anything` early-return counts capacity-0 arcs too.
    local_any = true;
    if (view.capacity(a) == 0) continue;

    WaveEntry e;
    e.arc = a;
    e.head = arc.to;
    std::size_t taken = 0;
    const auto take = [&](TokenId r) {
      if (taken == topk) return false;  // stopped => ranks remain
      list_ranks_.push_back(r);
      ++taken;
      return true;
    };
    e.w_begin = static_cast<std::int32_t>(list_ranks_.size());
    e.more_w = !TokenSet::for_each_in_intersection(
        cand_scratch_, outstanding_.row(static_cast<std::size_t>(arc.to)),
        take);
    e.w_end = static_cast<std::int32_t>(list_ranks_.size());
    flood_scratch_.assign(cand_scratch_);
    flood_scratch_ -= outstanding_.row(static_cast<std::size_t>(arc.to));
    taken = 0;
    e.f_begin = e.w_end;
    e.more_f = !TokenSet::for_each_in_intersection(flood_scratch_, full_, take);
    e.f_end = static_cast<std::int32_t>(list_ranks_.size());
    entries_.push_back(e);
  }
  own_entries_ = entries_.size();
  own_any_ = local_any;

  // Wire format (everything delta-coded, ascending):
  //   bool any; varint entry_count;
  //   per entry: varint arc_delta (>= 1, from -1); u8 flags
  //   (bit0 more_w, bit1 more_f); varint |W|; |W| rank deltas;
  //   varint |F|; |F| rank deltas.
  util::BinStream bs;
  bs.put_bool(local_any);
  bs.put_varint(static_cast<std::uint64_t>(entries_.size()));
  ArcId prev_arc = -1;
  for (const WaveEntry& e : entries_) {
    bs.put_varint(static_cast<std::uint64_t>(e.arc - prev_arc));
    prev_arc = e.arc;
    bs.put_u8(static_cast<std::uint8_t>((e.more_w ? 1 : 0) |
                                        (e.more_f ? 2 : 0)));
    for (const auto [begin, end] :
         {std::pair{e.w_begin, e.w_end}, std::pair{e.f_begin, e.f_end}}) {
      bs.put_varint(static_cast<std::uint64_t>(end - begin));
      TokenId prev_rank = -1;
      for (std::int32_t i = begin; i < end; ++i) {
        bs.put_varint(
            static_cast<std::uint64_t>(list_ranks_[static_cast<std::size_t>(
                                           i)] -
                                       prev_rank));
        prev_rank = list_ranks_[static_cast<std::size_t>(i)];
      }
    }
  }
  frame = std::move(bs).take();
  return static_cast<std::int64_t>(own_entries_);
}

// Phase 2: decode the peers' summaries, sort the union into the fixed
// global arc order and replay the wave loop over it.  Validity of a
// listed rank r for entry (from -> to): candidate sets only shrink by
// grants to the head (cand_now = cand_0 \ granted(to)) and the wanted/
// flood split is fixed at step start, so r is pickable iff it is
// ungranted and uncapped; the k smallest listed ranks therefore bound
// every rank beyond the horizon, and a class with no valid listed rank
// but a `more` flag set is the one case the summary cannot decide —
// that step falls back to the exact serial rescan over the replicated
// possession state.  Every shard replays this identically, so grants,
// cap bookkeeping and first-touch ordinals agree everywhere.
bool GlobalGreedyPolicy::coord_absorb(const sim::StepView& view,
                                      std::span<const std::string> frames) {
  const Digraph& graph = view.graph();
  const auto num_arcs = static_cast<std::int64_t>(graph.num_arcs());
  const auto n = static_cast<std::int64_t>(graph.num_vertices());
  const auto universe = static_cast<std::int64_t>(view.num_tokens());
  const auto topk = static_cast<std::uint64_t>(coord_.wave_topk);

  for (const VertexId v : dirty_heads_) {
    granted_.row(static_cast<std::size_t>(v)).clear();
    head_dirty_[static_cast<std::size_t>(v)] = 0;
  }
  dirty_heads_.clear();
  picks_.clear();

  bool any = own_any_;
  entries_.resize(own_entries_);
  for (std::int32_t p = 0; p < coord_.num_shards; ++p) {
    if (p == coord_.shard) continue;
    util::BinStream in(frames[static_cast<std::size_t>(p)]);
    any = in.get_bool("wave.any") || any;
    const std::uint64_t count = in.get_varint("wave.entries");
    in.require(count <= static_cast<std::uint64_t>(num_arcs), "wave.entries",
               "more summary entries than arcs");
    ArcId prev_arc = -1;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t delta = in.get_varint("wave.arc");
      in.require(delta >= 1 && prev_arc + static_cast<std::int64_t>(delta) <
                                   num_arcs,
                 "wave.arc", "arc ids must be increasing and in range");
      WaveEntry e;
      e.arc = static_cast<ArcId>(prev_arc + static_cast<std::int64_t>(delta));
      prev_arc = e.arc;
      e.head = graph.arc(e.arc).to;
      const std::uint8_t flags = in.get_u8("wave.flags");
      in.require(flags <= 3, "wave.flags", "unknown summary flags");
      e.more_w = (flags & 1) != 0;
      e.more_f = (flags & 2) != 0;
      for (int cls = 0; cls < 2; ++cls) {
        const std::uint64_t len = in.get_varint("wave.list");
        in.require(len <= topk, "wave.list", "list longer than the horizon");
        in.require((cls == 0 ? e.more_w : e.more_f) ? len == topk : true,
                   "wave.list", "beyond-horizon flag on a short list");
        const auto begin = static_cast<std::int32_t>(list_ranks_.size());
        TokenId prev_rank = -1;
        for (std::uint64_t j = 0; j < len; ++j) {
          const std::uint64_t rd = in.get_varint("wave.rank");
          in.require(rd >= 1 && prev_rank + static_cast<std::int64_t>(rd) <
                                    universe,
                     "wave.rank", "ranks must be increasing and in range");
          prev_rank =
              static_cast<TokenId>(prev_rank + static_cast<std::int64_t>(rd));
          list_ranks_.push_back(prev_rank);
        }
        const auto end = static_cast<std::int32_t>(list_ranks_.size());
        if (cls == 0) {
          e.w_begin = begin;
          e.w_end = end;
        } else {
          e.f_begin = begin;
          e.f_end = end;
        }
      }
      entries_.push_back(e);
    }
    in.require(in.exhausted(), "wave.frame", "trailing bytes");
  }
  if (!any) return false;  // the serial early return: empty step

  std::sort(entries_.begin(), entries_.end(),
            [](const WaveEntry& a, const WaveEntry& b) { return a.arc < b.arc; });

  std::fill(grant_count_.begin(), grant_count_.end(), 0);
  wave_ok_.assign(full_);
  capped_.clear();
  merge_active_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].remaining = view.capacity(entries_[i].arc);
    entries_[i].ordinal = -1;
    entries_[i].asleep = false;
    merge_active_.push_back(i);
  }

  std::int64_t next_ordinal = 0;
  std::int32_t wave = 0;
  std::size_t awake = merge_active_.size();
  bool exhausted = false;
  while (!merge_active_.empty() && !exhausted) {
    if (awake == 0) {
      ++wave;
      wave_ok_ |= capped_;
      capped_.clear();
      for (const std::size_t idx : merge_active_) entries_[idx].asleep = false;
      awake = merge_active_.size();
    }
    std::size_t kept = 0;
    for (std::size_t p = 0; p < merge_active_.size(); ++p) {
      const std::size_t idx = merge_active_[p];
      WaveEntry& e = entries_[idx];
      if (e.asleep) {
        merge_active_[kept++] = idx;
        continue;
      }
      const TokenSetView head_row =
          granted_.row(static_cast<std::size_t>(e.head));
      TokenId pick = -1;
      for (std::int32_t i = e.w_begin; i < e.w_end; ++i) {
        const TokenId r = list_ranks_[static_cast<std::size_t>(i)];
        if (!head_row.test(r) && wave_ok_.test(r)) {
          pick = r;
          break;
        }
      }
      if (pick < 0 && e.more_w) {
        // A wanted rank beyond the horizon could beat any flood pick.
        exhausted = true;
        break;
      }
      if (pick < 0) {
        for (std::int32_t i = e.f_begin; i < e.f_end; ++i) {
          const TokenId r = list_ranks_[static_cast<std::size_t>(i)];
          if (!head_row.test(r) && wave_ok_.test(r)) {
            pick = r;
            break;
          }
        }
        if (pick < 0 && e.more_f) {
          exhausted = true;
          break;
        }
      }
      if (pick < 0) {
        // Both lists are exhaustive here (a `more` flag would have
        // fallen back above), so the sleep-vs-drop call is exact:
        // candidates remain iff some listed rank is still ungranted.
        bool cand_nonempty = false;
        for (std::int32_t i = e.w_begin; i < e.f_end && !cand_nonempty; ++i)
          cand_nonempty = !head_row.test(list_ranks_[static_cast<std::size_t>(i)]);
        --awake;
        if (cand_nonempty) {
          e.asleep = true;
          merge_active_[kept++] = idx;
        }
        continue;
      }

      if (e.ordinal < 0) e.ordinal = next_ordinal++;
      if (arc_owned_[static_cast<std::size_t>(e.arc)])
        picks_.push_back({e.arc, pick, e.ordinal});
      if (!head_dirty_[static_cast<std::size_t>(e.head)]) {
        head_dirty_[static_cast<std::size_t>(e.head)] = 1;
        dirty_heads_.push_back(e.head);
      }
      granted_.row(static_cast<std::size_t>(e.head)).set(pick);
      if (++grant_count_[static_cast<std::size_t>(pick)] > wave) {
        wave_ok_.reset(pick);
        capped_.set(pick);
      }
      if (--e.remaining > 0) {
        merge_active_[kept++] = idx;
      } else {
        --awake;
      }
    }
    if (!exhausted) merge_active_.resize(kept);
  }
  if (!exhausted) return false;

  // Top-k horizon exhausted: possession is fully replicated in
  // coordinated mode, so re-derive the whole step with the exact
  // serial rescan (no further communication) and keep the owned
  // grants.  The rng was already drawn in coord_prescore.
  ord_of_arc_.assign(static_cast<std::size_t>(num_arcs), -1);
  std::int64_t next_ord = 0;
  picks_.clear();
  plan_waves(view, [&](ArcId a, TokenId rank) {
    auto& ord = ord_of_arc_[static_cast<std::size_t>(a)];
    if (ord < 0) ord = next_ord++;
    if (arc_owned_[static_cast<std::size_t>(a)])
      picks_.push_back({a, rank, ord});
  });
  return true;
}

void GlobalGreedyPolicy::coord_emit(const sim::StepView& view,
                                    sim::StepPlan& plan,
                                    std::vector<std::int64_t>& ordinals) {
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  for (const CoordPick& p : picks_) {
    const std::size_t slots = plan.sends().size();
    plan.send(p.arc, ranker_.token_at(p.rank), universe);
    if (plan.sends().size() != slots) ordinals.push_back(p.ordinal);
  }
}

}  // namespace ocd::heuristics
