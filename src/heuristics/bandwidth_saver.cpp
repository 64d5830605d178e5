#include "ocd/heuristics/bandwidth_saver.hpp"

namespace ocd::heuristics {

void BandwidthPolicy::reset(const core::Instance& instance, std::uint64_t) {
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  allowed_.reset(n, universe);
  front_.reset(n, universe);
  spare_front_.assign(allowed_.words_per_row(), 0);
  far_need_.assign(allowed_.words_per_row(), 0);
  witness_.assign(n, 0);
  bfs_.clear();
  bfs_.reserve(n);
  candidates_ = TokenSet(universe);
  needs_ = TokenSet(universe);
  ranked_ = TokenSet(universe);
  batch_ = TokenSet(universe);
}

// The word pass: needs into `into`, frontiers into front_, and the
// R / F filters, over the slice's words only; then the relay BFS for
// the tokens of R ∩ F.  Reads only step-start state and writes only the
// slice's words, so slicing the words across shards reproduces the
// serial matrix exactly.
void BandwidthPolicy::elect(const sim::StepView& view, util::TokenMatrix& into,
                            std::size_t first_word, std::size_t word_stride) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const std::size_t words = possession.words_per_row();
  if (first_word >= words) return;
  for (std::size_t wi = first_word; wi < words; wi += word_stride)
    spare_front_[wi] = far_need_[wi] = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto row = static_cast<std::size_t>(v);
    const TokenSetView have = possession.row(row);
    const TokenSetView want = inst.want(v);
    std::uint64_t* need = into.row(row).mutable_words();
    std::uint64_t* front = front_.row(row).mutable_words();
    for (std::size_t wi = first_word; wi < words; wi += word_stride)
      front[wi] = 0;
    for (ArcId a : graph.in_arcs(v)) {
      const TokenSetView from =
          possession.row(static_cast<std::size_t>(graph.arc(a).from));
      for (std::size_t wi = first_word; wi < words; wi += word_stride)
        front[wi] |= from.word(wi);
    }
    for (std::size_t wi = first_word; wi < words; wi += word_stride) {
      need[wi] = want.word(wi) & ~have.word(wi);
      front[wi] &= ~have.word(wi);
      spare_front_[wi] |= front[wi] & ~need[wi];
      far_need_[wi] |= need[wi] & ~front[wi];
    }
  }
  for (std::size_t wi = first_word; wi < words; wi += word_stride) {
    for (std::uint64_t w = spare_front_[wi] & far_need_[wi]; w != 0;
         w &= w - 1) {
      elect_relays(static_cast<TokenId>(
                       wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w))),
                   graph, into);
    }
  }
}

// Multi-source BFS from t's frontier in ascending vertex id, electing
// for every vertex its nearest frontier vertex (ties broken by BFS
// order — deterministic).  A discovered vertex (distance >= 1) is not
// in the frontier, so it is never a witness and its bit t in `into` is
// still its need bit; its witness is final on discovery, so the relay
// bit is set right then.  The BFS stops once every needy vertex outside
// the frontier is discovered; the rest of it could set no bit.
void BandwidthPolicy::elect_relays(TokenId t, const Digraph& graph,
                                   util::TokenMatrix& into) {
  const auto wi = static_cast<std::size_t>(t) / 64;
  const std::uint64_t bit = 1ULL << (static_cast<unsigned>(t) % 64);
  bfs_.clear();
  std::int32_t far_needy = 0;  // undiscovered needy vertices off the frontier
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto row = static_cast<std::size_t>(v);
    if ((front_.row(row).word(wi) & bit) != 0) {
      witness_[row] = v;
      bfs_.push_back(v);
    } else {
      witness_[row] = -1;  // not discovered yet
      if ((into.row(row).word(wi) & bit) != 0) ++far_needy;
    }
  }
  for (std::size_t head = 0; head < bfs_.size(); ++head) {
    const VertexId u = bfs_[head];
    for (ArcId a : graph.out_arcs(u)) {
      const VertexId w = graph.arc(a).to;
      const auto row = static_cast<std::size_t>(w);
      if (witness_[row] >= 0) continue;
      witness_[row] = witness_[static_cast<std::size_t>(u)];
      bfs_.push_back(w);
      if ((into.row(row).word(wi) & bit) != 0) {
        into.row(static_cast<std::size_t>(witness_[row])).set(t);
        if (--far_needy == 0) return;
      }
    }
  }
}

// The per-arc capacity fill over the finished allowed_ matrix: direct
// needs before relay tokens, rarest first inside each class.  Each
// class is a masked-word iteration over its rank-space set
// (ocd/util/rarity.hpp) rather than a scan of the full rarity order per
// arc, and only the tokens the arc may send are rank-converted: the
// needs, then the flood remainder only if the needs leave room.
void BandwidthPolicy::fill_arc(ArcId a, const sim::StepView& view,
                               sim::StepPlan& plan) {
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const Arc& arc = view.graph().arc(a);
  candidates_.assign(possession.row(static_cast<std::size_t>(arc.from)));
  candidates_ -= possession.row(static_cast<std::size_t>(arc.to));
  candidates_ &= allowed_.row(static_cast<std::size_t>(arc.to));
  if (candidates_.empty()) return;

  const auto capacity = static_cast<std::size_t>(view.capacity(a));
  if (capacity == 0) return;
  if (candidates_.count() <= capacity) {
    plan.send(a, candidates_);
    return;
  }
  needs_.assign(candidates_);
  needs_ &= inst.want(arc.to);
  candidates_ -= needs_;  // the flood remainder
  batch_.clear();
  std::size_t filled = 0;
  const auto take = [&](TokenId r) {
    batch_.set(ranker_.token_at(r));
    return ++filled < capacity;
  };
  // False once the capacity is filled.
  const auto take_rarest = [&](TokenSetView tokens) {
    ranker_.to_ranks_into(tokens, ranked_);
    return TokenSet::for_each_in_intersection(ranked_, ranked_, take);
  };
  if (take_rarest(needs_)) take_rarest(candidates_);
  plan.send(a, batch_);
}

// All per-step working sets live in the policy's scratch members (sized
// in reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void BandwidthPolicy::plan_step(const sim::StepView& view,
                                sim::StepPlan& plan) {
  // allowed[v]: tokens v may receive this turn (needs + elected relays).
  elect(view, allowed_, 0, 1);

  ranker_.assign_by_rarity(view.aggregate_holders(), nullptr);
  for (ArcId a = 0; a < view.graph().num_arcs(); ++a) fill_arc(a, view, plan);
}

void BandwidthPolicy::begin_coordination(const CoordinationSetup& setup) {
  coord_ = setup;
  const Digraph& graph = setup.instance->graph();
  owned_arcs_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    if (setup.shard_of[static_cast<std::size_t>(graph.arc(a).from)] ==
        setup.shard)
      owned_arcs_.push_back(a);
  }
  elected_.reset(allowed_.rows(), allowed_.universe_size());
}

// Elects the shard's word slice (w % num_shards == shard) into
// elected_, which peers read after the barrier.  elected_'s other words
// stay zero from begin_coordination.
void BandwidthPolicy::coord_prescore(const sim::StepView& view) {
  elect(view, elected_, static_cast<std::size_t>(coord_.shard),
        static_cast<std::size_t>(coord_.num_shards));
}

// Each slice holds only its own words' bits, so their union is the
// serial allowed_ matrix.
void BandwidthPolicy::coord_absorb(
    std::span<const util::TokenMatrix* const> slices) {
  allowed_.clear();
  for (const util::TokenMatrix* slice : slices)
    for (std::size_t v = 0; v < allowed_.rows(); ++v)
      allowed_.row(v) |= slice->row(v);
}

// The serial arc loop is arc-ascending, so the owned slice emitted
// here merges across shards (by arc id) into exactly the plan_step
// send order.
void BandwidthPolicy::coord_emit(const sim::StepView& view,
                                 sim::StepPlan& plan) {
  ranker_.assign_by_rarity(view.aggregate_holders(), nullptr);
  for (const ArcId a : owned_arcs_) fill_arc(a, view, plan);
}

}  // namespace ocd::heuristics
