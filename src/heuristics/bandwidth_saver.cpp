#include "ocd/heuristics/bandwidth_saver.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace ocd::heuristics {

void BandwidthPolicy::reset(const core::Instance& instance, std::uint64_t) {
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  const std::size_t blocks = (n + 63) / 64;
  graph_ = &instance.graph();
  allowed_.reset(n, universe);
  front_.reset(n, universe);
  spare_front_.assign(allowed_.words_per_row(), 0);
  far_need_.assign(allowed_.words_per_row(), 0);
  front_columns_.assign(64 * blocks, 0);
  need_columns_.assign(64 * blocks, 0);
  far_column_.assign(blocks, 0);
  seen_.assign(blocks, 0);
  witness_.assign(n, 0);
  bfs_.clear();
  bfs_.reserve(n);
  candidates_ = TokenSet(universe);
  needs_ = TokenSet(universe);
  ranked_ = TokenSet(universe);
  batch_ = TokenSet(universe);
}

namespace {

/// A hash of a vertex column, so that grouping compares whole columns
/// only on a hash match.
std::uint64_t column_hash(std::span<const std::uint64_t> column) {
  std::uint64_t h = 0;
  for (const std::uint64_t w : column)
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL + (h >> 29);
  return h;
}

}  // namespace

// The word pass: needs into `into`, frontiers into front_, and the
// R / F filters, over the slice's words only; then, for each word with
// R ∩ F tokens, one relay BFS per distinct frontier column among them.
// Reads only step-start state and writes only the slice's words, so
// slicing the words across shards reproduces the serial matrix exactly.
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
  const std::size_t blocks =
      (static_cast<std::size_t>(graph.num_vertices()) + 63) / 64;
  const auto column = [&](const std::vector<std::uint64_t>& columns,
                          unsigned j) {
    return std::span<const std::uint64_t>(columns).subspan(j * blocks, blocks);
  };
  for (std::size_t wi = first_word; wi < words; wi += word_stride) {
    const std::uint64_t relay_tokens = spare_front_[wi] & far_need_[wi];
    if (relay_tokens == 0) continue;
    RarityRanker::word_columns(front_, wi, front_columns_);
    RarityRanker::word_columns(into, wi, need_columns_);
    // Groups of equal frontier column: the bit of group g's first token
    // (first[g]), the column's hash and the group's token bits.
    std::array<unsigned, 64> first{};
    std::array<std::uint64_t, 64> hash{};
    std::array<std::uint64_t, 64> members{};
    std::size_t groups = 0;
    for (std::uint64_t rest = relay_tokens; rest != 0; rest &= rest - 1) {
      const auto j = static_cast<unsigned>(__builtin_ctzll(rest));
      const auto frontier = column(front_columns_, j);
      const std::uint64_t h = column_hash(frontier);
      std::size_t g = 0;
      while (g < groups &&
             (hash[g] != h ||
              !std::ranges::equal(frontier, column(front_columns_, first[g]))))
        ++g;
      if (g == groups) {
        first[g] = j;
        hash[g] = h;
        members[g] = 0;
        ++groups;
      }
      members[g] |= 1ULL << j;
    }
    for (std::size_t g = 0; g < groups; ++g)
      elect_relays(wi, column(front_columns_, first[g]), members[g], graph,
                   into);
  }
}

// One multi-source BFS from a frontier column shared by the tokens
// `members` of word wi, sources in ascending vertex id.  Each vertex
// is discovered once, from the first queued in-neighbour, and takes
// that neighbour's witness; the queue stays sorted by witness id at
// every level, so a vertex's witness is the lowest-id frontier vertex
// at minimum distance, which depends on the frontier set alone.  The
// BFS each member token would run alone is therefore a prefix of this
// one.  A discovered vertex (distance >= 1) is off the frontier, so its
// members' bits in `into` are still need bits and no relay bit; each
// needy one elects its witness for the tokens it needs, at once.  The
// BFS stops once every needy vertex off the frontier, for any member,
// is discovered; the rest of it could set no bit.
void BandwidthPolicy::elect_relays(std::size_t wi,
                                   std::span<const std::uint64_t> frontier,
                                   std::uint64_t members, const Digraph& graph,
                                   util::TokenMatrix& into) {
  const std::size_t blocks = frontier.size();
  std::int64_t far_needy = 0;  // undiscovered needy vertices off the frontier
  std::fill(far_column_.begin(), far_column_.end(), 0);
  for (std::uint64_t rest = members; rest != 0; rest &= rest - 1) {
    const std::uint64_t* need =
        need_columns_.data() +
        static_cast<std::size_t>(__builtin_ctzll(rest)) * blocks;
    for (std::size_t b = 0; b < blocks; ++b) far_column_[b] |= need[b];
  }
  bfs_.clear();
  for (std::size_t b = 0; b < blocks; ++b) {
    far_column_[b] &= ~frontier[b];
    far_needy += std::popcount(far_column_[b]);
    seen_[b] = frontier[b];
    for (std::uint64_t rest = frontier[b]; rest != 0; rest &= rest - 1) {
      const auto v = static_cast<VertexId>(
          64 * b + static_cast<std::size_t>(__builtin_ctzll(rest)));
      witness_[static_cast<std::size_t>(v)] = v;
      bfs_.push_back(v);
    }
  }
  const std::size_t wpr = into.words_per_row();
  std::uint64_t* words = into.mutable_words();
  for (std::size_t head = 0; head < bfs_.size(); ++head) {
    const VertexId u = bfs_[head];
    const VertexId x = witness_[static_cast<std::size_t>(u)];
    for (ArcId a : graph.out_arcs(u)) {
      const auto w = static_cast<std::size_t>(graph.arc(a).to);
      const std::uint64_t bit = 1ULL << (w % 64);
      if ((seen_[w / 64] & bit) != 0) continue;
      seen_[w / 64] |= bit;
      witness_[w] = x;
      bfs_.push_back(static_cast<VertexId>(w));
      if ((far_column_[w / 64] & bit) != 0) {
        words[static_cast<std::size_t>(x) * wpr + wi] |=
            words[w * wpr + wi] & members;
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

void BandwidthPolicy::begin_coordination(
    std::span<const std::int32_t> shard_of, std::int32_t shard,
    std::int32_t num_shards) {
  shard_ = shard;
  num_shards_ = num_shards;
  owned_arcs_.clear();
  for (ArcId a = 0; a < graph_->num_arcs(); ++a) {
    if (shard_of[static_cast<std::size_t>(graph_->arc(a).from)] == shard)
      owned_arcs_.push_back(a);
  }
  elected_.reset(allowed_.rows(), allowed_.universe_size());
}

// Elects the shard's word slice (w % num_shards == shard) into
// elected_, which peers read after the barrier.  elected_'s other words
// stay zero from begin_coordination.
void BandwidthPolicy::coord_prescore(const sim::StepView& view) {
  elect(view, elected_, static_cast<std::size_t>(shard_),
        static_cast<std::size_t>(num_shards_));
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
