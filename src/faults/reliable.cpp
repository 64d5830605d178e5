#include "ocd/faults/reliable.hpp"

#include <algorithm>

#include "ocd/sim/stats.hpp"

namespace ocd::faults {

using sim::KnowledgeClass;
using sim::StepPlan;
using sim::StepView;

namespace {

/// Invokes fn(TokenId) for every member of `tokens` in decreasing order.
template <typename Fn>
void for_each_descending(TokenSetView tokens, Fn&& fn) {
  for (std::size_t wi = tokens.num_words(); wi-- > 0;) {
    std::uint64_t w = tokens.word(wi);
    while (w != 0) {
      const auto bit = 63 - __builtin_clzll(w);
      fn(static_cast<TokenId>(wi * 64 + static_cast<std::size_t>(bit)));
      w &= ~(1ULL << bit);
    }
  }
}

}  // namespace

ReliableAdapter::ReliableAdapter(sim::PolicyPtr inner,
                                 std::int32_t base_timeout,
                                 std::int32_t max_backoff)
    : inner_(std::move(inner)),
      base_timeout_(base_timeout),
      max_backoff_(max_backoff) {
  OCD_EXPECTS(inner_ != nullptr);
  OCD_EXPECTS(base_timeout >= 1);
  OCD_EXPECTS(max_backoff >= base_timeout);
  name_ = std::string(inner_->name()) + "+reliable";
}

KnowledgeClass ReliableAdapter::knowledge_class() const {
  // Acknowledgements are read off peer possession snapshots, so the
  // adapter needs at least kLocalPeers; a better-informed inner policy
  // keeps its own class.
  return std::max(inner_->knowledge_class(), KnowledgeClass::kLocalPeers);
}

void ReliableAdapter::reset(const core::Instance& inst, std::uint64_t seed) {
  inner_->reset(inst, seed);
  inflight_.clear();
  retransmissions_ = 0;
  trimmed_moves_ = 0;
  const auto num_arcs = static_cast<std::size_t>(inst.graph().num_arcs());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  budget_remaining_.assign(num_arcs, 0);
  budget_touched_.assign(num_arcs, 0);
  planned_.reset(num_arcs, universe);
  touched_arcs_.clear();
  touched_arcs_.reserve(num_arcs);
  sent_slots_.clear();
  sent_slots_.reserve(num_arcs);
}

void ReliableAdapter::plan_step(const StepView& view, StepPlan& plan) {
  const std::int64_t step = view.step();
  const auto universe = static_cast<std::size_t>(view.num_tokens());

  // Per-arc budget tracking, touched arcs only.  `planned` keeps the
  // inner policy from charging a token twice when a retransmission
  // already carries it on the arc this step.  The flat arrays are
  // cleaned up arc-by-arc from the previous step's touch list.
  for (const ArcId arc : touched_arcs_) {
    budget_touched_[static_cast<std::size_t>(arc)] = 0;
    planned_.row(static_cast<std::size_t>(arc)).clear();
  }
  touched_arcs_.clear();
  const auto budget_for = [&](ArcId arc) -> std::int32_t& {
    const auto ai = static_cast<std::size_t>(arc);
    if (!budget_touched_[ai]) {
      budget_touched_[ai] = 1;
      budget_remaining_[ai] = view.capacity(arc);
      touched_arcs_.push_back(arc);
    }
    return budget_remaining_[ai];
  };

  // One walk over the table, arc run by arc run.  Implicit acks: a peer
  // snapshot showing the token means it landed (possession is
  // monotone, so once seen it stays delivered); acked entries are
  // compacted out.  Retransmissions go first: recovering a lost token
  // unblocks the receiver now, while the inner policy's fresh sends can
  // wait a turn.  They never read the inner plan, so the walk runs
  // before it.
  bool sent_any = false;
  std::size_t kept = 0;
  for (std::size_t i = 0, n = inflight_.size(); i < n;) {
    const ArcId arc = inflight_[i].arc;
    const Arc& a = view.graph().arc(arc);
    const TokenSetView acked = view.peer_possession(a.from, a.to);
    for (; i < n && inflight_[i].arc == arc; ++i) {
      InFlight entry = inflight_[i];
      if (acked.test(entry.token)) continue;
      if (step >= entry.retry_at) {
        std::int32_t& remaining = budget_for(arc);
        if (remaining > 0) {  // else retry_at stays in the past:
                              // eligible again next step
          plan.send(arc, entry.token, universe);
          sent_any = true;
          planned_.row(static_cast<std::size_t>(arc)).set(entry.token);
          --remaining;
          ++retransmissions_;
          entry.backoff = std::min(entry.backoff * 2, max_backoff_);
          entry.retry_at = step + entry.backoff;
        }
      }
      inflight_[kept++] = entry;
    }
  }
  inflight_.resize(kept);

  scratch_.rebind(view.graph(), {});
  inner_->plan_step(view, scratch_);
  if (scratch_.idle_marked()) plan.mark_idle();

  // The inner policy's plan, trimmed in place to what the
  // retransmissions left.  Each arc has one slot, so `planned` needs no
  // update after a fresh send.
  const auto sends = scratch_.sends();
  sent_slots_.clear();
  for (std::size_t s = 0; s < sends.size(); ++s) {
    const core::MutableArcSend send = sends[s];
    if (send.tokens.empty()) continue;
    std::int32_t& remaining = budget_for(send.arc);
    send.tokens -= planned_.row(static_cast<std::size_t>(send.arc));
    auto want = static_cast<std::int64_t>(send.tokens.count());
    if (want > remaining) {
      trimmed_moves_ += want - std::max<std::int64_t>(remaining, 0);
      send.tokens.truncate(
          static_cast<std::size_t>(std::max<std::int32_t>(remaining, 0)));
      want = static_cast<std::int64_t>(send.tokens.count());
    }
    if (want == 0) continue;
    plan.send(send.arc, send.tokens);
    sent_any = true;
    remaining -= static_cast<std::int32_t>(want);
    sent_slots_.push_back(static_cast<std::uint64_t>(send.arc) << 32 | s);
  }

  // New timers, in (arc, token) order.  A token already in flight on
  // the arc keeps its first send's timer, so it is dropped from the
  // slot; the rest grow the table once and merge in from the back.
  std::sort(sent_slots_.begin(), sent_slots_.end());
  std::size_t added = 0;
  auto run = inflight_.begin();
  for (const std::uint64_t key : sent_slots_) {
    const core::MutableArcSend send = sends[static_cast<std::uint32_t>(key)];
    run = std::lower_bound(
        run, inflight_.end(), send.arc,
        [](const InFlight& e, ArcId arc) { return e.arc < arc; });
    for (auto it = run; it != inflight_.end() && it->arc == send.arc; ++it)
      send.tokens.reset(it->token);
    added += send.tokens.count();
  }
  std::size_t read = inflight_.size();
  inflight_.resize(read + added);
  std::size_t write = inflight_.size();
  for (std::size_t k = sent_slots_.size(); k-- > 0;) {
    const core::ArcSend send =
        sends[static_cast<std::uint32_t>(sent_slots_[k])];
    const ArcId arc = send.arc;
    while (read > 0 && inflight_[read - 1].arc > arc)
      inflight_[--write] = inflight_[--read];
    for_each_descending(send.tokens, [&](TokenId t) {
      while (read > 0 && inflight_[read - 1].arc == arc &&
             inflight_[read - 1].token > t)
        inflight_[--write] = inflight_[--read];
      inflight_[--write] =
          InFlight{arc, t, step + base_timeout_, base_timeout_};
    });
  }

  // A quiet step while transfers await their backoff deadline is an
  // intentional pause, not a stall.
  if (!sent_any && !inflight_.empty()) plan.mark_idle();
}

void ReliableAdapter::finish_run(sim::RunStats& stats) {
  stats.retransmissions += retransmissions_;
  stats.adapter_dropped_moves += trimmed_moves_;
  inner_->finish_run(stats);
}

}  // namespace ocd::faults
