#include "ocd/faults/reliable.hpp"

#include <algorithm>

#include "ocd/sim/stats.hpp"

namespace ocd::faults {

using sim::KnowledgeClass;
using sim::StepPlan;
using sim::StepView;

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
  retransmissions_ = 0;
  trimmed_moves_ = 0;
  const auto num_arcs = static_cast<std::size_t>(inst.graph().num_arcs());
  universe_ = static_cast<std::size_t>(inst.num_tokens());
  words_ = (universe_ + 63) / 64;
  timers_.clear();
  timer_words_.clear();
  free_timer_ = -1;
  arc_timers_.assign(num_arcs, -1);
  timed_arcs_.clear();
  timed_arcs_.reserve(num_arcs);
  budget_remaining_.assign(num_arcs, 0);
  budget_touched_.assign(num_arcs, 0);
  planned_.reset(num_arcs, universe_);
  touched_arcs_.clear();
  touched_arcs_.reserve(num_arcs);
  new_arcs_.clear();
  new_arcs_.reserve(num_arcs);
}

std::int32_t ReliableAdapter::new_timer(ArcId arc, std::int64_t retry_at,
                                        std::int32_t backoff) {
  std::int32_t timer = free_timer_;
  if (timer >= 0) {
    free_timer_ = timers_[static_cast<std::size_t>(timer)].next;
  } else {
    timer = static_cast<std::int32_t>(timers_.size());
    timers_.emplace_back();
    timer_words_.resize(timer_words_.size() + words_);
  }
  std::int32_t& head = arc_timers_[static_cast<std::size_t>(arc)];
  timers_[static_cast<std::size_t>(timer)] = Timer{retry_at, backoff, head};
  head = timer;
  return timer;
}

std::size_t ReliableAdapter::in_flight() const noexcept {
  std::size_t pairs = 0;
  for (const ArcId arc : timed_arcs_) {
    for (std::int32_t timer = arc_timers_[static_cast<std::size_t>(arc)];
         timer >= 0; timer = timers_[static_cast<std::size_t>(timer)].next) {
      const std::uint64_t* words =
          timer_words_.data() + static_cast<std::size_t>(timer) * words_;
      for (std::size_t wi = 0; wi < words_; ++wi)
        pairs += static_cast<std::size_t>(__builtin_popcountll(words[wi]));
    }
  }
  return pairs;
}

void ReliableAdapter::plan_step(const StepView& view, StepPlan& plan) {
  const std::int64_t step = view.step();

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

  // One walk over the timed arcs, ascending.  Implicit acks: a peer
  // snapshot showing the token means it landed (possession is monotone,
  // so once seen it stays delivered); timers left empty are freed.
  // Retransmissions go first: recovering a lost token unblocks the
  // receiver now, while the inner policy's fresh sends can wait a turn.
  // They never read the inner plan, so the walk runs before it.
  bool sent_any = false;
  std::size_t kept_arcs = 0;
  for (const ArcId arc : timed_arcs_) {
    const auto ai = static_cast<std::size_t>(arc);
    const TokenSetView acked =
        view.peer_across(view.graph().arc(arc).from, arc);
    const MutableTokenSetView due = planned_.row(ai);
    bool any_due = false;
    for (std::int32_t* link = &arc_timers_[ai]; *link >= 0;) {
      const std::int32_t timer = *link;
      Timer& entry = timers_[static_cast<std::size_t>(timer)];
      const MutableTokenSetView tokens = timer_tokens(timer);
      tokens -= acked;
      if (tokens.empty()) {
        *link = entry.next;
        entry.next = free_timer_;
        free_timer_ = timer;
        continue;
      }
      if (step >= entry.retry_at) {
        if (!any_due) budget_for(arc);  // cleans `due` up next step
        any_due = true;
        due |= tokens;
      }
      link = &entry.next;
    }
    if (arc_timers_[ai] >= 0) timed_arcs_[kept_arcs++] = arc;
    if (!any_due) continue;

    // The due tokens, lowest ids first, within the arc's budget; the
    // rest keep a retry_at in the past: eligible again next step.
    std::int32_t& remaining = budget_remaining_[ai];
    if (remaining <= 0) {
      due.clear();
      continue;
    }
    const auto num_due = static_cast<std::int64_t>(due.count());
    const bool all_sent = num_due <= remaining;
    if (!all_sent) due.truncate(static_cast<std::size_t>(remaining));
    const std::int64_t sent = all_sent ? num_due : remaining;
    plan.send(arc, due);
    sent_any = true;
    remaining -= static_cast<std::int32_t>(sent);
    retransmissions_ += sent;

    // Re-arm what went out.  A due timer the cut split keeps its unsent
    // tokens overdue and hands the sent ones to a new timer, which goes
    // in at the head of the list, behind the walk.
    for (std::int32_t timer = arc_timers_[ai]; timer >= 0;
         timer = timers_[static_cast<std::size_t>(timer)].next) {
      const Timer entry = timers_[static_cast<std::size_t>(timer)];
      if (step < entry.retry_at) continue;
      const std::int32_t backoff = std::min(entry.backoff * 2, max_backoff_);
      if (all_sent || timer_tokens(timer).is_subset_of(due)) {
        timers_[static_cast<std::size_t>(timer)].retry_at = step + backoff;
        timers_[static_cast<std::size_t>(timer)].backoff = backoff;
      } else if (timer_tokens(timer).intersects(due)) {
        const std::int32_t moved = new_timer(arc, step + backoff, backoff);
        timer_tokens(moved).assign(timer_tokens(timer));
        timer_tokens(moved) &= due;
        timer_tokens(timer) -= due;
      }
    }
  }
  timed_arcs_.resize(kept_arcs);

  scratch_.rebind(view.graph(), {});
  inner_->plan_step(view, scratch_);
  if (scratch_.idle_marked()) plan.mark_idle();

  // The inner policy's plan, trimmed in place to what the
  // retransmissions left.  Each arc has one slot, so `planned` needs no
  // update after a fresh send.  A token already in flight on the arc
  // keeps its first send's timer; the rest of the send is one new timer.
  new_arcs_.clear();
  for (const core::MutableArcSend send : scratch_.sends()) {
    if (send.tokens.empty()) continue;
    const auto ai = static_cast<std::size_t>(send.arc);
    std::int32_t& remaining = budget_for(send.arc);
    send.tokens -= planned_.row(ai);
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

    if (arc_timers_[ai] < 0) new_arcs_.push_back(send.arc);
    for (std::int32_t timer = arc_timers_[ai]; timer >= 0;
         timer = timers_[static_cast<std::size_t>(timer)].next)
      send.tokens -= timer_tokens(timer);
    if (send.tokens.empty()) continue;
    const std::int32_t timer =
        new_timer(send.arc, step + base_timeout_, base_timeout_);
    timer_tokens(timer).assign(send.tokens);
  }

  // Merge the newly timed arcs into the ascending list from the back.
  std::sort(new_arcs_.begin(), new_arcs_.end());
  std::size_t read = timed_arcs_.size();
  timed_arcs_.resize(read + new_arcs_.size());
  std::size_t write = timed_arcs_.size();
  for (std::size_t k = new_arcs_.size(); k-- > 0;) {
    while (read > 0 && timed_arcs_[read - 1] > new_arcs_[k])
      timed_arcs_[--write] = timed_arcs_[--read];
    timed_arcs_[--write] = new_arcs_[k];
  }

  // A quiet step while transfers await their backoff deadline is an
  // intentional pause, not a stall.
  if (!sent_any && !timed_arcs_.empty()) plan.mark_idle();
}

void ReliableAdapter::finish_run(sim::RunStats& stats) {
  stats.retransmissions += retransmissions_;
  stats.adapter_dropped_moves += trimmed_moves_;
  inner_->finish_run(stats);
}

}  // namespace ocd::faults
