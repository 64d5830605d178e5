// Sender-side reliable transfer over a lossy network.
//
// ReliableAdapter wraps any Policy with the classic ack/timeout/
// retransmission loop: every token it puts on an arc is tracked as
// in-flight, delivery is acknowledged implicitly through the knowledge
// view (the peer's possession snapshot eventually shows the token), and
// transfers still unacknowledged after a timeout are rescheduled with
// capped exponential backoff.  Retransmissions take arc capacity ahead
// of the inner policy's fresh sends; fresh sends that no longer fit are
// trimmed (counted as adapter drops, the same axis as GroupAdapter's
// congestion drops).
//
// With staleness k the peer snapshot lags k steps, so acknowledgements
// arrive at the earliest k+1 steps after delivery; `base_timeout` must
// exceed that lag or every send is retransmitted at least once (wasted
// bandwidth, never incorrect — a retransmission of a delivered token is
// simply redundant).
//
// In-flight transfers are kept per arc, as timers: a timer is one
// {retry_at, backoff} pair and the set of the arc's tokens that share
// it, one row of words from a pool with a free list.  One arc's timers
// are disjoint and nonempty, and the arcs that hold timers are listed
// in ascending id order.  Each step walks that list once before the
// inner policy plans.  Per arc it reads the peer snapshot once and
// removes it from every timer (the ack), frees the timers left empty,
// and sends the union of the due timers, cut to the arc's capacity by
// lowest token id, as one retransmission; the sent part of each due
// timer is re-armed with the doubled backoff and the rest stays
// overdue.  The inner plan is then trimmed to what is left of each
// budget, and each surviving send, minus the tokens already in flight
// on its arc, becomes one new timer.  A step thus costs word
// operations per timer and per arc sent on, not per in-flight token,
// and once the pool and the per-step scratch have reached their peak
// size it allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::faults {

class ReliableAdapter final : public sim::Policy {
 public:
  /// `base_timeout`: steps to wait for an acknowledgement before the
  /// first retransmission (doubles per retry up to `max_backoff`).
  explicit ReliableAdapter(sim::PolicyPtr inner, std::int32_t base_timeout = 2,
                           std::int32_t max_backoff = 16);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override;

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;
  void finish_run(sim::RunStats& stats) override;

  [[nodiscard]] std::int64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  /// Inner-policy tokens trimmed because retransmissions had taken the
  /// arc's capacity (they never reached the wire).
  [[nodiscard]] std::int64_t trimmed_moves() const noexcept {
    return trimmed_moves_;
  }
  /// Transfers ((arc, token) pairs) currently awaiting acknowledgement.
  [[nodiscard]] std::size_t in_flight() const noexcept;

 private:
  /// One arc's tokens that share a retransmission deadline; the tokens
  /// are the timer's row of `timer_words_`.
  struct Timer {
    std::int64_t retry_at = 0;  ///< next step eligible for retransmission
    std::int32_t backoff = 0;   ///< current timeout (doubles per retry)
    std::int32_t next = -1;     ///< the arc's (or the free list's) next timer
  };

  /// Takes a timer from the free list (or grows the pool) and links it
  /// at the head of `arc`'s list; its row is left for the caller to
  /// fill.  Growing the pool invalidates earlier timer_tokens views.
  std::int32_t new_timer(ArcId arc, std::int64_t retry_at,
                         std::int32_t backoff);
  [[nodiscard]] MutableTokenSetView timer_tokens(std::int32_t timer) {
    return {timer_words_.data() + static_cast<std::size_t>(timer) * words_,
            universe_};
  }

  sim::PolicyPtr inner_;
  std::string name_;
  std::int32_t base_timeout_;
  std::int32_t max_backoff_;
  std::int64_t retransmissions_ = 0;
  std::int64_t trimmed_moves_ = 0;
  // The timer pool: timer i's tokens are the words_ words at
  // i * words_, and freed timers chain from free_timer_.
  std::size_t universe_ = 0;
  std::size_t words_ = 0;
  std::vector<Timer> timers_;
  std::vector<std::uint64_t> timer_words_;
  std::int32_t free_timer_ = -1;
  std::vector<std::int32_t> arc_timers_;  ///< arc -> first timer, or -1
  /// The arcs holding timers, ascending, so retransmissions and
  /// capacity contention resolve deterministically.
  std::vector<ArcId> timed_arcs_;
  // Per-step scratch, reused across steps (sized at reset).  Budgets are
  // flat per-arc arrays initialized lazily for touched arcs only and
  // cleaned up arc-by-arc at the start of the next step.
  sim::StepPlan scratch_;
  std::vector<std::int32_t> budget_remaining_;
  std::vector<char> budget_touched_;
  util::TokenMatrix planned_;  ///< per-arc tokens retransmitted this step
  std::vector<ArcId> touched_arcs_;
  /// Arcs that got their first timer this step, merged into
  /// timed_arcs_ at the end of the step.
  std::vector<ArcId> new_arcs_;
};

}  // namespace ocd::faults
