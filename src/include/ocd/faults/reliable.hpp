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
// The in-flight table is one flat vector of {arc, token, retry_at,
// backoff} entries, sorted by (arc, token) with no key twice.  Each
// step makes one walk over it before the inner policy plans: one peer
// snapshot read per run of entries on an arc acknowledges, the acked
// entries are compacted out, and due entries are retransmitted in
// (arc, token) order within the arc's budget.  The inner plan is then
// trimmed to what is left of each budget; its slots are sorted by arc,
// tokens already in flight on the arc are dropped from the new timers
// (a duplicate key keeps its first send's timer), and the new entries
// are merged into the table from the back.  A step thus costs
// O(in-flight + arcs sent on), and once the table and the per-step
// scratch have reached their peak size it allocates nothing.
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
  /// Transfers currently awaiting acknowledgement.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }

 private:
  struct InFlight {
    ArcId arc = 0;
    TokenId token = 0;
    std::int64_t retry_at = 0;  ///< next step eligible for retransmission
    std::int32_t backoff = 0;   ///< current timeout (doubles per retry)
  };

  sim::PolicyPtr inner_;
  std::string name_;
  std::int32_t base_timeout_;
  std::int32_t max_backoff_;
  /// Sorted by (arc, token), unique keys, so capacity contention
  /// resolves deterministically.
  std::vector<InFlight> inflight_;
  std::int64_t retransmissions_ = 0;
  std::int64_t trimmed_moves_ = 0;
  // Per-step scratch, reused across steps (sized at reset).  Budgets are
  // flat per-arc arrays initialized lazily for touched arcs only and
  // cleaned up arc-by-arc at the start of the next step.
  sim::StepPlan scratch_;
  std::vector<std::int32_t> budget_remaining_;
  std::vector<char> budget_touched_;
  util::TokenMatrix planned_;  ///< per-arc tokens retransmitted this step
  std::vector<ArcId> touched_arcs_;
  /// (arc << 32 | slot) for the scratch_ slots that reached the wire
  /// this step; sorted, it orders the new timers for the merge.
  std::vector<std::uint64_t> sent_slots_;
};

}  // namespace ocd::faults
