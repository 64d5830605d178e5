// Shard execution engine: one ShardWorker per shard plus the driver
// (run_in_process) that steps all workers through the barrier protocol
// and moves their BinStream messages.
//
// The protocol is phase-synchronous; the driver only provides message
// motion and the barrier, never decisions.  Per step:
//
//   phase_wave    -> election frames (coordinated planners, > 1 shard)
//   phase_plan    -> round-1 messages (plan summary + routed deliveries)
//   phase_apply   -> round-2 messages (apply summary + ghost updates)
//   phase_commit  -> replicated global decision; every worker agrees on
//                    running()/termination() afterwards
//
// plus one init round before the loop (initial unsatisfied counts) and
// one finish_fragment() per worker after it, which run_sharded merges
// into the final RunResult.  Messages stay BinStream-encoded even in one
// address space: the encoded frames define the barrier traffic counters
// (RunStats::shard_bytes_sent).  Workers are pool chunks of one process:
// an error in any worker (a policy breaking capacity, a corrupt frame)
// propagates out of run_sharded.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ocd/core/schedule.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/knowledge.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {
class ShardCoordinator;
}

namespace ocd::shard {

/// Everything a worker needs to run one shard, resolved once by
/// run_sharded.  Borrowed pointers must outlive the driver run.
struct RunContext {
  const core::Instance* instance = nullptr;
  const Partition* partition = nullptr;
  std::string policy_name;
  sim::SimOptions sim;
  sim::KnowledgeClass knowledge = sim::KnowledgeClass::kLocalOnly;
  /// Resolved watchdog window (-1 = off), mirroring the simulator's
  /// auto-arming rule.
  std::int64_t watchdog_window = -1;
  std::vector<std::int32_t> static_capacity;
  /// Coordinated planning (kGlobal policies): workers fully replicate
  /// possession, and on > 1 shard the driver runs one extra *wave*
  /// message round (phase_wave / absorb_wave) before every plan phase.
  bool coordinated = false;
};

/// One shard's replica of the simulator loop.  Owns the shard-local
/// possession rows (owned vertices plus ghosts), its policy instance,
/// and the replicated global decision state; communicates only through
/// the phase methods' message vectors (indexed by peer shard; the self
/// slot stays empty).
class ShardWorker {
 public:
  ShardWorker(const RunContext& ctx, std::int32_t shard);

  /// Init round: broadcast the initial owned unsatisfied count.
  void phase_init(std::vector<std::string>& out);
  void absorb_init(const std::vector<std::string>& in);

  /// Coordinated wave round (ctx.coordinated, > 1 shard only): score
  /// the owned slice of this step's decision into one frame, broadcast
  /// verbatim to every peer.  Requires running().
  void phase_wave(std::vector<std::string>& out);
  /// Merge the peers' summary frames; afterwards the worker holds the
  /// replicated merged decision phase_plan's coord_emit will draw from.
  void absorb_wave(const std::vector<std::string>& in);

  /// Plan owned vertices, validate, apply channel loss, route surviving
  /// deliveries to their destination's owner.  Requires running().
  void phase_plan(std::vector<std::string>& out);
  /// Merge inbound deliveries into owned possession rows; emit apply
  /// summaries and ghost updates.
  void phase_apply(const std::vector<std::string>& in,
                   std::vector<std::string>& out);
  /// Fold the apply summaries into the replicated global state and
  /// decide termination — identically on every shard.
  void phase_commit(const std::vector<std::string>& in);

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Committed step count == the step the next phase_plan would plan.
  [[nodiscard]] std::int64_t step() const noexcept { return step_; }
  [[nodiscard]] sim::Termination termination() const;

  /// Final per-shard results (schedule fragment, completion, upload
  /// counts; shard 0 adds the global per-step series), BinStream-
  /// encoded for run_sharded's merge.
  [[nodiscard]] std::string finish_fragment();

 private:
  void deliver(VertexId to, TokenSetView tokens);
  void validate_shard_sends(std::span<const core::ArcSend> sends);

  const RunContext& ctx_;
  std::int32_t shard_;
  std::int32_t num_shards_;
  bool faulted_;
  bool needs_aggregates_;

  sim::PolicyPtr policy_;
  /// The policy's coordination interface (ctx.coordinated && > 1 shard;
  /// null otherwise).
  heuristics::ShardCoordinator* coord_ = nullptr;
  std::span<const VertexId> owned_;
  std::vector<VertexId> rows_;             ///< row -> global vertex id
  std::vector<std::int32_t> row_map_;      ///< global vertex id -> row, -1
  std::vector<std::int32_t> owned_index_;  ///< vertex -> owned slot, -1
  util::TokenMatrix possession_;           ///< one row per rows_ entry
  util::TokenMatrix uni_;  ///< per-owned union of this step's fresh sets
  sim::Aggregates aggregates_;             ///< replicated global vectors
  std::vector<std::int64_t> dh_, dn_;      ///< per-step aggregate deltas
  sim::StepPlan plan_;
  std::vector<std::int32_t> arc_load_;
  std::vector<char> satisfied_;            ///< per owned slot
  std::vector<std::int64_t> completion_;   ///< per owned slot, -1 pending
  std::vector<std::int64_t> sent_by_;      ///< per vertex (senders may be
                                           ///< ghosts under "local")
  std::vector<char> touched_flag_;         ///< per owned slot
  std::vector<std::int32_t> touched_;      ///< owned slots hit this step
  /// Per peer: owned vertices that peer ghosts (its subscriptions).
  std::vector<std::vector<VertexId>> out_ghost_;
  /// Per peer: plan send indices routed to it this step.
  std::vector<std::vector<std::uint32_t>> deliv_for_;
  std::vector<std::uint32_t> local_deliv_;
  TokenSet fresh_;        ///< apply kernel scratch
  TokenSet lost_;         ///< fault scratch
  TokenSet msg_tokens_;   ///< decode scratch
  std::string wave_frame_;  ///< phase_wave's frame, reused per step

  // Barrier traffic accounting (sim/stats.hpp shard_* counters).
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;
  std::int64_t summary_entries_ = 0;

  // Replicated global decision state (identical on every shard).
  std::int64_t step_ = 0;
  std::int64_t unsatisfied_ = 0;
  std::int64_t local_unsatisfied_ = 0;
  std::int64_t no_progress_ = 0;
  bool running_ = false;
  bool stalled_ = false;
  bool watchdog_hit_ = false;
  bool pending_stall_ = false;

  // Per-step counters (this shard / folded global).
  std::int64_t step_moves_ = 0;
  std::int64_t step_lost_ = 0;
  std::int64_t step_useful_ = 0;
  std::int64_t global_moves_ = 0;
  std::int64_t global_lost_ = 0;

  // Shard 0 only: the global per-step series for RunStats.
  std::vector<std::int64_t> moves_per_step_;
  std::vector<std::int64_t> lost_per_step_;
  std::int64_t useful_total_ = 0;
  std::int64_t lost_total_ = 0;

  core::Schedule schedule_;  ///< this shard's fragment (when recording)
};

/// Runs the full protocol with every worker in this process, stepped as
/// chunks of the ocd::util worker pool; messages pass through two
/// in-memory mailbox grids (one per round, so a phase never reads a grid
/// another worker is writing).  Returns one finish fragment per shard.
std::vector<std::string> run_in_process(const RunContext& ctx);

}  // namespace ocd::shard
