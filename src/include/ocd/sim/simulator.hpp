// The synchronous round simulator implementing the model of §3.1.
//
// Each timestep: build the knowledge views, let the policy plan,
// validate the whole plan against capacity and possession (a buggy
// policy throws), and apply all sends simultaneously.  Runs terminate
// when every want is satisfied, when `max_steps` elapses, or when a
// step produces no moves while wants remain outstanding (a stalled
// policy).
//
// The hot loop does work proportional to what changed and what the
// policy can observe, not O(n·|T|) per step:
//  * validate-then-apply delivery — every send is checked against the
//    start-of-step possession first, then recipients are mutated in
//    place (no per-step deep copy of the possession state);
//  * per-arc capacity is enforced on the aggregate of all sends
//    sharing an arc, not per ArcSend;
//  * satisfaction is tracked with an unsatisfied-vertex counter updated
//    on delivery instead of a full rescan;
//  * aggregate vectors are materialized only for kLocalAggregate+
//    policies and maintained incrementally on delivery;
//  * zero-staleness snapshot views alias the live possession matrix.
// On every exit path, `stats.moves_per_step.size() == steps` holds.
//
// Memory layout (ISSUE 4): all per-vertex possession state lives in one
// row-major util::TokenMatrix; policies receive TokenSetView rows, the
// staleness buffer is a fixed ring of matrices copied in place, and the
// per-step working set (StepPlan send pool, capacity/load arrays,
// delivery scratch) is a SimScratch arena owned by the Simulator and
// cleared — never reallocated — each step.  With schedule recording
// off, a steady-state step performs zero heap allocations (asserted by
// tests/sim/alloc_count_test.cpp).  Nothing a run allocates grows
// quadratically in n (no policy reads hop distances, so none are
// precomputed).  A run executes on the calling thread; concurrency
// lives one level up, in bench sweeps and the shard runtime.
//
// With a FaultModel installed the apply phase becomes lossy: validated
// sends consume capacity, but tokens the model eats never mutate
// possession, aggregates, or snapshots (knowledge stays truthful — a
// peer view shows the receiver still lacking the token).  The recorded
// schedule keeps only delivered tokens, so it remains a valid
// loss-free schedule reaching the same final state; moves_per_step and
// RunStats::total_moves() count what hit the wire, lost included.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "ocd/core/instance.hpp"
#include "ocd/core/schedule.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/sim/stats.hpp"

namespace ocd::dynamics {
class DynamicsModel;
}

namespace ocd::faults {
class FaultModel;
}

namespace ocd::sim {

struct SimOptions {
  std::int64_t max_steps = 1'000'000;
  /// Peer-knowledge staleness k (§5.1: "the state 'k' turns ago").
  std::int32_t staleness = 0;
  /// When true, the per-token aggregate vectors handed to
  /// kLocalAggregate+ policies are computed from the k-stale snapshot
  /// instead of the step-initial state — modelling a delayed aggregate
  /// multicast (§5.1 notes "the potential need to support a delay in
  /// the aggregate knowledge").
  bool stale_aggregates = false;
  /// Record the full schedule (needed for pruning/validation; costs
  /// memory proportional to bandwidth).
  bool record_schedule = true;
  /// Seed for the policy's internal randomness.
  std::uint64_t seed = 1;
  /// Optional §6 changing-network-conditions model (caller-owned; must
  /// outlive the run — the simulator stores only this raw pointer and
  /// calls it every step).  Rewrites per-arc effective capacities each
  /// step; a step in which the network leaves no sendable capacity is
  /// then a legitimate (idle) step rather than a policy stall.
  dynamics::DynamicsModel* dynamics = nullptr;
  /// Optional lossy-delivery fault model (caller-owned; must outlive
  /// the run, like `dynamics`).  Queried during the apply phase: tokens
  /// it reports lost consume arc capacity but never mutate possession
  /// (see ocd/faults/model.hpp for the full loss semantics).
  faults::FaultModel* faults = nullptr;
  /// Progress watchdog: terminate after this many consecutive steps
  /// without a single useful delivery while wants remain outstanding —
  /// distinguishing "the network ate everything" (and a policy that
  /// retries forever) from an infinite run.  0 (default) arms the
  /// watchdog with a 256-step window whenever a fault model is active;
  /// -1 disables it; any positive value arms it unconditionally.
  std::int64_t no_progress_window = 0;
  /// Optional completion override (§6 encoding): a vertex counts as
  /// satisfied when this predicate accepts its possession set, instead
  /// of the default w(v) ⊆ p(v).  Policies still see the instance's
  /// want sets; only run termination and completion_step change.  The
  /// view borrows the simulator's state and is only valid during the
  /// call.
  std::function<bool(VertexId, TokenSetView)> completion;
};

/// Why a run ended.  kSatisfied is the only successful outcome; the
/// others separate "the policy gave up" (kPolicyStalled: empty step,
/// no dynamics excuse) from "the policy kept trying but nothing useful
/// landed for a whole watchdog window" (kNoProgress — under heavy loss
/// the network, not the policy, is the culprit; RunStats::lost_per_step
/// over the final window tells which).
enum class Termination : std::uint8_t {
  kSatisfied,      ///< every want satisfied
  kPolicyStalled,  ///< empty non-idle step without a dynamics model
  kNoProgress,     ///< watchdog: no useful delivery for a full window
  kMaxSteps,       ///< step budget exhausted
};

const char* to_string(Termination t);

struct RunResult {
  bool success = false;
  std::int64_t steps = 0;
  std::int64_t bandwidth = 0;
  Termination termination = Termination::kSatisfied;
  core::Schedule schedule;  ///< Empty unless options.record_schedule.
  RunStats stats;
};

/// The simulator's reusable arena: everything a step touches that is
/// not per-run output lives here and is cleared in place each step /
/// resized (reusing capacity) each run.  Owned by a Simulator; separate
/// Simulators share nothing, so one-per-thread is safe.
struct SimScratch {
  util::TokenMatrix possession;  ///< live p_i(v), one row per vertex
  StepPlan plan;                 ///< send pool + arc index, rebound per step
  Aggregates aggregates;
  std::vector<std::int32_t> static_capacity;
  std::vector<std::int32_t> effective_capacity;
  std::vector<std::int32_t> arc_load;
  TokenSet fresh;  ///< delivery scratch: tokens new to the receiver
  TokenSet lost;   ///< fault scratch: tokens the channel ate
  std::vector<VertexId> touched;
  std::vector<char> touched_flag;
  std::vector<char> satisfied;
};

/// Runs policies on instances, reusing one SimScratch arena across runs
/// and steps.  Sequential runs on similarly sized instances settle into
/// a zero-allocation steady state.
class Simulator {
 public:
  RunResult run(const core::Instance& instance, Policy& policy,
                const SimOptions& options = {});

 private:
  SimScratch scratch_;
};

/// Convenience wrapper: one-shot run with a private arena.
RunResult run(const core::Instance& instance, Policy& policy,
              const SimOptions& options = {});

/// Validates planned sends against the start-of-step `possession` and
/// the per-arc `effective_capacity`, throwing ocd::Error on a capacity
/// or possession violation.  Capacity is checked on the aggregate load
/// per arc, so multiple sends sharing an arc cannot jointly exceed
/// c(u,v) even if each fits individually.  `arc_load` is caller-owned
/// scratch of size num_arcs that must be all-zero on entry; it is
/// restored to all-zero before returning or throwing.
void validate_sends(const core::Instance& instance,
                    std::span<const core::ArcSend> sends,
                    std::span<const std::int32_t> effective_capacity,
                    const util::TokenMatrix& possession,
                    std::span<std::int32_t> arc_load,
                    std::string_view policy_name, std::int64_t step);

}  // namespace ocd::sim
