#include "ocd/sim/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "ocd/dynamics/model.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/util/stopwatch.hpp"

namespace ocd::sim {

const char* to_string(Termination t) {
  switch (t) {
    case Termination::kSatisfied:
      return "satisfied";
    case Termination::kPolicyStalled:
      return "policy-stalled";
    case Termination::kNoProgress:
      return "no-progress";
    case Termination::kMaxSteps:
      return "max-steps";
  }
  return "unknown";
}

namespace {

/// Watchdog window when no_progress_window is 0 ("auto") and a fault
/// model is active.
constexpr std::int64_t kDefaultNoProgressWindow = 256;

/// Cap on the up-front reservation of the per-step stats vectors: long
/// enough that every realistic run records without reallocating (so
/// steady-state steps stay allocation-free), bounded so the default
/// max_steps of a million does not pin megabytes per run.
constexpr std::int64_t kStatsReserveCap = 65536;

void validate_options(const SimOptions& options) {
  if (options.max_steps < 0) {
    throw Error("SimOptions.max_steps must be >= 0, got " +
                std::to_string(options.max_steps));
  }
  if (options.staleness < 0) {
    throw Error("SimOptions.staleness must be >= 0, got " +
                std::to_string(options.staleness));
  }
  if (options.no_progress_window < -1) {
    throw Error(
        "SimOptions.no_progress_window must be -1 (off), 0 (auto) or "
        "positive, got " +
        std::to_string(options.no_progress_window));
  }
}

/// Per-vertex satisfaction: the instance's want-subset rule, or the
/// caller's completion override (coding thresholds etc).
bool vertex_satisfied(const core::Instance& inst, const SimOptions& options,
                      VertexId v, TokenSetView possession) {
  if (options.completion) return options.completion(v, possession);
  return inst.want(v).is_subset_of(possession);
}

}  // namespace

void validate_sends(const core::Instance& inst,
                    std::span<const core::ArcSend> sends,
                    std::span<const std::int32_t> effective_capacity,
                    const util::TokenMatrix& possession,
                    std::span<std::int32_t> arc_load,
                    std::string_view policy_name, std::int64_t step) {
  OCD_EXPECTS(arc_load.size() == effective_capacity.size());
  const auto fail = [&](const Arc& arc, const char* what) {
    for (const core::ArcSend& send : sends)
      arc_load[static_cast<std::size_t>(send.arc)] = 0;
    std::ostringstream msg;
    msg << "policy '" << policy_name << "' " << what << " on arc (" << arc.from
        << "," << arc.to << ") at step " << step;
    throw Error(msg.str());
  };
  for (const core::ArcSend& send : sends) {
    const Arc& arc = inst.graph().arc(send.arc);
    const auto index = static_cast<std::size_t>(send.arc);
    arc_load[index] += static_cast<std::int32_t>(send.tokens.count());
    if (arc_load[index] > effective_capacity[index])
      fail(arc, "exceeded capacity");
    if (!send.tokens.is_subset_of(
            possession.row(static_cast<std::size_t>(arc.from))))
      fail(arc, "sent unpossessed tokens");
  }
  for (const core::ArcSend& send : sends)
    arc_load[static_cast<std::size_t>(send.arc)] = 0;
}

RunResult Simulator::run(const core::Instance& inst, Policy& policy,
                         const SimOptions& options) {
  validate_options(options);
  inst.validate();
  Stopwatch timer;
  RunResult result;
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto m = static_cast<std::size_t>(inst.num_tokens());

  scratch_.possession.reset(n, m);
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    scratch_.possession.assign_row(static_cast<std::size_t>(v), inst.have(v));
  util::TokenMatrix& possession = scratch_.possession;

  result.stats.sent_by_vertex.assign(n, 0);
  result.stats.completion_step.assign(n, -1);
  const auto reserve_steps = static_cast<std::size_t>(
      std::min<std::int64_t>(options.max_steps, kStatsReserveCap));
  result.stats.moves_per_step.reserve(reserve_steps);
  result.stats.lost_per_step.reserve(reserve_steps);

  // Satisfaction is tracked incrementally: one boolean per vertex plus
  // an unsatisfied counter, updated only for vertices whose possession
  // changed this step (the predicate is a pure function of possession).
  scratch_.satisfied.assign(n, 0);
  std::vector<char>& satisfied = scratch_.satisfied;
  std::int64_t unsatisfied = 0;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (vertex_satisfied(inst, options, v, possession.row(i))) {
      satisfied[i] = 1;
      result.stats.completion_step[i] = 0;
    } else {
      ++unsatisfied;
    }
  }

  policy.reset(inst, options.seed);
  if (options.dynamics != nullptr) options.dynamics->reset(inst, options.seed);
  const bool faulted = options.faults != nullptr;
  if (faulted) options.faults->reset(inst, options.seed);

  // Watchdog: 0 = auto (armed with the default window iff faults are
  // active), -1 = off, positive = armed with that window.
  std::int64_t watchdog_window = options.no_progress_window;
  if (watchdog_window == 0)
    watchdog_window = faulted ? kDefaultNoProgressWindow : -1;

  SnapshotBuffer snapshots(options.staleness);
  if (options.staleness == 0 && !options.stale_aggregates)
    snapshots.alias_live(possession);

  // Aggregates are materialized only when the policy may observe them.
  // The live variant is maintained incrementally on delivery; the
  // stale_aggregates ablation recomputes from the k-stale snapshot.
  const bool needs_aggregates =
      static_cast<int>(policy.knowledge_class()) >=
      static_cast<int>(KnowledgeClass::kLocalAggregate);
  Aggregates& aggregates = scratch_.aggregates;
  if (needs_aggregates && !options.stale_aggregates)
    compute_aggregates_into(inst, possession, aggregates);

  const auto num_arcs = static_cast<std::size_t>(inst.graph().num_arcs());
  scratch_.static_capacity.resize(num_arcs);
  for (ArcId a = 0; a < inst.graph().num_arcs(); ++a)
    scratch_.static_capacity[static_cast<std::size_t>(a)] =
        inst.graph().arc(a).capacity;
  scratch_.effective_capacity = scratch_.static_capacity;
  std::vector<std::int32_t>& effective_capacity = scratch_.effective_capacity;

  // Per-step scratch, cleared between steps instead of reallocated.
  scratch_.arc_load.assign(num_arcs, 0);
  scratch_.fresh = TokenSet(m);
  scratch_.lost = TokenSet(m);
  scratch_.touched.clear();
  scratch_.touched.reserve(n);
  scratch_.touched_flag.assign(n, 0);
  TokenSet& fresh = scratch_.fresh;
  TokenSet& lost = scratch_.lost;

  std::int64_t step = 0;
  std::int64_t no_progress = 0;
  Termination termination = Termination::kMaxSteps;
  while (step < options.max_steps && unsatisfied > 0) {
    if (options.dynamics != nullptr) {
      effective_capacity = scratch_.static_capacity;
      options.dynamics->observe(step, inst, possession);
      options.dynamics->apply(step, inst.graph(), effective_capacity);
      for (std::int32_t c : effective_capacity) OCD_ASSERT(c >= 0);
    }
    // Channel state advances every step, traffic or not, so the loss
    // trace is a function of (seed, step) alone.
    if (faulted) options.faults->begin_step(step, inst.graph());

    snapshots.push(possession);
    if (needs_aggregates && options.stale_aggregates)
      compute_aggregates_into(inst, snapshots.stale_view(), aggregates);
    const StepView view(inst, possession, snapshots.stale_view(),
                        needs_aggregates ? &aggregates : nullptr,
                        policy.knowledge_class(), step, effective_capacity);
    StepPlan& plan = scratch_.plan;
    plan.rebind(inst.graph(), effective_capacity);
    policy.plan_step(view, plan);

    if (plan.empty() && !plan.idle_marked() && options.dynamics == nullptr) {
      // Stalled policy: wants outstanding but nothing sent.  Under a
      // dynamics model an empty step can be the network's fault, so
      // the run continues (bounded by max_steps and the watchdog).
      termination = Termination::kPolicyStalled;
      break;
    }

    // Validate every send against the start-of-step possession and the
    // aggregate per-arc load, then apply in place: only recipients of
    // fresh tokens are mutated.  Since possession only grows within a
    // step, `send.tokens - possession[to]` at apply time equals the
    // tokens not yet held at step start nor granted earlier this step,
    // so the useful/redundant split matches simultaneous delivery.
    validate_sends(inst, plan.sends(), effective_capacity, possession,
                   scratch_.arc_load, policy.name(), step);

    std::int64_t step_moves = 0;
    std::int64_t step_lost = 0;
    std::int64_t step_useful = 0;
    for (core::ArcSend& send : plan.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      const auto count = static_cast<std::int64_t>(send.tokens.count());
      step_moves += count;
      result.stats.sent_by_vertex[static_cast<std::size_t>(arc.from)] += count;
      if (faulted) {
        lost.clear();
        options.faults->lost(step, send.arc, send.tokens, lost);
        lost &= send.tokens;  // a model may only lose what was sent
        const auto lost_count = static_cast<std::int64_t>(lost.count());
        if (lost_count > 0) {
          step_lost += lost_count;
          // The recorded schedule keeps deliveries only, so it stays a
          // valid loss-free schedule reaching the same final state.
          send.tokens -= lost;
        }
      }
      const auto delivered = static_cast<std::int64_t>(send.tokens.count());
      const auto to = static_cast<std::size_t>(arc.to);
      // Fused kernel: fresh = send - possession, possession |= send,
      // in one pass (a no-op on possession when nothing is fresh).
      const auto fresh_count =
          static_cast<std::int64_t>(MutableTokenSetView::apply_fresh_union(
              possession.row(to), send.tokens, fresh));
      result.stats.useful_moves += fresh_count;
      result.stats.redundant_moves += delivered - fresh_count;
      step_useful += fresh_count;
      if (fresh_count == 0) continue;
      if (needs_aggregates && !options.stale_aggregates)
        aggregates.apply_delivery(fresh, inst.want(arc.to));
      if (!scratch_.touched_flag[to]) {
        scratch_.touched_flag[to] = 1;
        scratch_.touched.push_back(arc.to);
      }
    }
    result.stats.moves_per_step.push_back(step_moves);
    result.stats.lost_per_step.push_back(step_lost);
    result.stats.lost_moves += step_lost;
    if (options.record_schedule) {
      // Copy the surviving sends out of the plan pool; loss trimming may
      // have emptied some, which are dropped (the former compact()).
      core::Timestep timestep;
      for (const core::ArcSend& send : plan.sends()) {
        if (send.tokens.empty()) continue;
        timestep.sends().push_back(send);
      }
      result.schedule.append(std::move(timestep));
    }

    ++step;
    for (VertexId v : scratch_.touched) {
      const auto i = static_cast<std::size_t>(v);
      scratch_.touched_flag[i] = 0;
      const bool now = vertex_satisfied(inst, options, v, possession.row(i));
      if (now == static_cast<bool>(satisfied[i])) continue;
      satisfied[i] = now ? 1 : 0;
      if (now) {
        --unsatisfied;
        if (result.stats.completion_step[i] < 0)
          result.stats.completion_step[i] = step;
      } else {
        ++unsatisfied;  // a non-monotone completion override regressed
      }
    }
    scratch_.touched.clear();

    if (step_useful > 0) {
      no_progress = 0;
    } else if (++no_progress >= watchdog_window && watchdog_window > 0 &&
               unsatisfied > 0) {
      termination = Termination::kNoProgress;
      break;
    }
  }

  if (unsatisfied == 0) termination = Termination::kSatisfied;
  result.success = unsatisfied == 0;
  result.steps = step;
  result.termination = termination;
  policy.finish_run(result.stats);
  result.bandwidth = result.stats.total_moves();
  result.stats.wall_seconds = timer.seconds();
  OCD_ENSURES(result.stats.consistent_with_steps(result.steps));
  return result;
}

RunResult run(const core::Instance& inst, Policy& policy,
              const SimOptions& options) {
  Simulator simulator;
  return simulator.run(inst, policy, options);
}

}  // namespace ocd::sim
