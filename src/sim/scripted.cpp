#include "ocd/sim/scripted.hpp"

#include "ocd/graph/algorithms.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"

namespace ocd::sim {

ScriptedPolicy::ScriptedPolicy(core::Schedule schedule)
    : schedule_(std::move(schedule)) {}

void ScriptedPolicy::plan_step(const StepView& view, StepPlan& plan) {
  const auto step = static_cast<std::size_t>(view.step());
  if (step >= schedule_.steps().size()) {
    plan.mark_idle();  // script exhausted; nothing left to send
    return;
  }
  const core::Timestep scripted = schedule_.step(step);
  if (scripted.sends().empty()) plan.mark_idle();
  for (const core::ArcSend& send : scripted.sends())
    plan.send(send.arc, send.tokens);
}

TwoPhasePolicy::TwoPhasePolicy(std::string inner_policy, std::int32_t delay)
    : inner_policy_(std::move(inner_policy)), requested_delay_(delay) {}

void TwoPhasePolicy::reset(const core::Instance& inst, std::uint64_t seed) {
  delay_ = requested_delay_ >= 0 ? requested_delay_ : diameter(inst.graph());
  OCD_ASSERT_MSG(delay_ != kUnreachable,
                 "two-phase requires a strongly connected overlay");
  // Offline planning pass: simulate the inner policy against the
  // initial state and keep its recorded schedule as the script.
  auto planner = heuristics::make_policy(inner_policy_);
  SimOptions options;
  options.seed = seed;
  const auto offline = run(inst, *planner, options);
  OCD_ASSERT_MSG(offline.success, "inner planner failed offline");
  plan_ = offline.schedule;
}

void TwoPhasePolicy::plan_step(const StepView& view, StepPlan& plan) {
  const std::int64_t step = view.step();
  if (step < delay_) {
    plan.mark_idle();  // phase 1: knowledge floods, data links are idle
    return;
  }
  const auto index = static_cast<std::size_t>(step - delay_);
  if (index >= plan_.steps().size()) {
    plan.mark_idle();
    return;
  }
  const core::Timestep scripted = plan_.step(index);
  for (const core::ArcSend& send : scripted.sends())
    plan.send(send.arc, send.tokens);
  if (scripted.sends().empty()) plan.mark_idle();
}

}  // namespace ocd::sim
