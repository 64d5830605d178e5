// Fault-injection semantics: losses consume capacity but never mutate
// possession, the loss trace is accounted per step, zero-rate models
// are bit-identical to no-faults runs, and scripted FaultPlans
// reproduce exact drops.
#include "ocd/faults/model.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::faults {
namespace {

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

sim::RunResult run_with(const core::Instance& inst,
                        const std::string& policy_name, FaultModel* faults,
                        std::uint64_t seed = 3) {
  auto policy = heuristics::make_policy(policy_name);
  sim::SimOptions options;
  options.seed = seed;
  options.faults = faults;
  options.max_steps = 50'000;
  return sim::run(inst, *policy, options);
}

void expect_identical_results(const sim::RunResult& a,
                              const sim::RunResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_EQ(a.stats.useful_moves, b.stats.useful_moves);
  EXPECT_EQ(a.stats.redundant_moves, b.stats.redundant_moves);
  EXPECT_EQ(a.stats.lost_moves, b.stats.lost_moves);
  EXPECT_EQ(a.stats.moves_per_step, b.stats.moves_per_step);
  EXPECT_EQ(a.stats.lost_per_step, b.stats.lost_per_step);
  EXPECT_EQ(a.stats.completion_step, b.stats.completion_step);
  EXPECT_EQ(a.stats.sent_by_vertex, b.stats.sent_by_vertex);
  ASSERT_EQ(a.schedule.length(), b.schedule.length());
  for (std::size_t i = 0; i < a.schedule.steps().size(); ++i) {
    const core::Timestep sa_step = a.schedule.step(i);
    const core::SendRange sa = sa_step.sends();
    const core::Timestep sb_step = b.schedule.step(i);
    const core::SendRange sb = sb_step.sends();
    ASSERT_EQ(sa.size(), sb.size()) << "step " << i;
    for (std::size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j].arc, sb[j].arc) << "step " << i;
      EXPECT_EQ(sa[j].tokens, sb[j].tokens) << "step " << i;
    }
  }
}

TEST(UniformLoss, RejectsBadRate) {
  EXPECT_THROW(UniformLoss(-0.1), ContractViolation);
  EXPECT_THROW(UniformLoss(1.1), ContractViolation);
}

TEST(UniformLoss, ZeroRateIsBitIdenticalToNoFaults) {
  const auto inst = broadcast_instance(16, 8, 11);
  for (const char* policy : {"round-robin", "random", "local"}) {
    UniformLoss none(0.0);
    const auto faulted = run_with(inst, policy, &none);
    const auto clean = run_with(inst, policy, nullptr);
    expect_identical_results(faulted, clean);
    EXPECT_EQ(faulted.stats.lost_moves, 0);
  }
}

TEST(UniformLoss, FullRateLosesEverySend) {
  UniformLoss all(1.0);
  const auto inst = broadcast_instance(8, 4, 2);
  all.reset(inst, 1);
  TokenSet sent = TokenSet::of(4, {0, 2});
  TokenSet lost(4);
  all.lost(0, 0, sent, lost);
  EXPECT_EQ(lost, sent);
}

TEST(UniformLoss, LossyRunStillCompletesAndAccountsEveryMove) {
  const auto inst = broadcast_instance(18, 10, 5);
  UniformLoss loss(0.3);
  const auto result = run_with(inst, "random", &loss);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.termination, sim::Termination::kSatisfied);
  EXPECT_GT(result.stats.lost_moves, 0);
  EXPECT_GE(result.stats.wasted_bandwidth(), result.stats.lost_moves);
  EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
  // The recorded schedule holds deliveries only: replaying it without
  // faults must be valid and reach completion.
  const auto validation = core::validate(inst, result.schedule);
  EXPECT_TRUE(validation.valid);
  EXPECT_TRUE(validation.successful);
  // It is also strictly smaller than the wire traffic.
  EXPECT_EQ(result.schedule.bandwidth(),
            result.bandwidth - result.stats.lost_moves);
}

TEST(UniformLoss, LossSlowsCompletionDown) {
  const auto inst = broadcast_instance(20, 12, 7);
  UniformLoss heavy(0.5);
  const auto lossy = run_with(inst, "local", &heavy);
  const auto clean = run_with(inst, "local", nullptr);
  ASSERT_TRUE(lossy.success);
  ASSERT_TRUE(clean.success);
  EXPECT_GT(lossy.steps, clean.steps);
}

TEST(GilbertElliott, RejectsBadParameters) {
  EXPECT_THROW(GilbertElliott(-0.1, 0.5), ContractViolation);
  EXPECT_THROW(GilbertElliott(0.1, 1.5), ContractViolation);
  EXPECT_THROW(GilbertElliott(0.1, 0.5, -1.0, 1.0), ContractViolation);
  EXPECT_THROW(GilbertElliott(0.1, 0.5, 0.0, 2.0), ContractViolation);
}

TEST(GilbertElliott, AllGoodChannelNeverLoses) {
  const auto inst = broadcast_instance(10, 6, 3);
  GilbertElliott ge(0.0, 1.0, 0.0, 1.0);  // never leaves the good state
  const auto result = run_with(inst, "random", &ge);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.lost_moves, 0);
}

TEST(GilbertElliott, BadStateLosesAtBadRate) {
  const auto inst = broadcast_instance(6, 4, 9);
  GilbertElliott ge(1.0, 0.0, 0.0, 1.0);  // all arcs bad from step 0 on
  ge.reset(inst, 4);
  ge.begin_step(0, inst.graph());
  for (ArcId a = 0; a < inst.graph().num_arcs(); ++a) EXPECT_TRUE(ge.bad(a));
  TokenSet sent = TokenSet::of(4, {1, 3});
  TokenSet lost(4);
  ge.lost(0, 0, sent, lost);
  EXPECT_EQ(lost, sent);
}

TEST(GilbertElliott, BurstyRunStillCompletes) {
  const auto inst = broadcast_instance(16, 8, 13);
  GilbertElliott ge(0.2, 0.5, 0.02, 0.9);
  const auto result = run_with(inst, "local", &ge);
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.stats.lost_moves, 0);
  EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
}

TEST(FaultPlan, DropsExactlyTheScriptedEvents) {
  // Line 0 -> 1 -> 2, one token.  Drop the step-0 transfer on arc 0:
  // round-robin retries at step 1, so delivery lands one step late and
  // completion shifts from step 2 to step 3.
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);

  FaultPlan plan;
  plan.drop(0, 0, 0);
  EXPECT_EQ(plan.size(), 1u);

  auto policy = heuristics::make_policy("round-robin");
  sim::SimOptions options;
  options.faults = &plan;
  const auto result = sim::run(inst, *policy, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.lost_moves, 1);
  EXPECT_EQ(result.stats.lost_per_step[0], 1);
  EXPECT_EQ(result.stats.completion_step[2], 3);
}

TEST(FaultPlan, ScriptedDropReproducesBitIdentically) {
  const auto inst = broadcast_instance(14, 8, 21);
  const auto scripted = [&] {
    FaultPlan plan;
    // Drop a few early transfers on the first arcs; events that never
    // occur (huge step) are silently inert.
    plan.drop(0, 0, 0).drop(1, 1, 2).drop(2, 0, 1).drop(900, 3, 0);
    return plan;
  };
  FaultPlan first = scripted();
  FaultPlan second = scripted();
  const auto a = run_with(inst, "random", &first);
  const auto b = run_with(inst, "random", &second);
  expect_identical_results(a, b);
}

TEST(FaultPlan, EmptyPlanIsBitIdenticalToNoFaults) {
  const auto inst = broadcast_instance(12, 6, 23);
  FaultPlan empty;
  const auto faulted = run_with(inst, "round-robin", &empty);
  const auto clean = run_with(inst, "round-robin", nullptr);
  expect_identical_results(faulted, clean);
}

TEST(Faults, LossNeverMutatesPossessionInvariant) {
  // Under 100% loss nothing may ever be delivered: the watchdog fires,
  // no vertex completes, and the schedule (deliveries only) is empty.
  const auto inst = broadcast_instance(10, 5, 27);
  UniformLoss all(1.0);
  auto policy = heuristics::make_policy("random");
  sim::SimOptions options;
  options.faults = &all;
  options.no_progress_window = 20;
  const auto result = sim::run(inst, *policy, options);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.termination, sim::Termination::kNoProgress);
  EXPECT_EQ(result.stats.useful_moves, 0);
  EXPECT_EQ(result.stats.redundant_moves, 0);
  EXPECT_EQ(result.bandwidth, result.stats.lost_moves);
  EXPECT_EQ(result.schedule.bandwidth(), 0);
  for (std::size_t v = 1; v < result.stats.completion_step.size(); ++v) {
    if (!inst.want(static_cast<VertexId>(v)).empty()) {
      EXPECT_EQ(result.stats.completion_step[v], -1);
    }
  }
}

}  // namespace
}  // namespace ocd::faults
