#include "ocd/sim/simulator.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/round_robin.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::sim {
namespace {

core::Instance line_instance() {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);
  return inst;
}

/// Sends nothing: must be reported as a stall, not loop forever.
class SilentPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "silent"; }
  [[nodiscard]] KnowledgeClass knowledge_class() const override {
    return KnowledgeClass::kLocalOnly;
  }
};

/// Deliberately violates capacity.
class OverCapacityPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "overcap"; }
  [[nodiscard]] KnowledgeClass knowledge_class() const override {
    return KnowledgeClass::kLocalOnly;
  }
  void plan_vertex(VertexId self, const StepView& view,
                   StepPlan& plan) override {
    if (self != 0) return;
    for (ArcId a : view.graph().out_arcs(self)) {
      TokenSet two(static_cast<std::size_t>(view.num_tokens()));
      two.set(0);
      two.set(1);
      plan.send(a, two);
    }
  }
};

/// Sends a token it does not possess.
class GhostSenderPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "ghost"; }
  [[nodiscard]] KnowledgeClass knowledge_class() const override {
    return KnowledgeClass::kLocalOnly;
  }
  void plan_vertex(VertexId self, const StepView& view,
                   StepPlan& plan) override {
    if (self != 1) return;
    for (ArcId a : view.graph().out_arcs(self))
      plan.send(a, 0, static_cast<std::size_t>(view.num_tokens()));
  }
};

/// Exceeds its declared knowledge class.
class PeekingPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "peeking"; }
  [[nodiscard]] KnowledgeClass knowledge_class() const override {
    return KnowledgeClass::kLocalOnly;
  }
  void plan_vertex(VertexId self, const StepView& view,
                   StepPlan& plan) override {
    (void)view.global_possession();  // not allowed for kLocalOnly
    (void)self;
    (void)plan;
  }
};

TEST(Simulator, RoundRobinCompletesLine) {
  const core::Instance inst = line_instance();
  heuristics::RoundRobinPolicy policy;
  const auto result = run(inst, policy);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.steps, 2);
  EXPECT_TRUE(core::is_successful(inst, result.schedule));
}

TEST(Simulator, StalledPolicyReportsFailure) {
  const core::Instance inst = line_instance();
  SilentPolicy policy;
  const auto result = run(inst, policy);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.steps, 0);
}

TEST(Simulator, TrivialInstanceFinishesInZeroSteps) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  SilentPolicy policy;
  const auto result = run(inst, policy);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.steps, 0);
  EXPECT_EQ(result.bandwidth, 0);
}

TEST(Simulator, CapacityViolationThrows) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 0);
  OverCapacityPolicy policy;
  // The diagnostic must name the offending policy and arc.
  EXPECT_THROW(
      try { run(inst, policy); } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("(0,1)"), std::string::npos) << what;
        EXPECT_NE(what.find("capacity"), std::string::npos) << what;
        EXPECT_NE(what.find(policy.name()), std::string::npos) << what;
        throw;
      },
      Error);
}

TEST(Simulator, PossessionViolationThrows) {
  const core::Instance inst = line_instance();
  GhostSenderPolicy policy;
  EXPECT_THROW(
      try { run(inst, policy); } catch (const Error& e) {
        const std::string what = e.what();
        // GhostSenderPolicy sends from vertex 1, which lacks the token.
        EXPECT_NE(what.find("(1,2)"), std::string::npos) << what;
        EXPECT_NE(what.find(policy.name()), std::string::npos) << what;
        throw;
      },
      Error);
}

TEST(Simulator, KnowledgeClassEnforced) {
  const core::Instance inst = line_instance();
  PeekingPolicy policy;
  EXPECT_THROW(run(inst, policy), ContractViolation);
}

TEST(Simulator, MaxStepsBoundsRun) {
  Rng rng(2);
  Digraph g = topology::random_overlay(20, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 50, 0);
  heuristics::RoundRobinPolicy policy;
  SimOptions options;
  options.max_steps = 2;
  const auto result = run(inst, policy, options);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.steps, 2);
}

TEST(Simulator, RecordedScheduleValidatesAndMatchesCounters) {
  Rng rng(3);
  Digraph g = topology::random_overlay(15, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 8, 0);
  heuristics::RoundRobinPolicy policy;
  const auto result = run(inst, policy);
  ASSERT_TRUE(result.success);
  const auto validation = core::validate(inst, result.schedule);
  EXPECT_TRUE(validation.valid);
  EXPECT_TRUE(validation.successful);
  EXPECT_EQ(result.schedule.bandwidth(), result.bandwidth);
  EXPECT_EQ(result.schedule.length(), result.steps);
}

TEST(Simulator, ScheduleRecordingCanBeDisabled) {
  const core::Instance inst = line_instance();
  heuristics::RoundRobinPolicy policy;
  SimOptions options;
  options.record_schedule = false;
  const auto result = run(inst, policy, options);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_GT(result.bandwidth, 0);
}

TEST(Simulator, CompletionStepsAreMonotoneSensible) {
  const core::Instance inst = line_instance();
  heuristics::RoundRobinPolicy policy;
  const auto result = run(inst, policy);
  ASSERT_TRUE(result.success);
  // Vertices 0 and 1 have empty wants -> completed at step 0; vertex 2
  // completes when the token arrives (step 2).
  EXPECT_EQ(result.stats.completion_step[0], 0);
  EXPECT_EQ(result.stats.completion_step[1], 0);
  EXPECT_EQ(result.stats.completion_step[2], 2);
}

TEST(Simulator, CapacityIsAggregatedPerArc) {
  // Regression: two sends on the same arc that fit individually but
  // jointly exceed c(u,v) must be rejected.  Timestep::compact() does
  // not merge same-arc entries, so the check cannot rely on one
  // ArcSend per arc.
  Digraph g(2);
  g.add_arc(0, 1, 2);
  core::Instance inst(std::move(g), 4);
  for (TokenId t = 0; t < 4; ++t) inst.add_have(0, t);
  inst.add_want(1, 0);

  util::TokenMatrix possession;
  possession.reset(2, 4);
  possession.assign_row(0, inst.have(0));
  possession.assign_row(1, inst.have(1));
  std::vector<std::int32_t> capacity{2};
  std::vector<std::int32_t> arc_load{0};

  core::Timestep split;
  split.append(0, TokenSet::of(4, {0, 1}));
  split.append(0, TokenSet::of(4, {2, 3}));
  EXPECT_THROW(validate_sends(inst, split.sends(), capacity, possession,
                              arc_load, "split", 0),
               Error);
  // The scratch buffer is restored to zero even on the throwing path.
  EXPECT_EQ(arc_load[0], 0);

  core::Timestep fits;
  fits.append(0, TokenSet::of(4, {0}));
  fits.append(0, TokenSet::of(4, {1}));
  EXPECT_NO_THROW(validate_sends(inst, fits.sends(), capacity, possession,
                                 arc_load, "split", 0));
  EXPECT_EQ(arc_load[0], 0);

  core::Timestep ghost;
  ghost.append(0, TokenSet::of(4, {0}));
  util::TokenMatrix empty_handed;
  empty_handed.reset(2, 4);
  EXPECT_THROW(validate_sends(inst, ghost.sends(), capacity, empty_handed,
                              arc_load, "ghost", 0),
               Error);
  EXPECT_EQ(arc_load[0], 0);
}

TEST(Simulator, MovesPerStepMatchesStepsOnEveryExitPath) {
  // Success exit.
  {
    const core::Instance inst = line_instance();
    heuristics::RoundRobinPolicy policy;
    const auto result = run(inst, policy);
    EXPECT_TRUE(result.success);
    EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
    EXPECT_EQ(result.stats.moves_per_step.size(),
              static_cast<std::size_t>(result.steps));
  }
  // Stalled-policy exit.
  {
    const core::Instance inst = line_instance();
    SilentPolicy policy;
    const auto result = run(inst, policy);
    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
    EXPECT_EQ(result.stats.moves_per_step.size(),
              static_cast<std::size_t>(result.steps));
  }
  // Stall after progress: deliver for two steps, then go silent
  // (without marking idle), so the run aborts mid-flight.
  {
    class StallAfterTwo final : public Policy {
     public:
      [[nodiscard]] std::string_view name() const override {
        return "stall-after-two";
      }
      [[nodiscard]] KnowledgeClass knowledge_class() const override {
        return KnowledgeClass::kLocalOnly;
      }
      void plan_step(const StepView& view, StepPlan& plan) override {
        if (view.step() == 0) plan.send(0, 0, 2);
        if (view.step() == 1) plan.send(1, 0, 2);
      }
    };
    Digraph g(3);
    g.add_arc(0, 1, 1);
    g.add_arc(1, 2, 1);
    core::Instance inst(std::move(g), 2);
    inst.add_have(0, 0);
    inst.add_have(0, 1);
    inst.add_want(2, 0);
    inst.add_want(2, 1);
    StallAfterTwo policy;
    SimOptions options;
    options.max_steps = 10;
    const auto result = run(inst, policy, options);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.steps, 2);
    EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
    EXPECT_EQ(result.stats.moves_per_step.size(), 2u);
  }
  // max_steps exhaustion.
  {
    Rng rng(6);
    Digraph g = topology::random_overlay(20, rng);
    core::Instance inst =
        core::single_source_all_receivers(std::move(g), 50, 0);
    heuristics::RoundRobinPolicy policy;
    SimOptions options;
    options.max_steps = 2;
    const auto result = run(inst, policy, options);
    EXPECT_FALSE(result.success);
    EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
    EXPECT_EQ(result.stats.moves_per_step.size(), 2u);
  }
  // Zero-step exit (trivially satisfied instance).
  {
    Digraph g(2);
    g.add_arc(0, 1, 1);
    core::Instance inst(std::move(g), 1);
    inst.add_have(0, 0);
    SilentPolicy policy;
    const auto result = run(inst, policy);
    EXPECT_TRUE(result.success);
    EXPECT_TRUE(result.stats.consistent_with_steps(result.steps));
    EXPECT_TRUE(result.stats.moves_per_step.empty());
  }
}

TEST(Simulator, UsefulAndRedundantMovesSumToBandwidth) {
  Rng rng(4);
  Digraph g = topology::random_overlay(12, rng);
  core::Instance inst = core::single_source_all_receivers(std::move(g), 6, 0);
  heuristics::RoundRobinPolicy policy;
  const auto result = run(inst, policy);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.stats.useful_moves + result.stats.redundant_moves,
            result.bandwidth);
  // Round robin on a dense graph re-sends: expect some redundancy.
  EXPECT_GT(result.stats.redundant_moves, 0);
  // Useful moves = total possession growth <= n * m.
  EXPECT_LE(result.stats.useful_moves,
            static_cast<std::int64_t>(inst.num_vertices()) * inst.num_tokens());
}

}  // namespace
}  // namespace ocd::sim
