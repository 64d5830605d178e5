// Determinism regression: every stochastic model (dynamics and faults)
// must produce bit-identical traces when run twice from the same seed,
// and genuinely different traces from different seeds.  Catches both
// hidden global state and accidentally shared RNG streams.  The final
// section replays whole runs under OCD_JOBS ∈ {1, 2, 8}: a run never
// fans out across workers, so schedules, step counts, bandwidth and
// loss accounting must agree for any worker budget.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/util/parallel.hpp"

namespace ocd::faults {
namespace {

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

// ---- dynamics: capacity traces -------------------------------------

using CapacityTrace = std::vector<std::vector<std::int32_t>>;

CapacityTrace capacity_trace(dynamics::DynamicsModel& model,
                             const core::Instance& inst, std::uint64_t seed,
                             std::int64_t steps) {
  model.reset(inst, seed);
  const Digraph& g = inst.graph();
  CapacityTrace trace;
  trace.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t step = 0; step < steps; ++step) {
    std::vector<std::int32_t> cap(static_cast<std::size_t>(g.num_arcs()));
    for (ArcId a = 0; a < g.num_arcs(); ++a) cap[a] = g.arc(a).capacity;
    model.apply(step, g, cap);
    trace.push_back(std::move(cap));
  }
  return trace;
}

struct DynamicsCase {
  const char* label;
  std::function<std::unique_ptr<dynamics::DynamicsModel>()> make;
};

std::vector<DynamicsCase> dynamics_cases() {
  return {
      {"jitter",
       [] { return std::make_unique<dynamics::CapacityJitter>(0.6, 0); }},
      {"link-churn",
       [] { return std::make_unique<dynamics::LinkChurn>(0.2, 3); }},
      {"node-churn",
       [] { return std::make_unique<dynamics::NodeChurn>(0.2, 3); }},
  };
}

TEST(Determinism, DynamicsCapacityTracesReplayFromSeed) {
  const auto inst = broadcast_instance(16, 4, 61);
  for (const auto& c : dynamics_cases()) {
    auto first = c.make();
    auto second = c.make();
    const auto a = capacity_trace(*first, inst, 77, 64);
    const auto b = capacity_trace(*second, inst, 77, 64);
    EXPECT_EQ(a, b) << c.label;
  }
}

TEST(Determinism, DynamicsCapacityTracesDivergeAcrossSeeds) {
  const auto inst = broadcast_instance(16, 4, 61);
  for (const auto& c : dynamics_cases()) {
    auto first = c.make();
    auto second = c.make();
    const auto a = capacity_trace(*first, inst, 77, 64);
    const auto b = capacity_trace(*second, inst, 78, 64);
    EXPECT_NE(a, b) << c.label;
  }
}

// ---- faults: loss traces -------------------------------------------

// Feeds every arc a full window of tokens each step and records what
// the model eats — a traffic pattern dense enough that two different
// RNG streams cannot plausibly agree for 64 steps.
std::vector<TokenSet> loss_trace(FaultModel& model, const core::Instance& inst,
                                 std::uint64_t seed, std::int64_t steps) {
  constexpr std::size_t kUniverse = 8;
  model.reset(inst, seed);
  const Digraph& g = inst.graph();
  TokenSet sent(kUniverse);
  for (TokenId t = 0; t < static_cast<TokenId>(kUniverse); ++t) sent.set(t);
  std::vector<TokenSet> trace;
  for (std::int64_t step = 0; step < steps; ++step) {
    model.begin_step(step, g);
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      TokenSet lost(kUniverse);
      model.lost(step, a, sent, lost);
      trace.push_back(std::move(lost));
    }
  }
  return trace;
}

struct FaultCase {
  const char* label;
  std::function<std::unique_ptr<FaultModel>()> make;
  bool seeded;  // FaultPlan ignores the seed: test replay only.
};

std::vector<FaultCase> fault_cases() {
  return {
      {"uniform", [] { return std::make_unique<UniformLoss>(0.4); }, true},
      {"gilbert-elliott",
       [] { return std::make_unique<GilbertElliott>(0.3, 0.4, 0.05, 0.9); },
       true},
      {"plan",
       [] {
         auto plan = std::make_unique<FaultPlan>();
         plan->drop(0, 0, 1).drop(3, 1, 0).drop(7, 0, 5);
         return plan;
       },
       false},
  };
}

TEST(Determinism, FaultLossTracesReplayFromSeed) {
  const auto inst = broadcast_instance(12, 4, 62);
  for (const auto& c : fault_cases()) {
    auto first = c.make();
    auto second = c.make();
    const auto a = loss_trace(*first, inst, 91, 64);
    const auto b = loss_trace(*second, inst, 91, 64);
    EXPECT_EQ(a, b) << c.label;
  }
}

TEST(Determinism, FaultLossTracesDivergeAcrossSeeds) {
  const auto inst = broadcast_instance(12, 4, 62);
  for (const auto& c : fault_cases()) {
    if (!c.seeded) continue;
    auto first = c.make();
    auto second = c.make();
    const auto a = loss_trace(*first, inst, 91, 64);
    const auto b = loss_trace(*second, inst, 92, 64);
    EXPECT_NE(a, b) << c.label;
  }
}

// ---- end to end: whole runs replay ---------------------------------

TEST(Determinism, FaultedRunsReplayBitIdentically) {
  const auto inst = broadcast_instance(18, 8, 63);
  for (const auto& c : fault_cases()) {
    auto run_once = [&] {
      auto model = c.make();
      auto policy = heuristics::make_policy("random");
      sim::SimOptions options;
      options.seed = 17;
      options.faults = model.get();
      options.max_steps = 50'000;
      return sim::run(inst, *policy, options);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.steps, b.steps) << c.label;
    EXPECT_EQ(a.bandwidth, b.bandwidth) << c.label;
    EXPECT_EQ(a.stats.lost_moves, b.stats.lost_moves) << c.label;
    EXPECT_EQ(a.stats.lost_per_step, b.stats.lost_per_step) << c.label;
    EXPECT_EQ(a.stats.moves_per_step, b.stats.moves_per_step) << c.label;
  }
}

// ---- worker-budget invariance: OCD_JOBS ∈ {1, 2, 8} ----------------

/// ArcSend has no operator==, so schedules are compared send by send.
void expect_schedules_identical(const core::Schedule& a,
                                const core::Schedule& b, const char* label) {
  ASSERT_EQ(a.length(), b.length()) << label;
  ASSERT_EQ(a.bandwidth(), b.bandwidth()) << label;
  for (std::size_t s = 0; s < a.steps().size(); ++s) {
    const core::Timestep sa_step = a.step(s);
    const core::SendRange sa = sa_step.sends();
    const core::Timestep sb_step = b.step(s);
    const core::SendRange sb = sb_step.sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

/// Hundreds of arcs and dozens of sends per step.  The replays below pin
/// that a run's result does not depend on the worker budget: OCD_JOBS
/// governs only sweeps and in-process shards, never one sim::run.
core::Instance parallel_scale_instance(std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(80, rng);
  return core::single_source_all_receivers(std::move(g), 64, 0);
}

TEST(Determinism, PlannerRunsReplayAcrossJobCounts) {
  const auto inst = parallel_scale_instance(65);
  for (const auto& policy_name : {"global", "local", "random"}) {
    auto run_with_jobs = [&](unsigned jobs) {
      util::set_parallel_jobs(jobs);
      auto policy = heuristics::make_policy(policy_name);
      sim::SimOptions options;
      options.seed = 29;
      options.max_steps = 50'000;
      const auto result = sim::run(inst, *policy, options);
      util::set_parallel_jobs(0);
      return result;
    };
    const auto serial = run_with_jobs(1);
    for (const unsigned jobs : {2u, 8u}) {
      const auto parallel = run_with_jobs(jobs);
      EXPECT_EQ(parallel.steps, serial.steps) << policy_name << "@" << jobs;
      EXPECT_EQ(parallel.bandwidth, serial.bandwidth)
          << policy_name << "@" << jobs;
      EXPECT_EQ(parallel.stats.useful_moves, serial.stats.useful_moves)
          << policy_name << "@" << jobs;
      EXPECT_EQ(parallel.stats.redundant_moves, serial.stats.redundant_moves)
          << policy_name << "@" << jobs;
      EXPECT_EQ(parallel.stats.moves_per_step, serial.stats.moves_per_step)
          << policy_name << "@" << jobs;
      EXPECT_EQ(parallel.stats.completion_step, serial.stats.completion_step)
          << policy_name << "@" << jobs;
      expect_schedules_identical(parallel.schedule, serial.schedule,
                                 policy_name);
    }
  }
}

TEST(Determinism, FaultedRunsReplayAcrossJobCounts) {
  const auto inst = parallel_scale_instance(66);
  for (const auto& c : fault_cases()) {
    auto run_with_jobs = [&](unsigned jobs) {
      util::set_parallel_jobs(jobs);
      auto model = c.make();
      auto policy = heuristics::make_policy("global");
      sim::SimOptions options;
      options.seed = 31;
      options.faults = model.get();
      options.max_steps = 50'000;
      const auto result = sim::run(inst, *policy, options);
      util::set_parallel_jobs(0);
      return result;
    };
    const auto serial = run_with_jobs(1);
    for (const unsigned jobs : {2u, 8u}) {
      const auto parallel = run_with_jobs(jobs);
      EXPECT_EQ(parallel.steps, serial.steps) << c.label << "@" << jobs;
      EXPECT_EQ(parallel.bandwidth, serial.bandwidth) << c.label << "@" << jobs;
      EXPECT_EQ(parallel.stats.lost_moves, serial.stats.lost_moves)
          << c.label << "@" << jobs;
      EXPECT_EQ(parallel.stats.lost_per_step, serial.stats.lost_per_step)
          << c.label << "@" << jobs;
      EXPECT_EQ(parallel.stats.moves_per_step, serial.stats.moves_per_step)
          << c.label << "@" << jobs;
      expect_schedules_identical(parallel.schedule, serial.schedule, c.label);
    }
  }
}

TEST(Determinism, LossyRunsDivergeAcrossFaultSeeds) {
  // Same policy seed, different *simulation* seeds: the fault model is
  // seeded off options.seed, so the loss traces must differ.
  const auto inst = broadcast_instance(18, 8, 64);
  auto run_with_seed = [&](std::uint64_t seed) {
    UniformLoss loss(0.4);
    auto policy = heuristics::make_policy("round-robin");
    sim::SimOptions options;
    options.seed = seed;
    options.faults = &loss;
    options.max_steps = 50'000;
    return sim::run(inst, *policy, options);
  };
  const auto a = run_with_seed(101);
  const auto b = run_with_seed(102);
  EXPECT_NE(a.stats.lost_per_step, b.stats.lost_per_step);
}

}  // namespace
}  // namespace ocd::faults
