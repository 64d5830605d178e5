// Differential test: the optimized hot loop in sim::run against a
// verbatim port of the pre-optimization ("seed") simulator.  The
// optimized loop — validate-then-apply in-place delivery, incremental
// satisfaction and aggregates, snapshot aliasing — must produce a
// bit-identical RunResult on every policy/instance/option combination:
// same success flag, steps, bandwidth, useful/redundant split,
// per-step moves, per-vertex completion steps and upload counts, and
// the same recorded schedule.
#include <gtest/gtest.h>

#include <sstream>

#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/scripted.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::sim {
namespace {

bool ref_vertex_satisfied(const core::Instance& inst,
                          const SimOptions& options, VertexId v,
                          const TokenSet& possession) {
  if (options.completion) return options.completion(v, possession);
  return inst.want(v).is_subset_of(possession);
}

bool ref_all_satisfied(const core::Instance& inst, const SimOptions& options,
                       const std::vector<TokenSet>& possession) {
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    if (!ref_vertex_satisfied(inst, options, v,
                              possession[static_cast<std::size_t>(v)]))
      return false;
  }
  return true;
}

/// The seed implementation, kept verbatim (modulo the StepView pointer
/// signature): full-state recomputation and deep copies every step.
RunResult reference_run(const core::Instance& inst, Policy& policy,
                        const SimOptions& options) {
  inst.validate();
  RunResult result;
  const auto n = static_cast<std::size_t>(inst.num_vertices());

  std::vector<TokenSet> possession(n);
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession[static_cast<std::size_t>(v)] = inst.have(v);

  result.stats.sent_by_vertex.assign(n, 0);
  result.stats.completion_step.assign(n, -1);
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    if (ref_vertex_satisfied(inst, options, v,
                             possession[static_cast<std::size_t>(v)]))
      result.stats.completion_step[static_cast<std::size_t>(v)] = 0;
  }

  // The view layer consumes TokenMatrix rows; the reference mirrors its
  // per-vertex sets into one with a full deep copy every step (the seed
  // simulator's copying behavior, expressed against the new API).
  util::TokenMatrix matrix;
  matrix.reset(n, static_cast<std::size_t>(inst.num_tokens()));
  const auto mirror = [&] {
    for (VertexId v = 0; v < inst.num_vertices(); ++v)
      matrix.assign_row(static_cast<std::size_t>(v),
                        possession[static_cast<std::size_t>(v)]);
  };

  policy.reset(inst, options.seed);
  if (options.dynamics != nullptr) options.dynamics->reset(inst, options.seed);
  SnapshotBuffer snapshots(options.staleness);

  const auto num_arcs = static_cast<std::size_t>(inst.graph().num_arcs());
  std::vector<std::int32_t> static_capacity(num_arcs);
  for (ArcId a = 0; a < inst.graph().num_arcs(); ++a)
    static_capacity[static_cast<std::size_t>(a)] = inst.graph().arc(a).capacity;
  std::vector<std::int32_t> effective_capacity = static_capacity;

  std::int64_t step = 0;
  while (step < options.max_steps) {
    if (ref_all_satisfied(inst, options, possession)) break;

    mirror();
    if (options.dynamics != nullptr) {
      effective_capacity = static_capacity;
      options.dynamics->observe(step, inst, matrix);
      options.dynamics->apply(step, inst.graph(), effective_capacity);
    }

    snapshots.push(matrix);
    const Aggregates aggregates = compute_aggregates(
        inst, options.stale_aggregates ? snapshots.stale_view() : matrix);
    const StepView view(inst, matrix, snapshots.stale_view(), &aggregates,
                        policy.knowledge_class(), step, effective_capacity);
    StepPlan plan(inst.graph(), effective_capacity);
    policy.plan_step(view, plan);
    const bool intentional_idle = plan.idle_marked();
    core::Timestep timestep = plan.take();
    timestep.compact();

    if (timestep.empty() && !intentional_idle && options.dynamics == nullptr) {
      result.success = false;
      result.steps = step;
      result.bandwidth = result.stats.total_moves();
      return result;
    }

    std::int64_t step_moves = 0;
    std::vector<TokenSet> next = possession;
    std::vector<TokenSet> granted(
        n, TokenSet(static_cast<std::size_t>(inst.num_tokens())));
    for (const core::ArcSend& send : timestep.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      const auto count = static_cast<std::int64_t>(send.tokens.count());
      step_moves += count;
      result.stats.sent_by_vertex[static_cast<std::size_t>(arc.from)] += count;
      const auto to = static_cast<std::size_t>(arc.to);
      TokenSet fresh = send.tokens;
      fresh -= possession[to];
      fresh -= granted[to];
      granted[to] |= fresh;
      result.stats.useful_moves += static_cast<std::int64_t>(fresh.count());
      result.stats.redundant_moves +=
          count - static_cast<std::int64_t>(fresh.count());
      next[to] |= send.tokens;
    }
    possession = std::move(next);
    result.stats.moves_per_step.push_back(step_moves);
    if (options.record_schedule) result.schedule.append(std::move(timestep));

    ++step;
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      auto& completion =
          result.stats.completion_step[static_cast<std::size_t>(v)];
      if (completion < 0 &&
          ref_vertex_satisfied(inst, options, v,
                               possession[static_cast<std::size_t>(v)]))
        completion = step;
    }
  }

  result.success = ref_all_satisfied(inst, options, possession);
  result.steps = step;
  result.bandwidth = result.stats.total_moves();
  return result;
}

void expect_identical(const RunResult& actual, const RunResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.success, expected.success) << label;
  EXPECT_EQ(actual.steps, expected.steps) << label;
  EXPECT_EQ(actual.bandwidth, expected.bandwidth) << label;
  EXPECT_EQ(actual.stats.useful_moves, expected.stats.useful_moves) << label;
  EXPECT_EQ(actual.stats.redundant_moves, expected.stats.redundant_moves)
      << label;
  EXPECT_EQ(actual.stats.moves_per_step, expected.stats.moves_per_step)
      << label;
  EXPECT_EQ(actual.stats.completion_step, expected.stats.completion_step)
      << label;
  EXPECT_EQ(actual.stats.sent_by_vertex, expected.stats.sent_by_vertex)
      << label;
  ASSERT_EQ(actual.schedule.length(), expected.schedule.length()) << label;
  for (std::size_t i = 0; i < actual.schedule.steps().size(); ++i) {
    const auto& a = actual.schedule.steps()[i].sends();
    const auto& e = expected.schedule.steps()[i].sends();
    ASSERT_EQ(a.size(), e.size()) << label << " step " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].arc, e[j].arc) << label << " step " << i;
      EXPECT_EQ(a[j].tokens, e[j].tokens) << label << " step " << i;
    }
  }
}

void compare(const core::Instance& inst, const std::string& policy_name,
             const SimOptions& options, const std::string& label) {
  auto for_new = heuristics::make_policy(policy_name);
  auto for_ref = heuristics::make_policy(policy_name);
  const RunResult actual = run(inst, *for_new, options);
  const RunResult expected = reference_run(inst, *for_ref, options);
  expect_identical(actual, expected, label + "/" + policy_name);
}

std::vector<core::Instance> test_instances() {
  std::vector<core::Instance> out;
  out.push_back(core::figure1_instance());
  out.push_back(core::adversarial_path(5, 4, 2));
  {
    Rng rng(31);
    Digraph g = topology::random_overlay(14, rng);
    out.push_back(core::single_source_all_receivers(std::move(g), 9, 0));
  }
  {
    Rng rng(33);
    Digraph g = topology::random_overlay(18, rng);
    out.push_back(core::subdivided_files_random_senders(std::move(g), 12, 3,
                                                        rng));
  }
  return out;
}

TEST(SimulatorReference, AllPoliciesDefaultOptions) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const std::string& name : heuristics::all_policy_names()) {
      SimOptions options;
      options.seed = 11;
      compare(instances[i], name, options,
              "inst" + std::to_string(i) + "/default");
    }
  }
}

TEST(SimulatorReference, StalePeerKnowledge) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const std::string& name : {std::string("random"),
                                    std::string("local")}) {
      for (std::int32_t staleness : {1, 3}) {
        SimOptions options;
        options.seed = 13;
        options.staleness = staleness;
        compare(instances[i], name, options,
                "inst" + std::to_string(i) + "/stale" +
                    std::to_string(staleness));
      }
    }
  }
}

TEST(SimulatorReference, StaleAggregates) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (std::int32_t staleness : {0, 2}) {
      SimOptions options;
      options.seed = 17;
      options.staleness = staleness;
      options.stale_aggregates = true;
      compare(instances[i], "local", options,
              "inst" + std::to_string(i) + "/staleagg" +
                  std::to_string(staleness));
    }
  }
}

TEST(SimulatorReference, MaxStepsExhaustion) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SimOptions options;
    options.seed = 19;
    options.max_steps = 3;
    compare(instances[i], "round-robin", options,
            "inst" + std::to_string(i) + "/maxsteps");
  }
}

TEST(SimulatorReference, CompletionOverride) {
  // Coding-style threshold completion: any 2 tokens satisfy a wanter.
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const core::Instance& inst = instances[i];
    SimOptions options;
    options.seed = 23;
    options.completion = [&inst](VertexId v, TokenSetView possession) {
      if (inst.want(v).empty()) return true;
      return TokenSet::count_intersection(possession, inst.want(v)) >= 2 ||
             inst.want(v).is_subset_of(possession);
    };
    compare(inst, "random", options, "inst" + std::to_string(i) + "/coded");
  }
}

TEST(SimulatorReference, DynamicsModels) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    {
      dynamics::CapacityJitter jitter(0.5);
      SimOptions options;
      options.seed = 29;
      options.max_steps = 200;
      options.dynamics = &jitter;
      // Each run needs its own model instance: reset() re-seeds but the
      // comparison must not share mutable state across the two runs.
      dynamics::CapacityJitter jitter_ref(0.5);
      auto for_new = heuristics::make_policy("random");
      auto for_ref = heuristics::make_policy("random");
      const RunResult actual = run(instances[i], *for_new, options);
      options.dynamics = &jitter_ref;
      const RunResult expected =
          reference_run(instances[i], *for_ref, options);
      expect_identical(actual, expected,
                       "inst" + std::to_string(i) + "/jitter");
    }
    {
      dynamics::LinkChurn churn(0.2, 2);
      dynamics::LinkChurn churn_ref(0.2, 2);
      SimOptions options;
      options.seed = 37;
      options.max_steps = 200;
      options.dynamics = &churn;
      auto for_new = heuristics::make_policy("round-robin");
      auto for_ref = heuristics::make_policy("round-robin");
      const RunResult actual = run(instances[i], *for_new, options);
      options.dynamics = &churn_ref;
      const RunResult expected =
          reference_run(instances[i], *for_ref, options);
      expect_identical(actual, expected,
                       "inst" + std::to_string(i) + "/churn");
    }
  }
}

TEST(SimulatorReference, StalledPolicyExit) {
  class Silent final : public Policy {
   public:
    [[nodiscard]] std::string_view name() const override { return "silent"; }
    [[nodiscard]] KnowledgeClass knowledge_class() const override {
      return KnowledgeClass::kLocalOnly;
    }
  };
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    Silent for_new;
    Silent for_ref;
    SimOptions options;
    const RunResult actual = run(instances[i], for_new, options);
    const RunResult expected = reference_run(instances[i], for_ref, options);
    expect_identical(actual, expected, "inst" + std::to_string(i) + "/stall");
  }
}

TEST(SimulatorReference, TwoPhaseScripted) {
  Rng rng(41);
  Digraph g = topology::random_overlay(12, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 6, 0);
  TwoPhasePolicy for_new("global", 3);
  TwoPhasePolicy for_ref("global", 3);
  SimOptions options;
  options.seed = 43;
  const RunResult actual = run(inst, for_new, options);
  const RunResult expected = reference_run(inst, for_ref, options);
  expect_identical(actual, expected, "two-phase");
}

}  // namespace
}  // namespace ocd::sim
