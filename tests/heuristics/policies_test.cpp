// Cross-policy property tests: every heuristic must complete every
// satisfiable scenario with a schedule that replays cleanly.
#include <gtest/gtest.h>

#include <ostream>

#include "ocd/core/bounds.hpp"
#include "ocd/heuristics/architectures.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace ocd::heuristics {
namespace {

TEST(Factory, KnowsAllFiveHeuristics) {
  EXPECT_EQ(all_policy_names().size(), 5u);
  for (const auto& name : all_policy_names()) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_THROW(make_policy("nonsense"), Error);
  EXPECT_EQ(make_all_policies().size(), 5u);
}

TEST(Factory, KnowledgeClassesMatchThePaper) {
  using sim::KnowledgeClass;
  EXPECT_EQ(make_policy("round-robin")->knowledge_class(),
            KnowledgeClass::kLocalOnly);
  EXPECT_EQ(make_policy("random")->knowledge_class(),
            KnowledgeClass::kLocalPeers);
  EXPECT_EQ(make_policy("local")->knowledge_class(),
            KnowledgeClass::kLocalAggregate);
  EXPECT_EQ(make_policy("bandwidth")->knowledge_class(),
            KnowledgeClass::kGlobal);
  EXPECT_EQ(make_policy("global")->knowledge_class(),
            KnowledgeClass::kGlobal);
}

struct ScenarioCase {
  std::string policy;
  std::string scenario;
  std::uint64_t seed;
};

// ctest names each case after gtest's printout of its parameter, and
// the default printout is a byte dump that includes heap pointers.
void PrintTo(const ScenarioCase& c, std::ostream* os) {
  *os << c.policy << '/' << c.scenario << "/s" << c.seed;
}

core::Instance build_scenario(const std::string& scenario, std::uint64_t seed) {
  Rng rng(seed);
  if (scenario == "all_receivers") {
    Digraph g = topology::random_overlay(25, rng);
    return core::single_source_all_receivers(std::move(g), 16, 0);
  }
  if (scenario == "sparse_wants") {
    Digraph g = topology::random_overlay(25, rng);
    auto built =
        core::single_source_receiver_density(std::move(g), 16, 0, 0.3, rng);
    return std::move(built.instance);
  }
  if (scenario == "multi_file") {
    Digraph g = topology::random_overlay(30, rng);
    return core::subdivided_files(std::move(g), 16, 4, 0);
  }
  if (scenario == "multi_sender") {
    Digraph g = topology::random_overlay(30, rng);
    return core::subdivided_files_random_senders(std::move(g), 16, 4, rng);
  }
  if (scenario == "transit_stub") {
    topology::TransitStubOptions opt;
    Digraph g = topology::transit_stub(opt, rng);
    return core::single_source_all_receivers(std::move(g), 12, 0);
  }
  throw Error("unknown scenario " + scenario);
}

class PolicyScenario : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(PolicyScenario, CompletesWithValidSchedule) {
  const auto& param = GetParam();
  const core::Instance inst = build_scenario(param.scenario, param.seed);
  ASSERT_TRUE(inst.is_satisfiable());

  auto policy = make_policy(param.policy);
  sim::SimOptions options;
  options.seed = param.seed * 31 + 7;
  options.max_steps = 50'000;
  const auto result = sim::run(inst, *policy, options);

  EXPECT_TRUE(result.success) << param.policy << " on " << param.scenario;
  const auto validation = core::validate(inst, result.schedule);
  EXPECT_TRUE(validation.valid) << validation.violation;
  EXPECT_TRUE(validation.successful);

  // Sanity relations every run must satisfy.
  EXPECT_GE(result.bandwidth, core::bandwidth_lower_bound(inst));
  EXPECT_GE(result.steps, core::distance_lower_bound(inst));
  EXPECT_EQ(result.bandwidth, result.schedule.bandwidth());
}

std::vector<ScenarioCase> scenario_cases() {
  std::vector<ScenarioCase> cases;
  const std::vector<std::string> scenarios{"all_receivers", "sparse_wants",
                                           "multi_file", "multi_sender",
                                           "transit_stub"};
  // The paper's five plus the §2 architecture baselines, several seeds.
  for (const auto& policy : extended_policy_names()) {
    for (const auto& scenario : scenarios) {
      for (const std::uint64_t seed : {42ull, 1042ull}) {
        cases.push_back({policy, scenario, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyScenario, ::testing::ValuesIn(scenario_cases()),
    [](const ::testing::TestParamInfo<ScenarioCase>& info) {
      std::string name = info.param.policy + "_" + info.param.scenario +
                         "_s" + std::to_string(info.param.seed);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// Determinism: identical seeds give identical runs for every policy.
class PolicyDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyDeterminism, SameSeedSameRun) {
  const core::Instance inst = build_scenario("multi_file", 5);
  sim::SimOptions options;
  options.seed = 123;
  auto p1 = make_policy(GetParam());
  auto p2 = make_policy(GetParam());
  const auto r1 = sim::run(inst, *p1, options);
  const auto r2 = sim::run(inst, *p2, options);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.bandwidth, r2.bandwidth);
}

INSTANTIATE_TEST_SUITE_P(All, PolicyDeterminism,
                         ::testing::ValuesIn(all_policy_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace ocd::heuristics
