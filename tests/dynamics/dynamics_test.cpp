#include "ocd/dynamics/model.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::dynamics {
namespace {

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

std::vector<std::int32_t> static_caps(const Digraph& g) {
  std::vector<std::int32_t> caps;
  for (const Arc& arc : g.arcs()) caps.push_back(arc.capacity);
  return caps;
}

TEST(CapacityJitter, StaysWithinBand) {
  const auto inst = broadcast_instance(15, 4, 1);
  CapacityJitter jitter(0.5, /*min_capacity=*/1);
  jitter.reset(inst, 7);
  auto caps = static_caps(inst.graph());
  for (std::int64_t step = 0; step < 20; ++step) {
    caps = static_caps(inst.graph());
    jitter.apply(step, inst.graph(), caps);
    for (ArcId a = 0; a < inst.graph().num_arcs(); ++a) {
      const std::int32_t full = inst.graph().arc(a).capacity;
      EXPECT_GE(caps[static_cast<std::size_t>(a)], 1);
      EXPECT_LE(caps[static_cast<std::size_t>(a)], full);
    }
  }
}

TEST(CapacityJitter, ZeroIntensityIsIdentity) {
  const auto inst = broadcast_instance(10, 2, 2);
  CapacityJitter jitter(0.0);
  jitter.reset(inst, 1);
  auto caps = static_caps(inst.graph());
  jitter.apply(0, inst.graph(), caps);
  EXPECT_EQ(caps, static_caps(inst.graph()));
}

TEST(CapacityJitter, RejectsBadParameters) {
  EXPECT_THROW(CapacityJitter(-0.1), ContractViolation);
  EXPECT_THROW(CapacityJitter(1.5), ContractViolation);
  EXPECT_THROW(CapacityJitter(0.5, -1), ContractViolation);
}

TEST(LinkChurn, OutagesLastConfiguredDuration) {
  const auto inst = broadcast_instance(10, 2, 3);
  LinkChurn churn(1.0, /*outage_steps=*/3);  // everything fails at step 0
  churn.reset(inst, 5);
  for (std::int64_t step = 0; step < 3; ++step) {
    auto caps = static_caps(inst.graph());
    churn.apply(step, inst.graph(), caps);
    for (std::int32_t c : caps) EXPECT_EQ(c, 0) << "step " << step;
  }
  // After the outage they fail again immediately (p = 1), so use a
  // fresh model with p = 0 to observe recovery.
  LinkChurn quiet(0.0, 3);
  quiet.reset(inst, 5);
  auto caps = static_caps(inst.graph());
  quiet.apply(0, inst.graph(), caps);
  EXPECT_EQ(caps, static_caps(inst.graph()));
}

TEST(NodeChurn, SeedersArePinnedByDefault) {
  const auto inst = broadcast_instance(12, 3, 4);
  NodeChurn churn(1.0, 2);  // everyone non-pinned leaves instantly
  churn.reset(inst, 9);
  auto caps = static_caps(inst.graph());
  churn.apply(0, inst.graph(), caps);
  // Source (vertex 0) is pinned: its arcs to *pinned* peers would stay
  // up, but all its neighbors left, so in/out arcs of neighbors are 0.
  for (ArcId a = 0; a < inst.graph().num_arcs(); ++a) {
    const Arc& arc = inst.graph().arc(a);
    if (arc.from != 0 && arc.to != 0) {
      EXPECT_EQ(caps[static_cast<std::size_t>(a)], 0);
    }
  }
}

TEST(NodeChurn, ExplicitPinsRespected) {
  const auto inst = broadcast_instance(8, 2, 5);
  NodeChurn churn(1.0, 2);
  std::vector<VertexId> all;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) all.push_back(v);
  churn.set_pinned(all);
  churn.reset(inst, 1);
  auto caps = static_caps(inst.graph());
  churn.apply(0, inst.graph(), caps);
  EXPECT_EQ(caps, static_caps(inst.graph()));  // nobody may leave
}

// ----------------------------------------------------------------------
// End-to-end: heuristics complete under dynamics, never exceeding the
// effective capacities.
// ----------------------------------------------------------------------
struct DynCase {
  std::string policy;
  std::string model;
};

// ctest names each case after gtest's printout of its parameter, and
// the default printout is a byte dump that includes heap pointers.
void PrintTo(const DynCase& c, std::ostream* os) {
  *os << c.policy << '/' << c.model;
}

class DynamicsEndToEnd : public ::testing::TestWithParam<DynCase> {};

TEST_P(DynamicsEndToEnd, CompletesUnderChangingConditions) {
  const auto& param = GetParam();
  const auto inst = broadcast_instance(20, 12, 6);

  std::unique_ptr<DynamicsModel> model;
  if (param.model == "jitter") {
    model = std::make_unique<CapacityJitter>(0.6);
  } else if (param.model == "link") {
    model = std::make_unique<LinkChurn>(0.10, 3);
  } else {
    model = std::make_unique<NodeChurn>(0.05, 4);
  }

  auto policy = heuristics::make_policy(param.policy);
  sim::SimOptions options;
  options.seed = 17;
  options.dynamics = model.get();
  options.max_steps = 5000;
  const auto result = sim::run(inst, *policy, options);
  EXPECT_TRUE(result.success) << param.policy << "/" << param.model;
  EXPECT_GT(result.bandwidth, 0);
}

std::vector<DynCase> dynamics_cases() {
  std::vector<DynCase> cases;
  for (const auto& policy : heuristics::all_policy_names()) {
    for (const std::string model : {"jitter", "link", "node"}) {
      cases.push_back({policy, model});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DynamicsEndToEnd, ::testing::ValuesIn(dynamics_cases()),
    [](const ::testing::TestParamInfo<DynCase>& info) {
      std::string name = info.param.policy + "_" + info.param.model;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(DynamicsEndToEndExtra, ChurnSlowsCompletionDown) {
  const auto inst = broadcast_instance(25, 16, 8);
  auto baseline = heuristics::make_policy("local");
  sim::SimOptions options;
  options.seed = 4;
  const auto calm = sim::run(inst, *baseline, options);

  LinkChurn churn(0.25, 4);
  auto stressed = heuristics::make_policy("local");
  options.dynamics = &churn;
  options.max_steps = 5000;
  const auto stormy = sim::run(inst, *stressed, options);

  ASSERT_TRUE(calm.success);
  ASSERT_TRUE(stormy.success);
  EXPECT_GT(stormy.steps, calm.steps);
}

TEST(DynamicsEndToEndExtra, DeterministicUnderSeed) {
  const auto inst = broadcast_instance(15, 8, 9);
  auto run_once = [&]() {
    LinkChurn churn(0.2, 2);
    auto policy = heuristics::make_policy("random");
    sim::SimOptions options;
    options.seed = 31;
    options.dynamics = &churn;
    options.max_steps = 5000;
    return sim::run(inst, *policy, options);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
}

}  // namespace
}  // namespace ocd::dynamics
