#include "ocd/core/prune.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::core {
namespace {

Instance line_instance() {
  Digraph g(3);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 2, 2);
  Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(2, 0);
  return inst;
}

TEST(Prune, RemovesRepeatDeliveries) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, 0, 2);
  s.append(std::move(a));
  Timestep b;
  b.add(0, 0, 2);  // vertex 1 already has token 0
  b.add(1, 0, 2);
  s.append(std::move(b));
  const Schedule pruned = prune(inst, s);
  EXPECT_EQ(pruned.bandwidth(), 2);
  EXPECT_TRUE(is_successful(inst, pruned));
}

TEST(Prune, RemovesUnusedDeliveries) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, TokenSet::of(2, {0, 1}));  // token 1 is never wanted or used
  s.append(std::move(a));
  Timestep b;
  b.add(1, 0, 2);
  s.append(std::move(b));
  const Schedule pruned = prune(inst, s);
  EXPECT_EQ(pruned.bandwidth(), 2);  // token 1's move is gone
  for (const Timestep& step : pruned.steps()) {
    for (const ArcSend& send : step.sends()) EXPECT_FALSE(send.tokens.test(1));
  }
}

TEST(Prune, KeepsRelayDeliveriesThatFeedLaterMoves) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, 0, 2);  // relay hop: vertex 1 does not want token 0 but
  s.append(std::move(a));
  Timestep b;
  b.add(1, 0, 2);  // ...must hold it to forward here
  s.append(std::move(b));
  const Schedule pruned = prune(inst, s);
  EXPECT_EQ(pruned.bandwidth(), 2);
  EXPECT_TRUE(is_successful(inst, pruned));
}

TEST(Prune, DropsDeliveryToVertexAlreadyHolding) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_have(1, 0);
  inst.add_want(1, 0);
  Schedule s;
  Timestep a;
  a.add(0, 0, 1);
  s.append(std::move(a));
  const Schedule pruned = prune(inst, s);
  EXPECT_EQ(pruned.bandwidth(), 0);
}

TEST(Prune, SameStepDuplicatesCollapseToOne) {
  Digraph g(3);
  g.add_arc(0, 2, 1);
  g.add_arc(1, 2, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_have(1, 0);
  inst.add_want(2, 0);
  Schedule s;
  Timestep a;
  a.add(0, 0, 1);
  a.add(1, 0, 1);
  s.append(std::move(a));
  const Schedule pruned = prune(inst, s);
  EXPECT_EQ(pruned.bandwidth(), 1);
  EXPECT_TRUE(is_successful(inst, pruned));
}

TEST(Prune, IntraStepChainingNotAssumed) {
  // v1 receives token at step 0 and forwards at step 1; pruning must
  // keep the step-0 delivery even though v1 does not want the token.
  // Additionally a same-step (receive, forward) pair would be invalid,
  // and pruning must not create one.
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, 0, 2);
  a.add(0, 1, 2);
  s.append(std::move(a));
  Timestep b;
  b.add(1, 0, 2);
  s.append(std::move(b));
  const Schedule pruned = prune(inst, s);
  EXPECT_TRUE(validate(inst, pruned).valid);
  EXPECT_TRUE(is_successful(inst, pruned));
}

TEST(Prune, EmptySchedule) {
  const Instance inst = line_instance();
  const Schedule pruned = prune(inst, Schedule{});
  EXPECT_TRUE(pruned.empty());
}

// ----------------------------------------------------------------------
// Property sweep: for every heuristic on random instances, the pruned
// schedule stays valid and successful, with bandwidth <= the original
// and >= the simple lower bound (outstanding wants).
// ----------------------------------------------------------------------
struct PruneCase {
  std::string policy;
  std::uint64_t seed;
};

void PrintTo(const PruneCase& c, std::ostream* os) {
  *os << c.policy << "/seed" << c.seed;
}

class PruneProperty : public ::testing::TestWithParam<PruneCase> {};

TEST_P(PruneProperty, PrunedScheduleRemainsSuccessfulAndSmaller) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  Digraph g = topology::random_overlay(24, rng);
  Instance inst = single_source_all_receivers(std::move(g), 12, 0);

  auto policy = heuristics::make_policy(param.policy);
  sim::SimOptions options;
  options.seed = param.seed;
  const auto run = sim::run(inst, *policy, options);
  ASSERT_TRUE(run.success);

  const Schedule pruned = prune(inst, run.schedule);
  EXPECT_TRUE(is_successful(inst, pruned));
  EXPECT_LE(pruned.bandwidth(), run.schedule.bandwidth());
  EXPECT_LE(pruned.length(), run.schedule.length());
  EXPECT_GE(pruned.bandwidth(), inst.total_outstanding());
  // Pruning is idempotent.
  const Schedule twice = prune(inst, pruned);
  EXPECT_EQ(twice.bandwidth(), pruned.bandwidth());
}

std::vector<PruneCase> prune_cases() {
  std::vector<PruneCase> cases;
  for (const std::string& name : heuristics::all_policy_names()) {
    for (std::uint64_t seed : {11ull, 22ull}) cases.push_back({name, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PruneProperty, ::testing::ValuesIn(prune_cases()),
    [](const ::testing::TestParamInfo<PruneCase>& info) {
      std::string name = info.param.policy;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace ocd::core
