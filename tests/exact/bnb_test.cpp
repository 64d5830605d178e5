#include "ocd/exact/bnb.hpp"

#include <gtest/gtest.h>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/exact/ip_solver.hpp"

namespace ocd::exact {
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

TEST(Bnb, LineFeasibilitySweep) {
  const core::Instance inst = line_instance();
  EXPECT_FALSE(dfocd_feasible(inst, 0));
  EXPECT_FALSE(dfocd_feasible(inst, 1));
  core::Schedule witness;
  EXPECT_TRUE(dfocd_feasible(inst, 2, {}, &witness));
  EXPECT_TRUE(core::is_successful(inst, witness));
  EXPECT_LE(witness.length(), 2);
  EXPECT_TRUE(dfocd_feasible(inst, 5));
}

TEST(Bnb, MinMakespanOnLine) {
  const auto result = focd_min_makespan(line_instance(), 6);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->makespan, 2);
}

TEST(Bnb, TrivialInstance) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  EXPECT_TRUE(dfocd_feasible(inst, 0));
  const auto result = focd_min_makespan(inst, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->makespan, 0);
}

TEST(Bnb, UnsatisfiableInstance) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(1, 0);
  inst.add_want(0, 0);
  EXPECT_FALSE(focd_min_makespan(inst, 5).has_value());
  EXPECT_FALSE(dfocd_feasible(inst, 5));
}

TEST(Bnb, Figure1MakespanIsTwo) {
  const core::Instance inst = core::figure1_instance();
  const auto result = focd_min_makespan(inst, 5);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->makespan, 2);
  EXPECT_TRUE(core::is_successful(inst, result->schedule));
  // A 2-step solution necessarily spends 6 moves (Figure 1's point);
  // after pruning it is exactly 6.
  EXPECT_GE(result->schedule.bandwidth(), 6);
}

TEST(Bnb, CapacityForcesExtraStep) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 0);
  inst.add_want(1, 1);
  EXPECT_FALSE(dfocd_feasible(inst, 1));
  EXPECT_TRUE(dfocd_feasible(inst, 2));
}

TEST(Bnb, WitnessScheduleRespectsTau) {
  Rng rng(3);
  const core::Instance inst = core::random_small_instance(5, 2, 0.5, rng);
  const auto result = focd_min_makespan(inst, 10);
  ASSERT_TRUE(result.has_value());
  core::Schedule witness;
  // Feasible at makespan but not below.
  EXPECT_TRUE(dfocd_feasible(inst, result->makespan, {}, &witness));
  if (result->makespan > 0) {
    EXPECT_FALSE(dfocd_feasible(inst, result->makespan - 1));
  }
}

TEST(Bnb, NodeBudgetThrows) {
  Rng rng(4);
  const core::Instance inst = core::random_small_instance(6, 3, 0.6, rng);
  BnbOptions options;
  options.max_nodes = 1;
  EXPECT_THROW(focd_min_makespan(inst, 8, options), Error);
}

TEST(Bnb, StatsArePopulated) {
  const core::Instance inst = core::figure1_instance();
  BnbStats stats;
  core::Schedule witness;
  ASSERT_TRUE(dfocd_feasible(inst, 2, {}, &witness, &stats));
  EXPECT_GT(stats.nodes, 0);
  EXPECT_GT(stats.flow_checks, 0);
}

// ----------------------------------------------------------------------
// Cross-validation: combinatorial BnB and the time-indexed IP must
// agree on the minimum makespan of random small instances.
// ----------------------------------------------------------------------
class BnbVsIp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbVsIp, AgreeOnMinimumMakespan) {
  Rng rng(GetParam());
  const core::Instance inst = core::random_small_instance(5, 2, 0.45, rng);
  const auto bnb = focd_min_makespan(inst, 10);
  const auto ip = min_makespan_ip(inst, 10);
  ASSERT_TRUE(bnb.has_value());
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(bnb->makespan, ip->makespan) << inst.summary();
  EXPECT_TRUE(core::is_successful(inst, bnb->schedule));
  EXPECT_TRUE(core::is_successful(inst, ip->schedule));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbVsIp,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ocd::exact
