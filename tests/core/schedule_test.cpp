#include "ocd/core/schedule.hpp"

#include <gtest/gtest.h>

namespace ocd::core {
namespace {

TEST(Timestep, AddMergesSendsPerArc) {
  Timestep step;
  step.add(3, TokenSet::of(10, {1, 2}));
  step.add(3, TokenSet::of(10, {2, 5}));
  ASSERT_EQ(step.sends().size(), 1u);
  EXPECT_EQ(step.sends()[0].tokens.to_vector(),
            (std::vector<TokenId>{1, 2, 5}));
  EXPECT_EQ(step.moves(), 3);
}

TEST(Timestep, AddSingleToken) {
  Timestep step;
  step.add(0, 4, 10);
  step.add(0, 7, 10);
  step.add(1, 4, 10);
  EXPECT_EQ(step.sends().size(), 2u);
  EXPECT_EQ(step.moves(), 3);
}

TEST(Timestep, EmptyTokenSetIgnored) {
  Timestep step;
  step.add(0, TokenSet(10));
  EXPECT_TRUE(step.sends().empty());
  EXPECT_TRUE(step.empty());
}


TEST(Timestep, NegativeArcRejected) {
  Timestep step;
  EXPECT_THROW(step.add(-1, 0, 10), ContractViolation);
}

TEST(Schedule, LengthAndBandwidth) {
  Schedule schedule;
  Timestep a;
  a.add(0, TokenSet::of(8, {0, 1}));
  Timestep b;
  b.add(1, TokenSet::of(8, {2}));
  schedule.append(std::move(a));
  schedule.append(std::move(b));
  EXPECT_EQ(schedule.length(), 2);
  EXPECT_EQ(schedule.bandwidth(), 3);
  EXPECT_FALSE(schedule.empty());
}

TEST(Schedule, AppendDropsHollowSends) {
  Timestep step;
  step.add(0, 1, 10);
  step.add(2, 3, 10);
  step.sends()[0].tokens.reset(1);
  EXPECT_FALSE(step.empty());
  Schedule schedule;
  schedule.append(step);
  const Timestep stored = schedule.step(0);
  ASSERT_EQ(stored.sends().size(), 1u);
  EXPECT_EQ(stored.sends()[0].arc, 2);
  EXPECT_EQ(stored.sends()[0].tokens.to_vector(), (std::vector<TokenId>{3}));

  // A step whose every send is hollow is stored empty, and trim drops it.
  step.sends()[1].tokens.reset(3);
  schedule.append(step);
  EXPECT_EQ(schedule.length(), 2);
  EXPECT_TRUE(schedule.packed(1).empty());
  EXPECT_TRUE(schedule.step(1).empty());
  schedule.trim();
  EXPECT_EQ(schedule.length(), 1);
}

// A decoded step is an owning copy: it outlives the range it came from
// and changing it leaves the schedule as it was.
TEST(Schedule, StepsDecodeIntoOwningCopies) {
  Schedule schedule;
  Timestep a;
  a.add(1, TokenSet::of(130, {0, 129}));
  schedule.append(a);
  Timestep b;
  b.add(4, TokenSet::of(130, {64}));
  schedule.append(b);
  Timestep first = schedule.steps().front();
  first.sends()[0].tokens.reset(0);
  const Timestep last = schedule.steps().back();
  EXPECT_EQ(schedule.steps().size(), 2u);
  EXPECT_EQ(last.sends()[0].arc, 4);
  EXPECT_EQ(schedule.step(0).moves(), 2);
  EXPECT_EQ(schedule.bandwidth(), 3);
}

TEST(Schedule, TrimDropsTrailingEmptySteps) {
  Schedule schedule;
  Timestep a;
  a.add(0, 0, 4);
  schedule.append(std::move(a));
  schedule.append(Timestep{});
  schedule.append(Timestep{});
  EXPECT_EQ(schedule.length(), 3);
  schedule.trim();
  EXPECT_EQ(schedule.length(), 1);
}

TEST(Schedule, TrimKeepsInteriorEmptySteps) {
  Schedule schedule;
  schedule.append(Timestep{});
  Timestep b;
  b.add(0, 0, 4);
  schedule.append(std::move(b));
  schedule.trim();
  EXPECT_EQ(schedule.length(), 2);  // leading empty step preserved
}

TEST(Schedule, EmptyScheduleBasics) {
  Schedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.length(), 0);
  EXPECT_EQ(schedule.bandwidth(), 0);
  schedule.trim();
  EXPECT_TRUE(schedule.empty());
}

}  // namespace
}  // namespace ocd::core
