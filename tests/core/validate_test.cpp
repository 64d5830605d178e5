#include "ocd/core/validate.hpp"

#include <gtest/gtest.h>

namespace ocd::core {
namespace {

/// 0 -> 1 -> 2 line with capacity 1, token 0 at vertex 0, wanted by 2.
Instance line_instance() {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);
  return inst;
}

Schedule relay_schedule() {
  Schedule s;
  Timestep a;
  a.add(0, 0, 1);  // arc 0: 0 -> 1
  s.append(std::move(a));
  Timestep b;
  b.add(1, 0, 1);  // arc 1: 1 -> 2
  s.append(std::move(b));
  return s;
}

TEST(Validate, AcceptsCorrectRelay) {
  const Instance inst = line_instance();
  const auto result = validate(inst, relay_schedule());
  EXPECT_TRUE(result.valid);
  EXPECT_TRUE(result.successful);
  EXPECT_TRUE(result.violation.empty());
  EXPECT_TRUE(result.final_possession[2].test(0));
  EXPECT_TRUE(is_successful(inst, relay_schedule()));
}

TEST(Validate, DetectsPossessionViolation) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(1, 0, 1);  // vertex 1 does not yet have token 0
  s.append(std::move(a));
  const auto result = validate(inst, s);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.violation.find("possession"), std::string::npos);
}

TEST(Validate, SameStepForwardingIsIllegal) {
  // Receiving at step i does not allow sending at step i.
  const Instance inst = line_instance();
  Schedule s;
  Timestep both;
  both.add(0, 0, 1);
  both.add(1, 0, 1);
  s.append(std::move(both));
  EXPECT_FALSE(validate(inst, s).valid);
}

TEST(Validate, DetectsCapacityViolation) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance inst(std::move(g), 3);
  for (TokenId t = 0; t < 3; ++t) inst.add_have(0, t);
  Schedule s;
  Timestep a;
  a.add(0, TokenSet::of(3, {0, 1}));  // 2 tokens > capacity 1
  s.append(std::move(a));
  const auto result = validate(inst, s);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.violation.find("capacity"), std::string::npos);
}

TEST(Validate, DetectsUnknownArc) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(5, 0, 1);
  s.append(std::move(a));
  const auto result = validate(inst, s);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.violation.find("unknown arc"), std::string::npos);
}

TEST(Validate, DetectsUniverseMismatch) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, 0, 2);  // universe 2 vs instance universe 1
  s.append(std::move(a));
  EXPECT_FALSE(validate(inst, s).valid);
}

TEST(Validate, ValidButUnsuccessful) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(0, 0, 1);  // token reaches vertex 1, never vertex 2
  s.append(std::move(a));
  const auto result = validate(inst, s);
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.successful);
}

TEST(Validate, EmptyScheduleSucceedsOnlyWhenTrivial) {
  const Instance inst = line_instance();
  EXPECT_FALSE(validate(inst, Schedule{}).successful);

  Digraph g(2);
  g.add_arc(0, 1, 1);
  Instance trivial(std::move(g), 1);
  trivial.add_have(0, 0);
  EXPECT_TRUE(validate(trivial, Schedule{}).successful);
}

TEST(Validate, PossessionTraceTracksEachStep) {
  const Instance inst = line_instance();
  const auto trace = possession_trace(inst, relay_schedule());
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_TRUE(trace[0][0].test(0));
  EXPECT_FALSE(trace[0][1].test(0));
  EXPECT_TRUE(trace[1][1].test(0));
  EXPECT_FALSE(trace[1][2].test(0));
  EXPECT_TRUE(trace[2][2].test(0));
}

TEST(Validate, PossessionTraceThrowsOnInvalid) {
  const Instance inst = line_instance();
  Schedule s;
  Timestep a;
  a.add(1, 0, 1);
  s.append(std::move(a));
  EXPECT_THROW(possession_trace(inst, s), Error);
}

TEST(Validate, CapacityIsChargedPerArcAcrossSends) {
  // Two sends on one arc (a raw append does not union them) that fit
  // alone but together exceed c = 2.
  Digraph g(2);
  g.add_arc(0, 1, 2);
  Instance inst(std::move(g), 4);
  for (TokenId t = 0; t < 4; ++t) {
    inst.add_have(0, t);
    inst.add_want(1, t);
  }
  Schedule split;
  Timestep a;
  a.append(0, TokenSet::of(4, {0, 1}));
  a.append(0, TokenSet::of(4, {2, 3}));
  split.append(std::move(a));
  const auto result = validate(inst, split);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.violation.find("capacity exceeded on arc (0,1): sent 4"),
            std::string::npos)
      << result.violation;

  // The charge starts over each step.
  Schedule staggered;
  Timestep b;
  b.append(0, TokenSet::of(4, {0}));
  b.append(0, TokenSet::of(4, {1}));
  staggered.append(std::move(b));
  Timestep c;
  c.append(0, TokenSet::of(4, {2, 3}));
  staggered.append(std::move(c));
  const auto ok = validate(inst, staggered);
  EXPECT_TRUE(ok.valid) << ok.violation;
  EXPECT_TRUE(ok.successful);
}

TEST(Validate, DuplicateDeliverySameStepIsValid) {
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
  const auto result = validate(inst, s);
  EXPECT_TRUE(result.valid);
  EXPECT_TRUE(result.successful);
}

}  // namespace
}  // namespace ocd::core
