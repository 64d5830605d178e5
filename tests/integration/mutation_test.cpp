// Mutation fuzzing of the validator: schedules produced by the
// simulator are valid by construction; random mutations that break the
// model's constraints must be caught by core::validate, and harmless
// mutations must not be.  This pins the validator as the source of
// truth the rest of the library leans on.
#include <gtest/gtest.h>

#include <utility>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::core {
namespace {

struct Fixture {
  Instance instance;
  Schedule schedule;
};

Fixture make_fixture(std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(12, rng);
  Instance inst = single_source_all_receivers(std::move(g), 6, 0);
  auto policy = heuristics::make_policy("local");
  sim::SimOptions options;
  options.seed = seed;
  auto run = sim::run(inst, *policy, options);
  EXPECT_TRUE(run.success);
  return Fixture{std::move(inst), std::move(run.schedule)};
}

/// `schedule` with step `index` replaced by `step`.  A schedule stores
/// its steps packed, so a mutation builds a new one.
Schedule with_step(const Schedule& schedule, std::size_t index,
                   const Timestep& step) {
  Schedule out;
  for (std::size_t i = 0; i < schedule.steps().size(); ++i)
    out.append(i == index ? step : schedule.step(i));
  return out;
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, OverfillingAnArcIsCaught) {
  auto fixture = make_fixture(GetParam());
  Rng rng(GetParam() * 7 + 1);
  // Pick a random send and inflate it past its arc capacity.
  const StepRange steps = fixture.schedule.steps();
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::size_t index = rng.below(steps.size());
    Timestep step = steps[index];
    if (step.sends().empty()) continue;
    const auto send = step.sends()[rng.below(step.sends().size())];
    const Arc& arc = fixture.instance.graph().arc(send.arc);
    // Fill the send with every token: exceeds capacity unless the arc
    // is enormous.
    if (fixture.instance.num_tokens() <= arc.capacity) continue;
    send.tokens.assign(TokenSet::full(
        static_cast<std::size_t>(fixture.instance.num_tokens())));
    const auto result = validate(fixture.instance,
                                 with_step(fixture.schedule, index, step));
    // Either capacity or possession must trip (the sender may also lack
    // some of the injected tokens).
    EXPECT_FALSE(result.valid);
    return;
  }
  GTEST_SKIP() << "no mutable send found";
}

TEST_P(MutationFuzz, SendingBeforePossessionIsCaught) {
  auto fixture = make_fixture(GetParam());
  Rng rng(GetParam() * 13 + 5);
  // Move a late send to timestep 0; unless the sender is the source,
  // possession must fail.
  const StepRange steps = fixture.schedule.steps();
  if (steps.size() < 2) GTEST_SKIP();
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::size_t late = 1 + rng.below(steps.size() - 1);
    const Timestep late_step = steps[late];
    if (late_step.sends().empty()) continue;
    const auto send =
        late_step.sends()[rng.below(late_step.sends().size())];
    const Arc& arc = fixture.instance.graph().arc(send.arc);
    if (send.tokens.is_subset_of(fixture.instance.have(arc.from)))
      continue;  // source vertex: the move is legal at step 0 too
    Timestep first = steps[0];
    first.add(send.arc, send.tokens);
    const auto result =
        validate(fixture.instance, with_step(fixture.schedule, 0, first));
    EXPECT_FALSE(result.valid);
    EXPECT_NE(result.violation.find("possession"), std::string::npos);
    return;
  }
  GTEST_SKIP() << "no movable send found";
}

TEST_P(MutationFuzz, DeletingADeliveryBreaksSuccessNotValidity) {
  auto fixture = make_fixture(GetParam());
  // Remove the last step entirely: the schedule stays valid but some
  // want must now be unmet (the run stopped exactly at success).
  const StepRange steps = fixture.schedule.steps();
  ASSERT_FALSE(steps.empty());
  Schedule shortened;
  for (std::size_t i = 0; i + 1 < steps.size(); ++i)
    shortened.append(steps[i]);
  const auto result = validate(fixture.instance, shortened);
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.successful);
}

TEST_P(MutationFuzz, ReorderingWithinAStepIsHarmless) {
  auto fixture = make_fixture(GetParam());
  Schedule reordered;
  for (const Timestep& step : fixture.schedule.steps()) {
    Timestep reversed;
    const SendRange sends = step.sends();
    for (std::size_t i = sends.size(); i-- > 0;)
      reversed.append(sends[i].arc, sends[i].tokens);
    reordered.append(reversed);
  }
  const auto result = validate(fixture.instance, reordered);
  EXPECT_TRUE(result.valid);
  EXPECT_TRUE(result.successful);
}

TEST_P(MutationFuzz, AppendingEmptyStepsIsHarmless) {
  auto fixture = make_fixture(GetParam());
  fixture.schedule.append(Timestep{});
  fixture.schedule.append(Timestep{});
  const auto result = validate(fixture.instance, fixture.schedule);
  EXPECT_TRUE(result.valid);
  EXPECT_TRUE(result.successful);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace ocd::core
