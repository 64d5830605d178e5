// Allocation cost of schedule recording.  sim::run packs each step's
// surviving sends straight from the plan pool into the schedule
// (ocd/core/schedule.hpp): one block per step, sized exactly, holding
// per send an arc id, a present-word mask (none at one word per row)
// and only the send's nonzero words; plus the schedule's own vector of
// steps growing by doubling.  Copying one owning TokenSet per send
// costs an allocation per send; copying whole rows costs 8 bytes per
// word of the universe per send, however few of its words are set.
//
// Compiled into ocd_alloc_tests: this binary replaces global operator
// new with a counting wrapper (see sim/alloc_count_test.cpp, which owns
// the replacement and the instance), which must not perturb the main
// suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ocd/core/instance.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

// Defined in sim/alloc_count_test.cpp, same binary.
namespace ocd::testing_alloc {
std::uint64_t allocation_count();
std::uint64_t allocated_bytes();
core::Instance slow_fig2_instance();
}  // namespace ocd::testing_alloc

namespace ocd::sim {
namespace {

std::uint64_t allocations_of(Simulator& simulator, const core::Instance& inst,
                             Policy& policy, const SimOptions& options) {
  const std::uint64_t before = testing_alloc::allocation_count();
  const RunResult result = simulator.run(inst, policy, options);
  const std::uint64_t after = testing_alloc::allocation_count();
  EXPECT_EQ(result.steps, options.max_steps);
  return after - before;
}

std::uint64_t bytes_of(Simulator& simulator, const core::Instance& inst,
                       Policy& policy, const SimOptions& options) {
  const std::uint64_t before = testing_alloc::allocated_bytes();
  const RunResult result = simulator.run(inst, policy, options);
  EXPECT_GT(result.steps, 0);
  return testing_alloc::allocated_bytes() - before;
}

// A warm recorded run may allocate at most one block per step more
// than the same run unrecorded, plus bit_width(steps - 1) + 1 for the
// schedule's vector of steps (capacity 1, 2, 4, ... up to steps).
// Every planner here sends on more than two arcs per step on average,
// so a per-send copy cannot meet the bound.
TEST(AllocCount, RecordedStepsAllocatePerStepNotPerSend) {
  const core::Instance inst = testing_alloc::slow_fig2_instance();
  constexpr std::int64_t kSteps = 16;
  constexpr auto kSteps64 = static_cast<std::uint64_t>(kSteps);
  constexpr std::uint64_t kBound =
      kSteps64 + std::bit_width(kSteps64 - 1) + 1;
  for (const char* name :
       {"global", "local", "random", "round-robin", "bandwidth"}) {
    SCOPED_TRACE(name);
    const auto policy = heuristics::make_policy(name);
    Simulator simulator;
    SimOptions options;
    options.seed = 17;
    options.max_steps = kSteps;
    options.record_schedule = true;

    // Warm run: sizes the simulator arena and the policy scratch along
    // the trajectory both measured runs replay.
    const RunResult warm = simulator.run(inst, *policy, options);
    ASSERT_EQ(warm.steps, kSteps);
    std::int64_t sends = 0;
    for (const core::Timestep& step : warm.schedule.steps())
      sends += static_cast<std::int64_t>(step.sends().size());
    ASSERT_GT(sends, 3 * kSteps);

    options.record_schedule = false;
    const std::uint64_t plain = allocations_of(simulator, inst, *policy, options);
    options.record_schedule = true;
    const std::uint64_t recorded =
        allocations_of(simulator, inst, *policy, options);
    EXPECT_LE(recorded, plain + kBound)
        << (recorded - plain) << " allocations to record " << kSteps
        << " steps of " << sends << " sends";
  }
}

/// Records up to 16 steps of round-robin on a 200-vertex broadcast of
/// `tokens` tokens and expects the recorded run to request at most
/// 4 + mask + 8 * present bytes per send more than the same run
/// unrecorded (mask: one byte per 8 words of a row, none for one-word
/// rows; present: the send's nonzero words), plus kPerStep bytes per
/// step for the schedule's vector of steps and each block's rounding to
/// whole words.
void expect_recorded_bytes_follow_present_words(std::int32_t tokens) {
  SCOPED_TRACE(tokens);
  constexpr std::uint64_t kPerStep = 128;
  Rng rng(0xb17e5);
  const core::Instance inst = core::single_source_all_receivers(
      topology::random_overlay(200, rng), tokens, 0);
  const auto policy = heuristics::make_policy("round-robin");
  Simulator simulator;
  SimOptions options;
  options.seed = 17;
  options.max_steps = 16;

  const RunResult warm = simulator.run(inst, *policy, options);
  const std::size_t row = (static_cast<std::size_t>(tokens) + 63) / 64;
  const std::uint64_t mask = row == 1 ? 0 : (row + 7) / 8;
  std::uint64_t sends = 0;
  std::uint64_t present = 0;
  for (const core::Timestep& step : warm.schedule.steps()) {
    for (const core::ArcSend send : step.sends()) {
      ++sends;
      for (std::size_t w = 0; w < row; ++w)
        present += send.tokens.word(w) != 0 ? 1 : 0;
    }
  }
  ASSERT_GT(sends, 0u);
  const std::uint64_t allowed = (4 + mask) * sends + 8 * present +
                                kPerStep * static_cast<std::uint64_t>(
                                               warm.steps);

  options.record_schedule = false;
  const std::uint64_t plain = bytes_of(simulator, inst, *policy, options);
  options.record_schedule = true;
  const std::uint64_t recorded = bytes_of(simulator, inst, *policy, options);
  EXPECT_LE(recorded - plain, allowed)
      << (recorded - plain) << " bytes to record " << warm.steps
      << " steps of " << sends << " sends holding " << present
      << " nonzero words (" << (recorded - plain) / sends << " per send)";
}

// Recording costs bytes in proportion to the words a run sets, not to
// the universe: at 512 tokens (8-word rows) a round-robin send sets
// about one word, so copying whole rows (68 bytes per send) fails this
// bound; at 8 tokens a row is one word, and packing costs what a row
// copy does, 12 bytes per send.
TEST(AllocCount, RecordedBytesFollowPresentWords) {
  expect_recorded_bytes_follow_present_words(512);
  expect_recorded_bytes_follow_present_words(8);
}

}  // namespace
}  // namespace ocd::sim
