// Allocation cost of schedule recording.  A Timestep stores its sends
// flat (ocd/core/schedule.hpp), and sim::run records a step by copying
// the plan's surviving sends into one exact-size Timestep: an arc array
// and a word block, two allocations per step however many sends it
// carries, plus the schedule's own vector of steps growing by doubling.
// Copying one owning TokenSet per send costs an allocation per send.
//
// Compiled into ocd_alloc_tests: this binary replaces global operator
// new with a counting wrapper (see sim/alloc_count_test.cpp, which owns
// the replacement and the instance), which must not perturb the main
// suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "ocd/core/instance.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"

// Defined in sim/alloc_count_test.cpp, same binary.
namespace ocd::testing_alloc {
std::uint64_t allocation_count();
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

// A warm recorded run may allocate at most 2 * steps more than the same
// run unrecorded, plus bit_width(steps - 1) + 1 for the schedule's
// vector of steps (capacity 1, 2, 4, ... up to steps).  Every planner
// here sends on more than two arcs per step on average, so a per-send
// copy cannot meet the bound.
TEST(AllocCount, RecordedStepsAllocatePerStepNotPerSend) {
  const core::Instance inst = testing_alloc::slow_fig2_instance();
  constexpr std::int64_t kSteps = 16;
  constexpr auto kSteps64 = static_cast<std::uint64_t>(kSteps);
  constexpr std::uint64_t kBound =
      2 * kSteps64 + std::bit_width(kSteps64 - 1) + 1;
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

}  // namespace
}  // namespace ocd::sim
