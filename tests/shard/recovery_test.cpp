// Crash-tolerance contract: a sharded run with any schedule of injected
// worker crashes must produce a schedule and RunStats bit-identical to
// the crash-free run — only the four recovery counters may differ — and
// a permanently dead shard must terminate the run with a structured
// error naming the shard, step, and phase.
//
// The suite is part of the TSan pass: all recovery bookkeeping happens
// on the driver thread between parallel phases.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::shard {
namespace {

constexpr std::int32_t kShardCounts[] = {1, 2, 4};
constexpr CrashPhase kPhases[] = {CrashPhase::kPlan, CrashPhase::kApply,
                                  CrashPhase::kCommit};

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

/// Bit-identity up to the recovery counters, which are execution
/// accounting, not simulation results.
void expect_same_run(const sim::RunResult& recovered,
                     const sim::RunResult& reference,
                     const std::string& label) {
  EXPECT_EQ(recovered.success, reference.success) << label;
  EXPECT_EQ(recovered.steps, reference.steps) << label;
  EXPECT_EQ(recovered.bandwidth, reference.bandwidth) << label;
  EXPECT_EQ(recovered.termination, reference.termination) << label;
  EXPECT_EQ(recovered.stats.useful_moves, reference.stats.useful_moves)
      << label;
  EXPECT_EQ(recovered.stats.redundant_moves, reference.stats.redundant_moves)
      << label;
  EXPECT_EQ(recovered.stats.lost_moves, reference.stats.lost_moves) << label;
  EXPECT_EQ(recovered.stats.moves_per_step, reference.stats.moves_per_step)
      << label;
  EXPECT_EQ(recovered.stats.lost_per_step, reference.stats.lost_per_step)
      << label;
  EXPECT_EQ(recovered.stats.completion_step, reference.stats.completion_step)
      << label;
  EXPECT_EQ(recovered.stats.sent_by_vertex, reference.stats.sent_by_vertex)
      << label;
  ASSERT_EQ(recovered.schedule.length(), reference.schedule.length()) << label;
  for (std::size_t s = 0; s < reference.schedule.steps().size(); ++s) {
    const auto& sa = recovered.schedule.steps()[s].sends();
    const auto& sb = reference.schedule.steps()[s].sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

sim::RunResult run_with(const core::Instance& inst, const char* policy_name,
                        std::int32_t shards, const sim::SimOptions& sim,
                        const CrashPlan* plan = nullptr,
                        std::int64_t checkpoint_interval = 0,
                        std::int32_t max_respawns = 3) {
  ShardOptions options;
  options.num_shards = shards;
  options.sim = sim;
  options.recovery.crash_plan = plan;
  options.recovery.checkpoint_interval = checkpoint_interval;
  options.recovery.max_respawns = max_respawns;
  return run_sharded(inst, policy_name, options);
}

TEST(ShardRecovery, CrashFreeRunReportsZeroCounters) {
  const core::Instance inst = broadcast_instance(24, 12, 7);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult result = run_with(inst, "round-robin", 2, sim);
  EXPECT_EQ(result.stats.worker_crashes, 0);
  EXPECT_EQ(result.stats.recoveries, 0);
  EXPECT_EQ(result.stats.replayed_steps, 0);
  EXPECT_EQ(result.stats.checkpoint_bytes, 0);
}

TEST(ShardRecovery, CrashAtEveryPhaseIsBitIdentical) {
  const core::Instance inst = broadcast_instance(32, 16, 5);
  for (const char* policy_name : {"round-robin", "local"}) {
    sim::SimOptions sim;
    sim.max_steps = 200;
    sim.seed = 17;
    for (std::int32_t shards : kShardCounts) {
      const sim::RunResult reference = run_with(inst, policy_name, shards, sim);
      ASSERT_GT(reference.steps, 6);
      for (CrashPhase phase : kPhases) {
        CrashPlan plan;
        plan.crash(shards - 1, 4, phase);
        const sim::RunResult recovered =
            run_with(inst, policy_name, shards, sim, &plan,
                     /*checkpoint_interval=*/3);
        const std::string label = std::string(policy_name) + " shards=" +
                                  std::to_string(shards) + " phase=" +
                                  crash_phase_name(phase);
        expect_same_run(recovered, reference, label);
        EXPECT_EQ(recovered.stats.worker_crashes, 1) << label;
        EXPECT_EQ(recovered.stats.recoveries, 1) << label;
        EXPECT_GT(recovered.stats.checkpoint_bytes, 0) << label;
      }
    }
  }
}

TEST(ShardRecovery, CrashBeforeFirstCheckpointReplaysFromInit) {
  const core::Instance inst = broadcast_instance(24, 12, 9);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference = run_with(inst, "local", 2, sim);
  CrashPlan plan;
  plan.crash(1, 2, CrashPhase::kApply);
  // Interval longer than the crash step: no checkpoint exists yet, so
  // the respawn rebuilds from the logged init round and replays
  // everything.
  const sim::RunResult recovered = run_with(inst, "local", 2, sim, &plan,
                                            /*checkpoint_interval=*/50);
  expect_same_run(recovered, reference, "pre-checkpoint crash");
  EXPECT_EQ(recovered.stats.recoveries, 1);
  EXPECT_EQ(recovered.stats.replayed_steps, 2);
}

TEST(ShardRecovery, CrashUnderFaultsReplaysRecordedLosses) {
  const core::Instance inst = broadcast_instance(28, 14, 13);
  struct FaultCase {
    const char* label;
    std::function<std::unique_ptr<faults::FaultModel>()> make;
  };
  const std::vector<FaultCase> cases = {
      {"uniform", [] { return std::make_unique<faults::UniformLoss>(0.3); }},
      {"gilbert-elliott", [] {
         return std::make_unique<faults::GilbertElliott>(0.15, 0.4, 0.6);
       }}};
  for (const FaultCase& c : cases) {
    sim::SimOptions sim;
    sim.max_steps = 300;
    sim.seed = 23;
    const auto reference_model = c.make();
    sim.faults = reference_model.get();
    const sim::RunResult reference = run_with(inst, "round-robin", 4, sim);
    ASSERT_GT(reference.stats.lost_moves, 0) << c.label;
    for (CrashPhase phase : kPhases) {
      const auto recovered_model = c.make();
      sim::SimOptions crashed = sim;
      crashed.faults = recovered_model.get();
      CrashPlan plan;
      plan.crash(2, 5, phase);
      // The Gilbert-Elliott chain advances once per step in the shared
      // model; replay must read the recorded per-send loss sets, never
      // re-query the model — this is what the log_losses path pins.
      const sim::RunResult recovered =
          run_with(inst, "round-robin", 4, crashed, &plan,
                   /*checkpoint_interval=*/4);
      expect_same_run(recovered, reference,
                      std::string(c.label) + " phase=" +
                          crash_phase_name(phase));
      EXPECT_EQ(recovered.stats.recoveries, 1) << c.label;
    }
  }
}

TEST(ShardRecovery, RandomCrashScheduleStaysBitIdentical) {
  const core::Instance inst = broadcast_instance(32, 16, 19);
  sim::SimOptions sim;
  sim.max_steps = 300;
  sim.seed = 3;
  const sim::RunResult reference = run_with(inst, "local", 4, sim);
  CrashPlan plan;
  plan.random_crashes(0.02, 77);
  const sim::RunResult recovered =
      run_with(inst, "local", 4, sim, &plan, /*checkpoint_interval=*/5,
               /*max_respawns=*/64);
  expect_same_run(recovered, reference, "random crashes");
  EXPECT_GT(recovered.stats.worker_crashes, 0);
  EXPECT_EQ(recovered.stats.worker_crashes, recovered.stats.recoveries);
}

TEST(ShardRecovery, MultipleCrashesAccumulateCounters) {
  const core::Instance inst = broadcast_instance(28, 14, 21);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference = run_with(inst, "round-robin", 4, sim);
  ASSERT_GT(reference.steps, 3);  // every kill point must be reachable
  CrashPlan plan;
  plan.crash(0, 1, CrashPhase::kPlan)
      .crash(1, 2, CrashPhase::kApply)
      .crash(3, 3, CrashPhase::kCommit)
      .crash(2, 2, CrashPhase::kPlan);
  const sim::RunResult recovered = run_with(inst, "round-robin", 4, sim,
                                            &plan, /*checkpoint_interval=*/3);
  expect_same_run(recovered, reference, "multi-crash");
  EXPECT_EQ(recovered.stats.worker_crashes, 4);
  EXPECT_EQ(recovered.stats.recoveries, 4);
  EXPECT_GT(recovered.stats.replayed_steps, 0);
}

TEST(ShardRecovery, ExhaustedRespawnBudgetNamesShardStepPhase) {
  const core::Instance inst = broadcast_instance(24, 12, 25);
  sim::SimOptions sim;
  sim.max_steps = 200;
  CrashPlan plan;
  plan.crash_always(1, 3, CrashPhase::kApply);
  try {
    run_with(inst, "round-robin", 2, sim, &plan, /*checkpoint_interval=*/2,
             /*max_respawns=*/2);
    FAIL() << "expected respawn exhaustion";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("max_respawns (2)"), std::string::npos) << what;
    EXPECT_NE(what.find("step 3"), std::string::npos) << what;
    EXPECT_NE(what.find("phase apply"), std::string::npos) << what;
  }
}

TEST(ShardRecovery, ValidatesRecoveryOptions) {
  const core::Instance inst = broadcast_instance(10, 4, 1);
  sim::SimOptions sim;
  ShardOptions bad_budget;
  bad_budget.num_shards = 2;
  bad_budget.recovery.max_respawns = -1;
  EXPECT_THROW(run_sharded(inst, "round-robin", bad_budget), Error);
  ShardOptions bad_interval;
  bad_interval.num_shards = 2;
  bad_interval.recovery.checkpoint_interval = -3;
  EXPECT_THROW(run_sharded(inst, "round-robin", bad_interval), Error);
  for (const double bad_rate :
       {-0.01, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    CrashPlan plan;
    EXPECT_THROW(plan.random_crashes(bad_rate, 1), Error) << bad_rate;
  }
}

TEST(ShardRecovery, CrashDuringWaveMergeIsBitIdentical) {
  // The coordinated planner adds the wave round (and CrashPhase::kWave)
  // before plan.  A crash there must rebuild the merged relay election
  // from the checkpoint and the logged wave frames bit-identically.
  const core::Instance inst = broadcast_instance(32, 16, 5);
  sim::SimOptions sim;
  sim.max_steps = 200;
  sim.seed = 17;
  for (std::int32_t shards : {2, 4}) {
    const sim::RunResult reference = run_with(inst, "bandwidth", shards, sim);
    ASSERT_GT(reference.steps, 6);
    CrashPlan plan;
    plan.crash(shards - 1, 4, CrashPhase::kWave);
    const sim::RunResult recovered =
        run_with(inst, "bandwidth", shards, sim, &plan,
                 /*checkpoint_interval=*/3);
    const std::string label = "wave-crash shards=" + std::to_string(shards);
    expect_same_run(recovered, reference, label);
    EXPECT_EQ(recovered.stats.worker_crashes, 1) << label;
    EXPECT_EQ(recovered.stats.recoveries, 1) << label;
  }
}

TEST(ShardRecovery, CoordinatedCrashAtEveryPhaseIsBitIdentical) {
  // The pre-existing phases still recover under a coordinated planner:
  // each replays the wave round silently before rejoining live.
  const core::Instance inst = broadcast_instance(28, 14, 11);
  sim::SimOptions sim;
  sim.max_steps = 200;
  sim.seed = 29;
  const sim::RunResult reference = run_with(inst, "bandwidth", 2, sim);
  for (CrashPhase phase :
       {CrashPhase::kPlan, CrashPhase::kApply, CrashPhase::kCommit}) {
    CrashPlan plan;
    plan.crash(1, 3, phase);
    const sim::RunResult recovered =
        run_with(inst, "bandwidth", 2, sim, &plan,
                 /*checkpoint_interval=*/2);
    const std::string label =
        std::string("bandwidth phase=") + crash_phase_name(phase);
    expect_same_run(recovered, reference, label);
    EXPECT_EQ(recovered.stats.recoveries, 1) << label;
  }
}

TEST(ShardRecovery, CoordinatedCountersSurviveRecovery) {
  // The shard traffic counters are checkpointed and re-incremented by
  // replay, so a crashed-and-recovered run reports the same totals as
  // the crash-free one — they stay comparable across fault studies.
  const core::Instance inst = broadcast_instance(28, 14, 15);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference = run_with(inst, "bandwidth", 2, sim);
  ASSERT_GT(reference.steps, 3);  // every kill point must be reachable
  CrashPlan plan;
  plan.crash(0, 1, CrashPhase::kWave).crash(1, 3, CrashPhase::kApply);
  const sim::RunResult recovered = run_with(inst, "bandwidth", 2, sim, &plan,
                                            /*checkpoint_interval=*/2);
  EXPECT_EQ(recovered.stats.worker_crashes, 2);
  EXPECT_EQ(recovered.stats.shard_bytes_sent,
            reference.stats.shard_bytes_sent);
  EXPECT_EQ(recovered.stats.shard_bytes_received,
            reference.stats.shard_bytes_received);
  EXPECT_EQ(recovered.stats.shard_summary_entries,
            reference.stats.shard_summary_entries);
}

TEST(ShardRecovery, CheckpointingAloneLeavesRunUnchanged) {
  // Checkpoints without crashes: pure overhead, zero semantic effect.
  const core::Instance inst = broadcast_instance(28, 14, 29);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference = run_with(inst, "local", 4, sim);
  const sim::RunResult checkpointed = run_with(
      inst, "local", 4, sim, nullptr, /*checkpoint_interval=*/2);
  expect_same_run(checkpointed, reference, "checkpoint-only");
  EXPECT_EQ(checkpointed.stats.worker_crashes, 0);
  EXPECT_GT(checkpointed.stats.checkpoint_bytes, 0);
}

}  // namespace
}  // namespace ocd::shard
