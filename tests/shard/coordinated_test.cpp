// Sharded coordinated planning: the "bandwidth" planner needs the
// whole possession map to decide, so the sharded runtime replicates
// possession on every shard and inserts one wave round (the token-sliced
// relay elections) before each plan phase.  The contract is unchanged
// from the local planners: the merged schedule and RunStats are
// bit-for-bit identical to sim::run for every shard count and any
// fault model.  ("global" is refused by the runtime; ShardDeterminism
// pins the refusal.)
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "ocd/core/scenario.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::shard {
namespace {

constexpr std::int32_t kShardCounts[] = {1, 2, 4};
constexpr const char* kCoordinatedPolicies[] = {"bandwidth"};

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

core::Instance scattered_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  core::Instance inst(std::move(g), tokens);
  for (VertexId v = 0; v < n; ++v) {
    TokenSet have(static_cast<std::size_t>(tokens));
    have.set(static_cast<TokenId>(v % tokens));
    if (rng.chance(0.3)) have.set(static_cast<TokenId>((v + 1) % tokens));
    inst.set_have(v, have);
    inst.set_want(v, TokenSet::full(static_cast<std::size_t>(tokens)));
  }
  return inst;
}

void expect_same_run(const sim::RunResult& sharded,
                     const sim::RunResult& reference,
                     const std::string& label) {
  EXPECT_EQ(sharded.success, reference.success) << label;
  EXPECT_EQ(sharded.steps, reference.steps) << label;
  EXPECT_EQ(sharded.bandwidth, reference.bandwidth) << label;
  EXPECT_EQ(sharded.termination, reference.termination) << label;
  EXPECT_EQ(sharded.stats.useful_moves, reference.stats.useful_moves)
      << label;
  EXPECT_EQ(sharded.stats.redundant_moves, reference.stats.redundant_moves)
      << label;
  EXPECT_EQ(sharded.stats.lost_moves, reference.stats.lost_moves) << label;
  EXPECT_EQ(sharded.stats.moves_per_step, reference.stats.moves_per_step)
      << label;
  EXPECT_EQ(sharded.stats.lost_per_step, reference.stats.lost_per_step)
      << label;
  EXPECT_EQ(sharded.stats.completion_step, reference.stats.completion_step)
      << label;
  EXPECT_EQ(sharded.stats.sent_by_vertex, reference.stats.sent_by_vertex)
      << label;
  ASSERT_EQ(sharded.schedule.length(), reference.schedule.length()) << label;
  for (std::size_t s = 0; s < reference.schedule.steps().size(); ++s) {
    const auto& sa = sharded.schedule.steps()[s].sends();
    const auto& sb = reference.schedule.steps()[s].sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

sim::RunResult reference_run(const core::Instance& inst,
                             const char* policy_name,
                             const sim::SimOptions& options) {
  const sim::PolicyPtr policy = heuristics::make_policy(policy_name);
  return sim::run(inst, *policy, options);
}

sim::RunResult run_with(const core::Instance& inst, const char* policy_name,
                        std::int32_t shards, const sim::SimOptions& sim) {
  ShardOptions options;
  options.num_shards = shards;
  options.sim = sim;
  return run_sharded(inst, policy_name, options);
}

TEST(ShardCoordinated, MatchesSingleProcessForEveryShardCount) {
  for (const auto& make_inst :
       {std::function<core::Instance()>(
            [] { return broadcast_instance(40, 24, 7); }),
        std::function<core::Instance()>(
            [] { return scattered_instance(30, 12, 11); })}) {
    const core::Instance inst = make_inst();
    for (const char* policy_name : kCoordinatedPolicies) {
      sim::SimOptions options;
      options.max_steps = 400;
      options.seed = 99;
      const sim::RunResult reference =
          reference_run(inst, policy_name, options);
      for (std::int32_t shards : kShardCounts) {
        const sim::RunResult result =
            run_with(inst, policy_name, shards, options);
        expect_same_run(result, reference,
                        std::string(policy_name) + " shards=" +
                            std::to_string(shards));
      }
    }
  }
}

TEST(ShardCoordinated, MatchesSingleProcessUnderUniformLoss) {
  const core::Instance inst = broadcast_instance(32, 16, 13);
  for (const char* policy_name : kCoordinatedPolicies) {
    sim::SimOptions options;
    options.max_steps = 400;
    options.seed = 5;
    faults::UniformLoss reference_model(0.3);
    options.faults = &reference_model;
    const sim::RunResult reference =
        reference_run(inst, policy_name, options);
    ASSERT_GT(reference.stats.lost_moves, 0) << policy_name;
    for (std::int32_t shards : kShardCounts) {
      faults::UniformLoss sharded_model(0.3);
      sim::SimOptions sharded = options;
      sharded.faults = &sharded_model;
      const sim::RunResult result =
          run_with(inst, policy_name, shards, sharded);
      expect_same_run(result, reference,
                      std::string(policy_name) + "/uniform shards=" +
                          std::to_string(shards));
    }
  }
}

TEST(ShardCoordinated, ReportsBarrierTrafficCounters) {
  const core::Instance inst = broadcast_instance(32, 16, 13);
  sim::SimOptions options;
  options.max_steps = 400;
  // Single process: no barrier, all counters stay zero.
  const sim::RunResult reference = reference_run(inst, "bandwidth", options);
  EXPECT_EQ(reference.stats.shard_bytes_sent, 0);
  EXPECT_EQ(reference.stats.shard_bytes_received, 0);
  EXPECT_EQ(reference.stats.shard_summary_entries, 0);
  // One shard: no peers, still no traffic.
  const sim::RunResult solo = run_with(inst, "bandwidth", 1, options);
  EXPECT_EQ(solo.stats.shard_bytes_sent, 0);
  EXPECT_EQ(solo.stats.shard_bytes_received, 0);
  // Two shards: every frame is counted on both ends of the star, and
  // the wave summaries contribute entries.
  const sim::RunResult sharded = run_with(inst, "bandwidth", 2, options);
  EXPECT_GT(sharded.stats.shard_bytes_sent, 0);
  EXPECT_EQ(sharded.stats.shard_bytes_sent,
            sharded.stats.shard_bytes_received)
      << "a 2-shard star delivers every byte it sends";
  EXPECT_GT(sharded.stats.shard_summary_entries, 0);
}

TEST(ShardCoordinated, ScheduleRecordingCanBeDisabled) {
  const core::Instance inst = broadcast_instance(20, 8, 2);
  sim::SimOptions options;
  options.record_schedule = false;
  const sim::RunResult reference = reference_run(inst, "bandwidth", options);
  const sim::RunResult result = run_with(inst, "bandwidth", 2, options);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_EQ(result.steps, reference.steps);
  EXPECT_EQ(result.bandwidth, reference.bandwidth);
  EXPECT_EQ(result.stats.completion_step, reference.stats.completion_step);
}

}  // namespace
}  // namespace ocd::shard
