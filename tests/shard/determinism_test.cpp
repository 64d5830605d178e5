// Shard-count invariance: the vertex-sharded runtime must reproduce
// sim::run bit-for-bit — schedules, step counts, loss traces, per-vertex
// completion and upload series — for every supported policy, every shard
// count in {1, 2, 3, 4}, contiguous, striped and seeded random
// ownership maps, every fault model, and any OCD_JOBS budget.  This is
// the contract that makes sharding an execution detail instead of a
// semantics change.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/util/parallel.hpp"
#include "ownership_maps.hpp"

namespace ocd::shard {
namespace {

constexpr std::int32_t kShardCounts[] = {1, 2, 3, 4};
constexpr const char* kPolicies[] = {"round-robin", "random", "local"};

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

void expect_schedules_identical(const core::Schedule& a,
                                const core::Schedule& b,
                                const std::string& label) {
  ASSERT_EQ(a.length(), b.length()) << label;
  for (std::size_t s = 0; s < a.steps().size(); ++s) {
    const auto& sa = a.steps()[s].sends();
    const auto& sb = b.steps()[s].sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
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
  expect_schedules_identical(sharded.schedule, reference.schedule, label);
}

sim::RunResult reference_run(const core::Instance& inst,
                             const char* policy_name,
                             const sim::SimOptions& options) {
  const sim::PolicyPtr policy = heuristics::make_policy(policy_name);
  return sim::run(inst, *policy, options);
}

TEST(ShardDeterminism, MatchesSingleProcessForEveryShardCount) {
  for (const auto& make_inst :
       {std::function<core::Instance()>(
            [] { return broadcast_instance(40, 24, 7); }),
        std::function<core::Instance()>(
            [] { return scattered_instance(30, 12, 11); })}) {
    const core::Instance inst = make_inst();
    for (const char* policy_name : kPolicies) {
      sim::SimOptions options;
      options.max_steps = 400;
      options.seed = 99;
      const sim::RunResult reference =
          reference_run(inst, policy_name, options);
      for (std::int32_t shards : kShardCounts) {
        ShardOptions sharded;
        sharded.num_shards = shards;
        sharded.sim = options;
        const sim::RunResult result =
            run_sharded(inst, policy_name, sharded);
        expect_same_run(result, reference,
                        std::string(policy_name) + " shards=" +
                            std::to_string(shards));
      }
      for (const auto& [label, partition] :
           irregular_partitions(inst.num_vertices())) {
        ShardOptions sharded;
        sharded.num_shards = partition.num_shards;
        sharded.sim = options;
        const sim::RunResult result =
            run_sharded(inst, policy_name, sharded, partition);
        expect_same_run(result, reference,
                        std::string(policy_name) + " " + label);
      }
    }
  }
}

TEST(ShardDeterminism, MatchesSingleProcessUnderFaults) {
  const core::Instance inst = broadcast_instance(32, 16, 13);

  struct FaultCase {
    const char* label;
    std::function<std::unique_ptr<faults::FaultModel>()> make;
  };
  const std::vector<FaultCase> cases = {
      {"uniform",
       [] { return std::make_unique<faults::UniformLoss>(0.3); }},
      {"gilbert-elliott",
       [] {
         return std::make_unique<faults::GilbertElliott>(0.15, 0.4, 0.6);
       }},
      {"plan", [] {
         auto plan = std::make_unique<faults::FaultPlan>();
         for (std::int64_t step = 0; step < 12; ++step)
           plan->drop(step, static_cast<ArcId>(step % 5),
                      static_cast<TokenId>(step % 16));
         return plan;
       }}};

  for (const char* policy_name : kPolicies) {
    for (const FaultCase& c : cases) {
      sim::SimOptions options;
      options.max_steps = 400;
      options.seed = 5;
      const auto reference_model = c.make();
      options.faults = reference_model.get();
      const sim::RunResult reference =
          reference_run(inst, policy_name, options);
      ASSERT_GT(reference.stats.lost_moves, 0) << c.label;
      for (std::int32_t shards : kShardCounts) {
        const auto sharded_model = c.make();
        ShardOptions sharded;
        sharded.num_shards = shards;
        sharded.sim = options;
        sharded.sim.faults = sharded_model.get();
        const sim::RunResult result =
            run_sharded(inst, policy_name, sharded);
        expect_same_run(result, reference,
                        std::string(policy_name) + "/" + c.label +
                            " shards=" + std::to_string(shards));
      }
      for (const auto& [label, partition] :
           irregular_partitions(inst.num_vertices())) {
        const auto sharded_model = c.make();
        ShardOptions sharded;
        sharded.num_shards = partition.num_shards;
        sharded.sim = options;
        sharded.sim.faults = sharded_model.get();
        const sim::RunResult result =
            run_sharded(inst, policy_name, sharded, partition);
        expect_same_run(result, reference,
                        std::string(policy_name) + "/" + c.label + " " +
                            label);
      }
    }
  }
}

TEST(ShardDeterminism, InvariantUnderWorkerBudget) {
  const core::Instance inst = broadcast_instance(36, 20, 3);
  sim::SimOptions options;
  options.max_steps = 400;
  for (const char* policy_name :
       {"round-robin", "random", "local", "bandwidth"}) {
    const sim::RunResult reference =
        reference_run(inst, policy_name, options);
    for (const unsigned jobs : {1u, 2u, 8u}) {
      util::set_parallel_jobs(jobs);
      ShardOptions sharded;
      sharded.num_shards = 4;
      sharded.sim = options;
      const sim::RunResult result = run_sharded(inst, policy_name, sharded);
      expect_same_run(result, reference,
                      std::string(policy_name) +
                          " jobs=" + std::to_string(jobs));
    }
  }
  util::set_parallel_jobs(0);  // restore the environment default
}

TEST(ShardDeterminism, StalledPolicyTerminatesIdentically) {
  // A disconnected receiver can never be satisfied; round-robin keeps
  // sending (watchdog off, no faults), but an instance where nobody has
  // anything to send stalls immediately.
  Digraph g(4);
  g.add_arc(0, 1, 2);
  g.add_arc(1, 0, 2);
  g.add_arc(2, 3, 2);
  g.add_arc(3, 2, 2);
  g.finalize();
  core::Instance inst(std::move(g), 4);
  // Nobody possesses anything; everyone wants token 0 => instant stall.
  for (VertexId v = 0; v < 4; ++v)
    inst.set_want(v, TokenSet::of(4, {0}));
  sim::SimOptions options;
  options.max_steps = 50;
  const sim::RunResult reference = reference_run(inst, "round-robin", options);
  ASSERT_EQ(reference.termination, sim::Termination::kPolicyStalled);
  for (std::int32_t shards : {1, 2, 4}) {
    ShardOptions sharded;
    sharded.num_shards = shards;
    sharded.sim = options;
    const sim::RunResult result = run_sharded(inst, "round-robin", sharded);
    expect_same_run(result, reference,
                    "stall shards=" + std::to_string(shards));
  }
}

TEST(ShardDeterminism, MaxStepsCutoffIdentical) {
  const core::Instance inst = broadcast_instance(24, 32, 21);
  sim::SimOptions options;
  options.max_steps = 3;  // guaranteed not enough
  const sim::RunResult reference = reference_run(inst, "local", options);
  ASSERT_EQ(reference.termination, sim::Termination::kMaxSteps);
  for (std::int32_t shards : kShardCounts) {
    ShardOptions sharded;
    sharded.num_shards = shards;
    sharded.sim = options;
    const sim::RunResult result = run_sharded(inst, "local", sharded);
    expect_same_run(result, reference,
                    "cutoff shards=" + std::to_string(shards));
  }
}

TEST(ShardDeterminism, ScheduleRecordingCanBeDisabled) {
  const core::Instance inst = broadcast_instance(20, 8, 2);
  sim::SimOptions options;
  options.record_schedule = false;
  const sim::RunResult reference =
      reference_run(inst, "round-robin", options);
  ShardOptions sharded;
  sharded.num_shards = 2;
  sharded.sim = options;
  const sim::RunResult result = run_sharded(inst, "round-robin", sharded);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_EQ(result.steps, reference.steps);
  EXPECT_EQ(result.bandwidth, reference.bandwidth);
  EXPECT_EQ(result.stats.completion_step, reference.stats.completion_step);
}

// ---- envelope ------------------------------------------------------

TEST(ShardDeterminism, RefusesOptionsOutsideTheEnvelope) {
  const core::Instance inst = broadcast_instance(10, 4, 1);
  const auto expect_refused = [&](ShardOptions options,
                                  const char* policy_name,
                                  const char* label) {
    EXPECT_THROW(run_sharded(inst, policy_name, options), Error) << label;
  };

  ShardOptions base;
  base.num_shards = 2;

  ShardOptions stale = base;
  stale.sim.staleness = 2;
  expect_refused(stale, "random", "staleness");

  ShardOptions stale_agg = base;
  stale_agg.sim.stale_aggregates = true;
  expect_refused(stale_agg, "local", "stale_aggregates");

  dynamics::CapacityJitter jitter(0.5, 0);
  ShardOptions dyn = base;
  dyn.sim.dynamics = &jitter;
  expect_refused(dyn, "round-robin", "dynamics");

  ShardOptions completion = base;
  completion.sim.completion = [](VertexId, TokenSetView) { return true; };
  expect_refused(completion, "round-robin", "completion override");

  expect_refused(base, "random+reliable", "adapter wrapper");

  ShardOptions negative = base;
  negative.sim.max_steps = -1;
  expect_refused(negative, "round-robin", "negative max_steps");

  ShardOptions too_many = base;
  too_many.num_shards = 100;  // > num_vertices
  expect_refused(too_many, "round-robin", "more shards than vertices");

  // "global" is refused at every shard count, pointing at sim::run.  The
  // planner check runs before partitioning, so it also beats the
  // vertex-count check at 100 shards.
  for (const std::int32_t shards : {1, 2, 100}) {
    ShardOptions global = base;
    global.num_shards = shards;
    try {
      (void)run_sharded(inst, "global", global);
      ADD_FAILURE() << "global at " << shards << " shards was not refused";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sim::run"), std::string::npos)
          << shards << " shards: " << e.what();
    }
  }
}

TEST(ShardDeterminism, RefusesAShardCountBelowOne) {
  // Refused by both overloads before any work, with its own message: a
  // precomputed partition's shard-count mismatch must not be what
  // reports it.
  const core::Instance inst = broadcast_instance(10, 4, 1);
  const Partition partition = partition_vertices(inst.graph(), 2);
  for (const std::int32_t shards : {0, -1}) {
    ShardOptions options;
    options.num_shards = shards;
    const auto expect_refused = [&](auto&& run, const char* label) {
      try {
        (void)run();
        ADD_FAILURE() << label << " at " << shards << " was not refused";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("num_shards must be >= 1"),
                  std::string::npos)
            << label << ": " << e.what();
      }
    };
    expect_refused([&] { return run_sharded(inst, "local", options); },
                   "partitioning overload");
    expect_refused(
        [&] { return run_sharded(inst, "local", options, partition); },
        "precomputed partition");
  }
}

// balance_eps is a leftover of the deleted balance slack: -1 and 0 (the
// exact band) run as before, anything else is refused by both
// overloads — by the partitioning one before it partitions.
TEST(ShardDeterminism, RefusesANonzeroBalanceEpsBeforePartitioning) {
  const core::Instance inst = broadcast_instance(40, 24, 7);
  sim::SimOptions sim_options;
  sim_options.max_steps = 400;
  sim_options.seed = 99;
  const sim::RunResult reference = reference_run(inst, "local", sim_options);
  ShardOptions options;
  options.num_shards = 4;
  options.sim = sim_options;
  for (const std::int32_t eps : {-1, 0}) {
    options.balance_eps = eps;
    expect_same_run(run_sharded(inst, "local", options), reference,
                    "eps=" + std::to_string(eps));
  }

  const auto expect_refused = [&](auto&& run, const char* label) {
    try {
      (void)run();
      ADD_FAILURE() << label << " was not refused";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("balance_eps"), std::string::npos)
          << label << ": " << e.what();
    }
  };
  options.balance_eps = 10;
  // 100 shards would fail the vertex-count check while partitioning;
  // the balance_eps refusal must come first.
  options.num_shards = 100;
  expect_refused([&] { return run_sharded(inst, "local", options); },
                 "balance_eps=10");
  options.num_shards = 4;
  const Partition partition = partition_vertices(inst.graph(), 4);
  expect_refused(
      [&] { return run_sharded(inst, "local", options, partition); },
      "balance_eps=10 with a precomputed partition");
}

// ---- partition reuse ------------------------------------------------

TEST(ShardDeterminism, AcceptsPrecomputedPartition) {
  const core::Instance inst = broadcast_instance(24, 8, 17);
  const Partition partition = partition_vertices(inst.graph(), 4);
  ShardOptions options;
  options.num_shards = 4;
  const sim::RunResult with_partition =
      run_sharded(inst, "round-robin", options, partition);
  const sim::RunResult without = run_sharded(inst, "round-robin", options);
  expect_same_run(with_partition, without, "precomputed partition");

  ShardOptions mismatched;
  mismatched.num_shards = 2;
  EXPECT_THROW(run_sharded(inst, "round-robin", mismatched, partition),
               Error);

  // shard_of is the one record of ownership; a map that does not give
  // every vertex a shard in [0, num_shards) is refused before the run.
  const auto expect_refused = [&](const Partition& bad, const char* label) {
    try {
      (void)run_sharded(inst, "round-robin", options, bad);
      ADD_FAILURE() << label << " was not refused";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("shard_of"), std::string::npos)
          << label << ": " << e.what();
    }
  };
  Partition short_map = partition;
  short_map.shard_of.pop_back();
  expect_refused(short_map, "shard_of shorter than the vertex count");
  Partition negative = partition;
  negative.shard_of[5] = -1;
  expect_refused(negative, "shard_of value -1");
  Partition past_end = partition;
  past_end.shard_of[5] = 4;
  expect_refused(past_end, "shard_of value num_shards");
}

}  // namespace
}  // namespace ocd::shard
