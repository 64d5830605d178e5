// Component micro-benchmarks (google-benchmark): TokenSet kernels,
// topology generation, simplex pivoting, policy planning steps, and the
// validation/pruning passes that every figure pipeline leans on.
#include <benchmark/benchmark.h>

#include "ocd/core/bounds.hpp"
#include "ocd/core/compact.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/steiner.hpp"
#include "ocd/sim/gossip.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/exact/ip_builder.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/graph/algorithms.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/lp/simplex.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"
#include "ocd/util/parallel.hpp"
#include "ocd/util/simd.hpp"

#include <cstring>
#include <thread>

namespace {

using namespace ocd;
namespace simd = ocd::util::simd;

void BM_TokenSetUnion(benchmark::State& state) {
  const auto universe = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  TokenSet a(universe);
  TokenSet b(universe);
  for (std::size_t i = 0; i < universe / 3; ++i) {
    a.set(static_cast<TokenId>(rng.below(universe)));
    b.set(static_cast<TokenId>(rng.below(universe)));
  }
  for (auto _ : state) {
    TokenSet c = a;
    c |= b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TokenSetUnion)->Arg(64)->Arg(512)->Arg(4096);

void BM_TokenSetCount(benchmark::State& state) {
  const auto universe = static_cast<std::size_t>(state.range(0));
  TokenSet a = TokenSet::full(universe);
  for (auto _ : state) benchmark::DoNotOptimize(a.count());
}
BENCHMARK(BM_TokenSetCount)->Arg(512)->Arg(4096);

void BM_TokenSetForEach(benchmark::State& state) {
  const auto universe = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  TokenSet a(universe);
  for (std::size_t i = 0; i < universe / 4; ++i)
    a.set(static_cast<TokenId>(rng.below(universe)));
  for (auto _ : state) {
    std::int64_t sum = 0;
    a.for_each([&](TokenId t) { sum += t; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_TokenSetForEach)->Arg(512)->Arg(4096);

// Word-kernel micro-benchmarks, one family per (kernel, dispatch
// level), so a vectorization win (or regression) is attributable to a
// specific kernel instead of being smeared across a whole planner run.
// Inputs are sized by universe bits (state.range(0)); items/sec counts
// universe bits per call, so families are comparable across levels at
// the same size.  Subset/intersects/first run their worst case (full
// scan, no early exit); fresh-union runs the full four-array pass.
// Levels the host cannot run are skipped with a note instead of
// silently benchmarking the wrong code.
void BM_TokenKernel(benchmark::State& state, const char* kernel,
                    simd::Level level) {
  if (level > simd::max_supported_level()) {
    state.SkipWithError("simd level unsupported on this host");
    return;
  }
  simd::set_simd_level(level);
  const auto universe = static_cast<std::size_t>(state.range(0));
  Rng rng(31);
  TokenSet a(universe);
  TokenSet b(universe);
  for (std::size_t i = 0; i < universe / 2; ++i) {
    a.set(static_cast<TokenId>(rng.below(universe)));
    b.set(static_cast<TokenId>(rng.below(universe)));
  }
  TokenSet superset = a;
  superset |= b;
  TokenSet disjoint = TokenSet::full(universe);
  disjoint -= a;
  TokenSet dst = b;
  TokenSet uni(universe);
  TokenSet fresh(universe);
  std::int64_t sink = 0;
  if (std::strcmp(kernel, "count_intersection") == 0) {
    for (auto _ : state)
      sink += static_cast<std::int64_t>(TokenSet::count_intersection(a, b));
  } else if (std::strcmp(kernel, "first_in_intersection") == 0) {
    for (auto _ : state)
      sink += TokenSet::first_in_intersection(a, disjoint);  // full scan
  } else if (std::strcmp(kernel, "for_each_in_intersection") == 0) {
    for (auto _ : state) {
      TokenSet::for_each_in_intersection(a, b,
                                         [&](TokenId t) { sink += t; });
    }
  } else if (std::strcmp(kernel, "is_subset") == 0) {
    for (auto _ : state)
      sink += static_cast<std::int64_t>(a.is_subset_of(superset));
  } else if (std::strcmp(kernel, "intersects") == 0) {
    for (auto _ : state)
      sink += static_cast<std::int64_t>(a.intersects(disjoint));
  } else if (std::strcmp(kernel, "fresh_union_apply") == 0) {
    for (auto _ : state) {
      sink += static_cast<std::int64_t>(MutableTokenSetView::apply_fresh_union(
          dst, a, fresh));
    }
  } else if (std::strcmp(kernel, "fresh_union_apply_merge") == 0) {
    for (auto _ : state) {
      sink += static_cast<std::int64_t>(
          MutableTokenSetView::apply_fresh_union_merge(dst, uni, a, fresh));
    }
  } else {
    state.SkipWithError("unknown kernel");
  }
  benchmark::DoNotOptimize(sink);
  simd::clear_simd_level();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(universe));
}
#define OCD_TOKEN_KERNEL_BENCH(kernel)                                      \
  BENCHMARK_CAPTURE(BM_TokenKernel, kernel##_scalar, #kernel,               \
                    simd::Level::kScalar)                                   \
      ->Arg(512)                                                            \
      ->Arg(4096);                                                          \
  BENCHMARK_CAPTURE(BM_TokenKernel, kernel##_avx2, #kernel,                 \
                    simd::Level::kAvx2)                                     \
      ->Arg(512)                                                            \
      ->Arg(4096);                                                          \
  BENCHMARK_CAPTURE(BM_TokenKernel, kernel##_avx512, #kernel,               \
                    simd::Level::kAvx512)                                   \
      ->Arg(512)                                                            \
      ->Arg(4096)
OCD_TOKEN_KERNEL_BENCH(count_intersection);
OCD_TOKEN_KERNEL_BENCH(first_in_intersection);
OCD_TOKEN_KERNEL_BENCH(for_each_in_intersection);
OCD_TOKEN_KERNEL_BENCH(is_subset);
OCD_TOKEN_KERNEL_BENCH(intersects);
OCD_TOKEN_KERNEL_BENCH(fresh_union_apply);
OCD_TOKEN_KERNEL_BENCH(fresh_union_apply_merge);
#undef OCD_TOKEN_KERNEL_BENCH

void BM_RandomOverlay(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(topology::random_overlay(n, rng));
  }
}
BENCHMARK(BM_RandomOverlay)->Arg(50)->Arg(200)->Arg(500);

void BM_TransitStub(benchmark::State& state) {
  const auto opt =
      topology::transit_stub_options_for_size(static_cast<std::int32_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(topology::transit_stub(opt, rng));
  }
}
BENCHMARK(BM_TransitStub)->Arg(50)->Arg(200);

void BM_AllPairsDistances(benchmark::State& state) {
  Rng rng(3);
  const Digraph g =
      topology::random_overlay(static_cast<std::int32_t>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(all_pairs_distances(g));
}
BENCHMARK(BM_AllPairsDistances)->Arg(100)->Arg(300);

void BM_SimplexTransportation(benchmark::State& state) {
  // Random dense transportation LP: s suppliers x s consumers.
  const auto s = static_cast<std::int32_t>(state.range(0));
  Rng rng(7);
  lp::LinearProgram program;
  std::vector<std::vector<std::int32_t>> var(
      static_cast<std::size_t>(s),
      std::vector<std::int32_t>(static_cast<std::size_t>(s)));
  for (auto& row : var)
    for (auto& v : row)
      v = program.add_variable(0, lp::kInfinity,
                               1.0 + rng.uniform_real() * 9.0);
  for (std::int32_t i = 0; i < s; ++i) {
    std::vector<lp::Term> supply;
    std::vector<lp::Term> demand;
    for (std::int32_t j = 0; j < s; ++j) {
      supply.push_back({var[static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(j)],
                        1.0});
      demand.push_back({var[static_cast<std::size_t>(j)]
                           [static_cast<std::size_t>(i)],
                        1.0});
    }
    program.add_constraint(std::move(supply), lp::Relation::kLessEqual, 10);
    program.add_constraint(std::move(demand), lp::Relation::kGreaterEqual, 5);
  }
  for (auto _ : state) benchmark::DoNotOptimize(lp::solve_lp(program));
}
BENCHMARK(BM_SimplexTransportation)->Arg(5)->Arg(10)->Arg(20);

void BM_IpBuildFigure1(benchmark::State& state) {
  const auto inst = core::figure1_instance();
  for (auto _ : state) {
    exact::TimeIndexedIp ip(inst, 3);
    benchmark::DoNotOptimize(ip.program().num_variables());
  }
}
BENCHMARK(BM_IpBuildFigure1);

void BM_PolicyFullRun(benchmark::State& state, const char* name) {
  Rng rng(11);
  Digraph g = topology::random_overlay(60, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 32, 0);
  for (auto _ : state) {
    auto policy = heuristics::make_policy(name);
    sim::SimOptions options;
    options.seed = 5;
    options.record_schedule = false;
    benchmark::DoNotOptimize(sim::run(inst, *policy, options));
  }
}
BENCHMARK_CAPTURE(BM_PolicyFullRun, round_robin, "round-robin");
BENCHMARK_CAPTURE(BM_PolicyFullRun, random, "random");
BENCHMARK_CAPTURE(BM_PolicyFullRun, local, "local");
BENCHMARK_CAPTURE(BM_PolicyFullRun, bandwidth, "bandwidth");
BENCHMARK_CAPTURE(BM_PolicyFullRun, global, "global");

// Simulator hot-loop throughput (steps/sec) on a large random instance.
// The policy runs a bounded window of steps per iteration so the figure
// isolates per-step cost rather than time-to-completion.  The ISSUE-1
// target: >= 3x steps/sec on 1000 vertices x 512 tokens with a
// local-only policy versus the seed implementation.
void BM_SimulatorStepsPerSec(benchmark::State& state, const char* name,
                             std::int32_t staleness) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto tokens = static_cast<std::int32_t>(state.range(1));
  Rng rng(29);
  Digraph g = topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), tokens, 0);
  auto policy = heuristics::make_policy(name);
  sim::SimOptions options;
  options.seed = 7;
  options.record_schedule = false;
  options.staleness = staleness;
  options.max_steps = 24;  // bounded window: measures steps, not runs
  std::int64_t steps = 0;
  for (auto _ : state) {
    const auto result = sim::run(inst, *policy, options);
    steps += result.steps;
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetItemsProcessed(steps);  // items/sec == simulated steps/sec
}
BENCHMARK_CAPTURE(BM_SimulatorStepsPerSec, round_robin, "round-robin", 0)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorStepsPerSec, local, "local", 0)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorStepsPerSec, random_stale4, "random", 4)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->Unit(benchmark::kMillisecond);

// Per-policy planning throughput (steps/sec) on a fixed workload.  A
// bounded window of steps per iteration isolates plan_step cost; the
// 1000v x 512t point is the planner acceptance workload (>= 5x for
// `global` vs the pre-kernel planner).  A run is single-threaded, so
// the numbers do not depend on OCD_JOBS.  reproduce_all.sh snapshots
// these series to BENCH_planner.json so scripts/compare_bench.py can
// flag regressions across changes; per-step plan time is
// 1 / items_per_sec.  Rows are timed in real time over at least 2 s:
// under the default 0.5 s minimum the ~0.5-1.3 s iterations at
// 1000v x 512t ran once or twice, and back-to-back runs of `global`
// differed by ~50%.  The `_sparse` rows run fig_shard's instance
// (sparse_random_overlay(n, 8.0) from its graph seed, 8 tokens at
// vertex 0): the few-token regime, where `global`'s duplication cap
// relaxes every few grants.
void BM_PlannerStepsPerSec(benchmark::State& state, const char* name,
                           bool sparse) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto tokens = static_cast<std::int32_t>(state.range(1));
  Rng rng(sparse ? 0x5a4d'0001 : 29);
  Digraph g = sparse ? topology::sparse_random_overlay(n, 8.0, rng)
                     : topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), tokens, 0);
  auto policy = heuristics::make_policy(name);
  sim::SimOptions options;
  options.seed = 7;
  options.record_schedule = false;
  options.max_steps = 24;  // bounded window: measures steps, not runs
  sim::Simulator simulator;  // arena reused across iterations (steady state)
  std::int64_t steps = 0;
  for (auto _ : state) {
    const auto result = simulator.run(inst, *policy, options);
    steps += result.steps;
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetItemsProcessed(steps);  // items/sec == planned steps/sec
}
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, global, "global", false)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, local, "local", false)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, random, "random", false)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, round_robin, "round-robin", false)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, bandwidth, "bandwidth", false)
    ->Args({200, 128})
    ->Args({1000, 512})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, global_sparse, "global", true)
    ->Args({20000, 8})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, local_sparse, "local", true)
    ->Args({20000, 8})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, random_sparse, "random", true)
    ->Args({20000, 8})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, round_robin_sparse, "round-robin",
                  true)
    ->Args({20000, 8})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlannerStepsPerSec, bandwidth_sparse, "bandwidth", true)
    ->Args({20000, 8})
    ->MinTime(2.0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fault path: the same bounded-window workload with 20% uniform loss
// and the reliable-transfer adapter in the loop, so the snapshot in
// BENCH_planner.json also guards the lossy apply phase and the
// adapter's ack/retransmit bookkeeping.
void BM_PlannerStepsPerSecLossy(benchmark::State& state, const char* name) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto tokens = static_cast<std::int32_t>(state.range(1));
  Rng rng(29);
  Digraph g = topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), tokens, 0);
  std::int64_t steps = 0;
  for (auto _ : state) {
    faults::UniformLoss loss(0.2);
    auto policy = heuristics::make_policy(name);
    sim::SimOptions options;
    options.seed = 7;
    options.record_schedule = false;
    options.faults = &loss;
    options.max_steps = 24;  // bounded window: measures steps, not runs
    const auto result = sim::run(inst, *policy, options);
    steps += result.steps;
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK_CAPTURE(BM_PlannerStepsPerSecLossy, random_reliable,
                  "random+reliable")
    ->Args({200, 128})
    ->Args({1000, 512})
    ->Unit(benchmark::kMillisecond);

// Sharded-runtime per-step cost: the same bounded-window workload as
// BM_PlannerStepsPerSec, run through shard::run_sharded with the
// in-process transport, so the snapshot prices the barrier protocol
// (plan / apply / commit rounds + BinStream codec) against the
// single-process planner at matched shard counts.  shards:1 isolates
// the protocol's fixed overhead; shards:2/4 add the cross-shard
// delivery traffic.  Outputs are bit-identical at every shard count,
// only the wall clock may move.  Real time, not main-thread CPU time:
// the in-process shards run partly on pool workers, whose CPU time the
// main thread's clock misses, so CPU time would overstate shard wins.
void BM_ShardStep(benchmark::State& state, const char* name) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto tokens = static_cast<std::int32_t>(state.range(1));
  const auto shards = static_cast<std::int32_t>(state.range(2));
  Rng rng(29);
  Digraph g = topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), tokens, 0);
  shard::ShardOptions options;
  options.num_shards = shards;
  options.sim.seed = 7;
  options.sim.record_schedule = false;
  options.sim.max_steps = 24;  // bounded window: measures steps, not runs
  std::int64_t steps = 0;
  for (auto _ : state) {
    const auto result = shard::run_sharded(inst, name, options);
    steps += result.steps;
    benchmark::DoNotOptimize(result.bandwidth);
  }
  state.SetItemsProcessed(steps);  // items/sec == simulated steps/sec
}
BENCHMARK_CAPTURE(BM_ShardStep, round_robin, "round-robin")
    ->ArgNames({"", "", "shards"})
    ->Args({1000, 512, 1})
    ->Args({1000, 512, 2})
    ->Args({1000, 512, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardStep, local, "local")
    ->ArgNames({"", "", "shards"})
    ->Args({1000, 512, 1})
    ->Args({1000, 512, 2})
    ->Args({1000, 512, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
// Coordinated planning: shards > 1 adds the wave round (token-sliced
// relay elections) on top of full possession replication.
BENCHMARK_CAPTURE(BM_ShardStep, bandwidth, "bandwidth")
    ->ArgNames({"", "", "shards"})
    ->Args({1000, 512, 1})
    ->Args({1000, 512, 2})
    ->Args({1000, 512, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Partitioner cost at both refinement tiers on the paper's structured
// topology.  "k" (not "shards") in the arg name on purpose: the
// undersized-host waiver keys on /shards:N and /threads:N, and the
// partitioner is single-threaded — its numbers are valid on any host.
// items/sec == arcs scanned/sec; the cut quality each tier buys at
// these shard counts is recorded by bench/fig_shard.
void BM_Partition(benchmark::State& state, bool flow_refine) {
  const auto shards = static_cast<std::int32_t>(state.range(0));
  Rng rng(41);
  const Digraph g = topology::transit_stub(
      topology::transit_stub_options_for_size(2'000), rng);
  shard::PartitionOptions options;
  options.num_shards = shards;
  options.balance_eps = 5;
  options.flow_refine = flow_refine;
  std::int64_t cut = 0;
  for (auto _ : state) {
    const shard::Partition part = shard::partition_vertices(g, options);
    cut = part.stats.cut_arcs;
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
  state.counters["cut_arcs"] = static_cast<double>(cut);
}
BENCHMARK_CAPTURE(BM_Partition, greedy, false)
    ->ArgNames({"k"})
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partition, flow, true)
    ->ArgNames({"k"})
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The §5.1 makespan bound every pipeline pass ends in (ocd_cli, the
// examples, the B&B and IP horizon starts): a dense 1000-vertex overlay
// with 512 tokens, and fig_shard's sparse 20k-vertex overlay with 8.
void BM_MakespanLowerBound(benchmark::State& state, bool sparse) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto tokens = static_cast<std::int32_t>(state.range(1));
  Rng rng(29);
  Digraph g = sparse ? topology::sparse_random_overlay(n, 8.0, rng)
                     : topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), tokens, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::makespan_lower_bound(inst));
}
BENCHMARK_CAPTURE(BM_MakespanLowerBound, dense, false)
    ->Args({1000, 512})
    ->MinTime(0.5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakespanLowerBound, sparse, true)
    ->Args({20000, 8})
    ->MinTime(0.5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ValidateAndPrune(benchmark::State& state) {
  Rng rng(13);
  Digraph g = topology::random_overlay(60, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 32, 0);
  auto policy = heuristics::make_policy("random");
  const auto run = sim::run(inst, *policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::validate(inst, run.schedule));
    benchmark::DoNotOptimize(core::prune(inst, run.schedule));
  }
}
BENCHMARK(BM_ValidateAndPrune);

void BM_GossipAdvance(benchmark::State& state) {
  Rng rng(17);
  const auto n = static_cast<std::int32_t>(state.range(0));
  Digraph g = topology::random_overlay(n, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 32, 0);
  sim::GossipState gossip(inst);
  std::vector<TokenSet> possession;
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession.push_back(inst.have(v));
  std::int64_t step = 0;
  for (auto _ : state) gossip.advance(possession, step++);
}
BENCHMARK(BM_GossipAdvance)->Arg(30)->Arg(100);

void BM_CompactSchedule(benchmark::State& state) {
  Rng rng(19);
  Digraph g = topology::random_overlay(50, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 24, 0);
  auto policy = heuristics::make_policy("local");
  const auto run = sim::run(inst, *policy);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::compact_schedule(inst, run.schedule));
}
BENCHMARK(BM_CompactSchedule);

void BM_SteinerPacking(benchmark::State& state) {
  Rng rng(23);
  Digraph g = topology::random_overlay(60, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 24, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::steiner_packing_schedule(inst));
}
BENCHMARK(BM_SteinerPacking);

}  // namespace

// The stock "library_build_type" context field describes how the
// google-benchmark *library* was compiled (the distro package ships a
// debug build), not how this code was.  Record the flavor that actually
// matters for snapshot hygiene — whether the ocd library and these
// benchmarks were built with NDEBUG — so scripts/compare_bench.py can
// refuse genuinely-debug captures without tripping on the packaging.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("ocd_build_type", "release");
#else
  benchmark::AddCustomContext("ocd_build_type", "debug");
#endif
  // The stock "num_cpus" context reports what the benchmark *library*
  // saw at its build/run; record what this process observes so
  // scripts/compare_bench.py can refuse /shards:N gates against
  // snapshots captured on hosts with fewer than N cores ("parity" on a
  // single-core box says nothing about contention).
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  // The worker budget these benchmarks actually ran under (OCD_JOBS
  // when set, hardware concurrency otherwise) — /shards:N rows step
  // all N shards on this pool, so a snapshot captured under a clamped
  // budget must say so.
  benchmark::AddCustomContext("ocd_jobs",
                              std::to_string(util::parallel_jobs()));
  benchmark::AddCustomContext(
      "ocd_simd", simd::level_name(simd::active_level()));
  benchmark::AddCustomContext(
      "ocd_simd_max", simd::level_name(simd::max_supported_level()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
