// Vertex-sharded scaling sweep: the same broadcast instance run once
// through sim::run and then through shard::run_sharded at shards x
// {1, 2, 4} over both planner families (local "round-robin",
// coordinated "bandwidth"), each shard owning a contiguous chunk of
// vertex ids.  Shards share memory: run_sharded is sim::run with the
// plan phase fanned out over the shards on the OCD_JOBS worker pool, so
// the sim::run row is the one-process baseline each sharded row's run_s
// is read against (ROADMAP item 8's decision rule).  Every row of a
// policy, the sim::run row included, must report the same trajectory
// (bit-identity across shard counts), and the full-scale instance — a
// million-vertex sparse overlay that would be impractical under the
// O(n^2) generator — completes at 4 shards.
// Rows are emitted in a fixed (policy, shards) loop order, so the output
// is diff-stable across runs.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/topology/random_graph.hpp"

int main(int argc, char** argv) {
  using namespace ocd;
  const bool csv = bench::csv_requested(argc, argv);
  const bool full = bench::full_scale();
  bench::print_header("fig_shard",
                      "vertex-sharded runtime: scaling + bit-identity "
                      "across shard counts and planners");

  const std::int32_t n = full ? 1'000'000 : 20'000;
  const std::int32_t num_tokens = 8;
  const double expected_degree = 8.0;

  Stopwatch build_timer;
  Rng graph_rng(0x5a4d'0001);
  Digraph base = topology::sparse_random_overlay(n, expected_degree,
                                                 graph_rng);
  const auto inst =
      core::single_source_all_receivers(std::move(base), num_tokens, 0);
  std::cout << "# instance: " << n << " vertices, "
            << inst.graph().num_arcs() << " arcs, " << num_tokens
            << " tokens, built in " << build_timer.seconds() << " s\n";

  const char* policies[] = {"round-robin", "bandwidth"};

  Table table(
      {"policy", "part", "shards", "success", "steps", "bandwidth", "run_s"});
  table.set_precision(3);

  sim::SimOptions sim_options;
  sim_options.seed = 7;
  sim_options.record_schedule = false;
  sim_options.max_steps = 500'000;

  bool identical = true;
  for (const char* policy : policies) {
    // Bit-identity is per policy: every row of one planner, sharded or
    // not, must report the same trajectory as its sim::run row.
    Stopwatch reference_timer;
    const auto reference =
        sim::run(inst, *heuristics::make_policy(policy), sim_options);
    const double reference_seconds = reference_timer.seconds();
    table.add_row({std::string(policy), std::string("sim::run"),
                   std::int64_t{1},
                   std::string(reference.success ? "yes" : "no"),
                   reference.steps, reference.bandwidth, reference_seconds});

    for (const std::int32_t shards : {1, 2, 4}) {
      shard::ShardOptions options;
      options.num_shards = shards;
      options.sim = sim_options;
      Stopwatch run_timer;
      const auto result = shard::run_sharded(inst, policy, options);
      const double run_seconds = run_timer.seconds();

      if (result.steps != reference.steps ||
          result.bandwidth != reference.bandwidth ||
          result.stats.moves_per_step != reference.stats.moves_per_step)
        identical = false;
      table.add_row({std::string(policy), std::string("chunks"), shards,
                     std::string(result.success ? "yes" : "no"),
                     result.steps, result.bandwidth, run_seconds});
    }
  }

  bench::emit(table, csv);

  std::cout << "# bit-identity across rows (per policy): "
            << (identical ? "yes" : "NO — INVARIANT VIOLATED") << '\n'
            << "# expected: steps/bandwidth/moves per step identical on\n"
               "# every row of a policy (the sim::run row included —\n"
               "# sharding only moves who plans a vertex).\n";
  return identical ? 0 : 1;
}
