// Vertex-sharded scaling sweep: the same broadcast instance run once
// through sim::run and then through shard::run_sharded at shards x
// {1, 2, 4} over both planner families (local "round-robin",
// coordinated "bandwidth"), with the partitioner's cut statistics
// alongside the run metrics.  Shards share memory: run_sharded is
// sim::run with the plan phase fanned out over the shards on the
// OCD_JOBS worker pool, so the sim::run row is the one-process baseline
// each sharded row's run_s is read against (ROADMAP item 8's decision
// rule).  Every row of a policy, the sim::run row included, must report
// the same trajectory (bit-identity across shard counts and
// partitions), and the full-scale instance — a million-vertex sparse
// overlay that would be impractical under the O(n^2) generator —
// completes at 4 shards.
// Rows are emitted in a fixed (policy, shards) loop order, so the output
// is diff-stable across runs.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

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

  Table table({"policy", "part", "shards", "cut_arcs", "cut_pct", "imb_pct",
               "success", "steps", "bandwidth", "part_ms", "run_s"});
  table.set_precision(3);

  // Partition variants per shard count: the default greedy partition at
  // every count, plus the flow-refined eps=5 partition at the largest —
  // the greedy-vs-flow comparison rows.  The flow rows join the same
  // bit-identity check: a partition may only move ownership, never the
  // schedule.
  struct PartitionCase {
    std::int32_t shards;
    bool flow;
  };
  const std::vector<PartitionCase> partition_cases = {
      {1, false}, {2, false}, {4, false}, {4, true}};
  constexpr std::int32_t kFlowEps = 5;
  // The head-to-head section runs at a wider slack: transit-stub
  // separators sit off-center, so the band needs room before the min
  // cut's reassignment is adoptable at every shard count.
  constexpr std::int32_t kCompareEps = 10;

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
                   std::int64_t{1}, std::int64_t{0}, 0.0, 0.0,
                   std::string(reference.success ? "yes" : "no"),
                   reference.steps, reference.bandwidth, 0.0,
                   reference_seconds});

    for (const PartitionCase& pc : partition_cases) {
      const std::int32_t shards = pc.shards;
      shard::PartitionOptions part_options;
      part_options.num_shards = shards;
      part_options.balance_eps = pc.flow ? kFlowEps : 0;
      part_options.flow_refine = pc.flow;
      Stopwatch part_timer;
      const shard::Partition part =
          shard::partition_vertices(inst.graph(), part_options);
      const double part_seconds = part_timer.seconds();

      shard::ShardOptions options;
      options.num_shards = shards;
      options.sim = sim_options;
      Stopwatch run_timer;
      const auto result = shard::run_sharded(inst, policy, options, part);
      const double run_seconds = run_timer.seconds();

      if (result.steps != reference.steps ||
          result.bandwidth != reference.bandwidth ||
          result.stats.moves_per_step != reference.stats.moves_per_step)
        identical = false;
      // Achieved imbalance: largest ownership class over the perfect
      // n/k average, in percent (0 = perfectly balanced).
      const double imb_pct =
          100.0 * (static_cast<double>(part.stats.max_owned) *
                       static_cast<double>(shards) /
                       static_cast<double>(n) -
                   1.0);
      table.add_row({std::string(policy),
                     std::string(pc.flow ? "flow" : "greedy"), shards,
                     part.stats.cut_arcs,
                     100.0 * part.stats.cut_fraction(), imb_pct,
                     std::string(result.success ? "yes" : "no"),
                     result.steps, result.bandwidth, 1000.0 * part_seconds,
                     run_seconds});
    }
  }

  bench::emit(table, csv);

  // Partitioner refinement depth: the runtime's default single sweep vs
  // a deeper budget, on the same overlay.  Shards share memory, so a
  // smaller cut saves no traffic; these lines record partition quality
  // only, for the question whether the refinement stages earn their
  // partitioning time in run_s.  Reported at shard counts that
  // do not divide n: the balance bounds give refinement exactly
  // ceil(n/k) - floor(n/k) vertices of slack per shard, so when k | n
  // the bounds pin every class size and no sweep can move anything —
  // the sweep loop is only exercised where slack exists.
  std::cout << "# multi-sweep refinement (cut arcs, sweeps=1 -> sweeps=8):\n";
  for (const std::int32_t shards : {3, 7}) {
    const shard::Partition one =
        shard::partition_vertices(inst.graph(), shards, 1);
    const shard::Partition deep =
        shard::partition_vertices(inst.graph(), shards, 8);
    const double reduction =
        one.stats.cut_arcs == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(one.stats.cut_arcs -
                                      deep.stats.cut_arcs) /
                  static_cast<double>(one.stats.cut_arcs);
    std::cout << "#   shards=" << shards << ": " << one.stats.cut_arcs
              << " -> " << deep.stats.cut_arcs << " (-" << reduction
              << "%)\n";
  }

  // Greedy vs flow-refined partitions on the paper's structured
  // topology: transit-stub graphs have genuinely small separators (the
  // stub-transit attachment edges), which local greedy moves cannot
  // reach but a min cut finds.  The cut reduction prices no traffic
  // (shards share memory); it is reported next to the extra
  // partitioning time the flow stage costs.
  std::cout << "# greedy vs flow partitions, transit-stub overlay (eps="
            << kCompareEps << "):\n";
  {
    Rng ts_rng(0x5a4d'0002);
    const Digraph ts = topology::transit_stub(
        topology::transit_stub_options_for_size(20'000), ts_rng);
    std::cout << "#   (" << ts.num_vertices() << " vertices, "
              << ts.num_arcs() << " arcs)\n";
    for (const std::int32_t shards : {3, 4, 7}) {
      shard::PartitionOptions greedy_options;
      greedy_options.num_shards = shards;
      greedy_options.balance_eps = kCompareEps;
      Stopwatch greedy_timer;
      const shard::Partition greedy =
          shard::partition_vertices(ts, greedy_options);
      const double greedy_ms = 1000.0 * greedy_timer.seconds();
      shard::PartitionOptions flow_options = greedy_options;
      flow_options.flow_refine = true;
      Stopwatch flow_timer;
      const shard::Partition flow = shard::partition_vertices(ts,
                                                              flow_options);
      const double flow_ms = 1000.0 * flow_timer.seconds();
      const double reduction =
          greedy.stats.cut_arcs == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(greedy.stats.cut_arcs -
                                        flow.stats.cut_arcs) /
                    static_cast<double>(greedy.stats.cut_arcs);
      std::cout << "#   shards=" << shards << ": " << greedy.stats.cut_arcs
                << " -> " << flow.stats.cut_arcs << " cut arcs (-"
                << reduction << "%), " << greedy_ms << " -> " << flow_ms
                << " ms\n";
    }
  }

  std::cout << "# bit-identity across rows (per policy): "
            << (identical ? "yes" : "NO — INVARIANT VIOLATED") << '\n'
            << "# expected: steps/bandwidth/moves per step identical on\n"
               "# every row of a policy (the sim::run row and flow-refined\n"
               "# rows included — partitioning only moves ownership); the\n"
               "# cut fraction stays well below the ~"
            << 100.0 * (1.0 - 1.0 / 4.0)
            << "% a random 4-way assignment would pay.\n";
  return identical ? 0 : 1;
}
