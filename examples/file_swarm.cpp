// file_swarm: a BitTorrent-flavoured scenario from the paper's intro —
// multiple files, each wanted by a different community of peers, sourced
// at scattered seeders over a transit-stub internet.
//
//   $ ./file_swarm [num_vertices] [num_files]
//
// Shows scenario builders, transit-stub topologies, per-vertex
// completion-time statistics, and the bandwidth/pruning analysis.
// A malformed or out-of-range argument exits 2 with a message naming
// it; a scenario the library rejects (more files than the overlay can
// host) exits 1.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

#include "ocd/core/bounds.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/transit_stub.hpp"
#include "ocd/util/table.hpp"

namespace {

constexpr std::int32_t kTokensPerFile = 16;

/// Parses `text` wholly as an integer in [min, max]; otherwise reports
/// the argument and exits with the usage-error status.
std::int32_t parse_arg(const char* name, const char* text, std::int32_t min,
                       std::int32_t max) {
  const char* end = text + std::strlen(text);
  std::int32_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    std::cerr << "error: " << name << " must be an integer in [" << min
              << ", " << max << "], got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocd;
  constexpr std::int32_t kMaxInt = std::numeric_limits<std::int32_t>::max();
  const std::int32_t target_n =
      argc > 1 ? parse_arg("num_vertices", argv[1], 8, kMaxInt) : 80;
  const std::int32_t num_files =
      argc > 2 ? parse_arg("num_files", argv[2], 1, kMaxInt / kTokensPerFile)
               : 4;

  try {
    // A transit-stub overlay approximating an internet-like topology.
    Rng rng(2026);
    const auto opt = topology::transit_stub_options_for_size(target_n);
    Digraph graph = topology::transit_stub(opt, rng);
    std::cout << "overlay: " << graph.num_vertices() << " nodes, "
              << graph.num_arcs() << " arcs (transit-stub)\n";

    // Random seeders: each file starts at one vertex outside its swarm.
    const auto instance = core::subdivided_files_random_senders(
        std::move(graph), kTokensPerFile * num_files, num_files, rng);
    std::cout << "content: " << num_files << " files x " << kTokensPerFile
              << " tokens, seeded at random non-member vertices\n\n";

    Table table({"policy", "steps", "mean_completion", "bandwidth",
                 "pruned_bw", "useful", "redundant"});
    table.set_precision(1);

    for (const auto& name : heuristics::all_policy_names()) {
      auto policy = heuristics::make_policy(name);
      sim::SimOptions options;
      options.seed = 7;
      const auto result = sim::run(instance, *policy, options);
      if (!result.success) {
        std::cout << name << " did not complete\n";
        continue;
      }
      table.add_row({std::string(name), result.steps,
                     result.stats.mean_completion(), result.bandwidth,
                     core::prune(instance, result.schedule).bandwidth(),
                     result.stats.useful_moves, result.stats.redundant_moves});
    }
    table.print(std::cout);

    std::cout << "\nbandwidth floor (one move per outstanding want): "
              << core::bandwidth_lower_bound(instance) << '\n'
              << "makespan floor (distance + capacity closure): "
              << core::makespan_lower_bound(instance) << '\n';
    std::cout << "\nreading: the flooding heuristics push every token\n"
                 "everywhere; the bandwidth heuristic routes each file to its\n"
                 "swarm, trading a little time for a lot of bandwidth.\n";
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
