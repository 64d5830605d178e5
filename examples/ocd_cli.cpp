// ocd_cli: a command-line front end for the whole library — generate a
// topology, build a workload, pick a heuristic, apply network dynamics,
// and report the run (optionally saving/loading instances).
//
//   $ ./ocd_cli --topology random --n 100 --tokens 64 --policy local
//   $ ./ocd_cli --topology transit-stub --n 200 --files 8 --policy bandwidth
//   $ ./ocd_cli --policy random --staleness 4 --dynamics link-churn
//   $ ./ocd_cli --save my.inst ; ./ocd_cli --load my.inst --policy global
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "ocd/core/bounds.hpp"
#include "ocd/core/compact.hpp"
#include "ocd/core/io.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace {

struct CliOptions {
  std::string topology = "random";  // random | transit-stub
  std::int32_t n = 50;
  std::int32_t tokens = 32;
  std::int32_t files = 1;
  double density = 1.0;  // receiver-density threshold
  std::string policy = "local";
  std::int32_t staleness = 0;
  std::string dynamics;  // "", jitter, link-churn, node-churn
  std::uint64_t seed = 1;
  std::string save_path;
  std::string load_path;
  bool post_optimize = false;
};

void usage() {
  std::cout <<
      "ocd_cli — run an overlay content distribution experiment\n"
      "  --topology random|transit-stub   overlay family (default random)\n"
      "  --n <int>                        vertices (default 50)\n"
      "  --tokens <int>                   tokens (default 32)\n"
      "  --files <int>                    subdivide into equal files (default 1)\n"
      "  --density <0..1>                 receiver-density threshold (default 1)\n"
      "  --policy <name>                  round-robin|random|local|bandwidth|global\n"
      "                                   (default local), any of them with\n"
      "                                   +reliable, or an architecture\n"
      "                                   baseline: overcast-tree|\n"
      "                                   splitstream-forest|fast-replica\n"
      "  --staleness <int>                peer knowledge k turns old (default 0)\n"
      "  --dynamics jitter|link-churn|node-churn\n"
      "  --seed <uint64>\n"
      "  --save <path>                    write the instance and exit\n"
      "  --load <path>                    run on a saved instance\n"
      "  --optimize                       report prune+compact post-pass too\n";
}

/// Reports a malformed or out-of-range flag value and exits with the
/// usage-error status.
[[noreturn]] void bad_value(const std::string& flag, const char* expected,
                            const char* text) {
  std::cerr << "error: " << flag << " must be " << expected << ", got '"
            << text << "'\n";
  std::exit(2);
}

/// Parses `text` wholly as a T (no sign for unsigned, no whitespace, no
/// trailing characters, no overflow).
template <typename T>
std::optional<T> parse_whole(const char* text) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::int32_t parse_int_at_least(const std::string& flag, const char* text,
                                std::int32_t min) {
  const auto value = parse_whole<std::int32_t>(text);
  if (!value || *value < min)
    bad_value(flag, ("an integer >= " + std::to_string(min)).c_str(), text);
  return *value;
}

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << '\n';
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return std::nullopt;
    } else if (flag == "--topology") {
      opt.topology = value();
      if (opt.topology != "random" && opt.topology != "transit-stub")
        bad_value(flag, "one of random, transit-stub", opt.topology.c_str());
    } else if (flag == "--n") {
      opt.n = parse_int_at_least(flag, value(), 2);
    } else if (flag == "--tokens") {
      opt.tokens = parse_int_at_least(flag, value(), 1);
    } else if (flag == "--files") {
      opt.files = parse_int_at_least(flag, value(), 1);
    } else if (flag == "--density") {
      const char* text = value();
      const auto density = parse_whole<double>(text);
      // Written so that NaN, which fails every comparison, is rejected.
      if (!density || !(*density >= 0.0 && *density <= 1.0))
        bad_value(flag, "a number in [0, 1]", text);
      opt.density = *density;
    } else if (flag == "--policy") {
      opt.policy = value();
      // The factory is the one list of names, "+reliable" included.
      try {
        (void)ocd::heuristics::make_policy(opt.policy);
      } catch (const ocd::Error&) {
        bad_value(flag, "a policy name listed by --help", opt.policy.c_str());
      }
    } else if (flag == "--staleness") {
      opt.staleness = parse_int_at_least(flag, value(), 0);
    } else if (flag == "--dynamics") {
      opt.dynamics = value();
      if (opt.dynamics != "jitter" && opt.dynamics != "link-churn" &&
          opt.dynamics != "node-churn")
        bad_value(flag, "one of jitter, link-churn, node-churn",
                  opt.dynamics.c_str());
    } else if (flag == "--seed") {
      const char* text = value();
      const auto seed = parse_whole<std::uint64_t>(text);
      if (!seed) bad_value(flag, "an unsigned 64-bit decimal integer", text);
      opt.seed = *seed;
    } else if (flag == "--save") {
      opt.save_path = value();
    } else if (flag == "--load") {
      opt.load_path = value();
    } else if (flag == "--optimize") {
      opt.post_optimize = true;
    } else {
      std::cerr << "unknown flag " << flag << "\n\n";
      usage();
      std::exit(2);
    }
  }
  return opt;
}

ocd::core::Instance build_instance(const CliOptions& opt, ocd::Rng& rng) {
  using namespace ocd;
  if (!opt.load_path.empty()) return core::load_instance_file(opt.load_path);

  Digraph graph =
      opt.topology == "transit-stub"
          ? topology::transit_stub(
                topology::transit_stub_options_for_size(opt.n), rng)
          : topology::random_overlay(opt.n, rng);

  if (opt.files > 1) {
    return core::subdivided_files(std::move(graph), opt.tokens, opt.files, 0);
  }
  if (opt.density < 1.0) {
    auto built = core::single_source_receiver_density(std::move(graph),
                                                      opt.tokens, 0,
                                                      opt.density, rng);
    return std::move(built.instance);
  }
  return core::single_source_all_receivers(std::move(graph), opt.tokens, 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocd;
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) return 0;
  const CliOptions& opt = *parsed;

  try {
    Rng rng(opt.seed);
    const core::Instance instance = build_instance(opt, rng);
    std::cout << "instance: " << instance.summary() << '\n';

    if (!opt.save_path.empty()) {
      core::save_instance_file(instance, opt.save_path);
      std::cout << "saved to " << opt.save_path << '\n';
      return 0;
    }

    std::unique_ptr<dynamics::DynamicsModel> model;
    if (opt.dynamics == "jitter") {
      model = std::make_unique<dynamics::CapacityJitter>(0.5);
    } else if (opt.dynamics == "link-churn") {
      model = std::make_unique<dynamics::LinkChurn>(0.10, 3);
    } else if (opt.dynamics == "node-churn") {
      model = std::make_unique<dynamics::NodeChurn>(0.05, 4);
    }

    auto policy = heuristics::make_policy(opt.policy);
    sim::SimOptions options;
    options.seed = opt.seed;
    options.staleness = opt.staleness;
    options.dynamics = model.get();
    options.max_steps = 1'000'000;
    const auto result = sim::run(instance, *policy, options);

    if (!result.success) {
      std::cout << "run did NOT complete within " << result.steps
                << " steps\n";
      return 1;
    }
    std::cout << "policy " << opt.policy << " completed in " << result.steps
              << " timesteps, " << result.bandwidth << " token-transfers\n"
              << "  useful " << result.stats.useful_moves << ", redundant "
              << result.stats.redundant_moves << ", mean completion "
              << result.stats.mean_completion() << " steps, upload fairness "
              << result.stats.upload_fairness() << '\n'
              << "  bounds: makespan >= " << core::makespan_lower_bound(instance)
              << ", bandwidth >= " << core::bandwidth_lower_bound(instance)
              << '\n';

    if (opt.post_optimize) {
      const auto optimized = core::optimize_schedule(instance, result.schedule);
      std::cout << "  prune+compact post-pass: " << optimized.length()
                << " timesteps, " << optimized.bandwidth()
                << " token-transfers\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
