// Shared plumbing for the figure-reproduction bench binaries.
//
// Every binary prints an aligned table of the series the paper's figure
// plots (plus our lower bounds), using reduced default parameters that
// finish in seconds.  Set OCD_FULL=1 for the paper's full sweep, and
// pass --csv to emit machine-readable output instead of the box table.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ocd/core/bounds.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/util/parallel.hpp"
#include "ocd/util/stopwatch.hpp"
#include "ocd/util/table.hpp"

namespace ocd::bench {

/// True when the paper's full-scale parameters were requested.
inline bool full_scale() {
  const char* env = std::getenv("OCD_FULL");
  return env != nullptr && std::string_view(env) != "0" &&
         std::string_view(env) != "";
}

inline bool csv_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--csv") return true;
  }
  return false;
}

inline void emit(const Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// One policy run with the derived metrics the figures report.
struct PolicyRun {
  bool success = false;
  std::int64_t moves = 0;      ///< timesteps ("moves" in the figures)
  std::int64_t bandwidth = 0;  ///< token-transfers
  std::int64_t pruned_bandwidth = 0;
  double wall_seconds = 0.0;
};

inline PolicyRun run_policy(const core::Instance& instance,
                            std::string_view policy_name, std::uint64_t seed,
                            std::int32_t staleness = 0) {
  auto policy = heuristics::make_policy(policy_name);
  sim::SimOptions options;
  options.seed = seed;
  options.staleness = staleness;
  options.max_steps = 500'000;
  Stopwatch timer;
  const auto result = sim::run(instance, *policy, options);
  PolicyRun out;
  out.success = result.success;
  out.moves = result.steps;
  out.bandwidth = result.bandwidth;
  out.pruned_bandwidth =
      result.success ? core::prune(instance, result.schedule).bandwidth() : 0;
  out.wall_seconds = timer.seconds();
  return out;
}

/// Worker count for threaded sweeps: the shared ocd::util budget —
/// OCD_JOBS when set (validated; garbage throws ocd::Error), hardware
/// concurrency otherwise.
inline unsigned sweep_jobs() { return util::parallel_jobs(); }

/// Runs fn(config) for every entry of `configs` on the shared ocd::util
/// worker pool, `jobs` wide, and returns the results in configuration
/// order — the output is independent of scheduling, so a threaded sweep
/// emits the same rows as a serial (OCD_JOBS=1) one.
///
/// `fn` must be safe to call concurrently on distinct configs: no
/// shared mutable state (run_policy qualifies — each call builds a
/// fresh policy and Rng, and sim::run keeps all run state local).
/// Nested parallelism is safe and budget-shared: a parallel_for issued
/// inside fn (an in-process sharded run stepping its shards) runs
/// inline on the sweep worker instead of fanning out again; a plain
/// sim::run never fans out at all.  The lowest-config exception is
/// rethrown on the caller's thread after the pool drains.
template <typename Config, typename Fn>
auto run_grid(const std::vector<Config>& configs, Fn fn,
              unsigned jobs = sweep_jobs())
    -> std::vector<std::invoke_result_t<Fn&, const Config&>> {
  using Result = std::invoke_result_t<Fn&, const Config&>;
  std::vector<Result> results(configs.size());
  if (configs.empty()) return results;
  if (jobs < 1) jobs = 1;
  // Grain 1 = one chunk per config (up to the runtime's chunk cap, when
  // configs rides above it a chunk covers a few consecutive configs);
  // each chunk writes only its own slice of `results`.
  util::parallel_for_capped(configs.size(), 1, jobs,
                            [&](util::ChunkRange chunk) {
                              for (std::size_t i = chunk.begin; i < chunk.end;
                                   ++i)
                                results[i] = fn(configs[i]);
                            });
  return results;
}

inline void print_header(std::string_view title, std::string_view paper_ref) {
  std::cout << "# " << title << '\n'
            << "# reproduces: " << paper_ref << '\n'
            << "# mode: " << (full_scale() ? "full (OCD_FULL=1)" : "quick")
            << '\n';
}

}  // namespace ocd::bench
