// The benchmark's workloads: which instance a pass builds from the seed
// and which planners it runs on it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ocd/core/instance.hpp"
#include "ocd/graph/digraph.hpp"
#include "ocd/util/rng.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::function<ocd::Digraph(ocd::Rng&)> topology;
  std::function<ocd::core::Instance(ocd::Digraph, ocd::Rng&)> scenario;
  /// Planner names as heuristics::make_policy takes them ("+reliable"
  /// wraps the base planner in faults::ReliableAdapter).
  std::vector<std::string> planners;
  /// Independent per-token loss probability; 0 runs without a fault model.
  double loss_rate = 0.0;
  /// When positive, planners.front() also runs through
  /// shard::run_sharded with this many in-process shards.
  std::int32_t shards = 0;
  /// Instances one run covers, each drawn from its own derived seed.
  std::int32_t instances = 1;
};

const std::vector<Workload>& workloads();

/// Null for an unknown name.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
