#include "workloads.hpp"

#include "ocd/core/scenario.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace perfbench {

namespace {

using ocd::Digraph;
using ocd::Rng;
using ocd::core::Instance;

// Sizes keep a pass within about 0.1-0.5 s on a 4-vCPU host with one
// worker, so a 20 s run holds many rounds and each instance's best pass
// is read with little of the host's load in it, while each workload's
// dominant layer stays the one named in its comment.

// The paper's G(n, 2 ln n / n) overlay with one 512-token source: 8-word
// token rows and the coordinated planners' wave loops dominate.
constexpr std::int32_t kDenseVertices = 200;
constexpr std::int32_t kDenseTokens = 512;

// Many vertices, one-word rows: the kGlobal per-run precompute and the
// O(n (n + m)) makespan bound dominate while the token kernels idle.
// The local planner also runs over four in-process shards, the only
// partition, barrier and codec work in the benchmark.
constexpr std::int32_t kSparseVertices = 800;
constexpr std::int32_t kSparseTokens = 8;
constexpr double kSparseDegree = 8.0;
constexpr std::int32_t kShards = 4;

// Fig 6 on the transit-stub substitute under 10% loss: many senders,
// per-group wants, lossy apply and the reliable adapter's bookkeeping.
constexpr std::int32_t kLossyVertices = 300;
constexpr std::int32_t kLossyTokens = 512;
constexpr std::int32_t kLossyFiles = 16;
constexpr double kLossRate = 0.1;

std::vector<Workload> make_workloads() {
  const auto single_source = [](std::int32_t tokens) {
    return [tokens](Digraph graph, Rng&) {
      return ocd::core::single_source_all_receivers(std::move(graph), tokens,
                                                    0);
    };
  };

  std::vector<Workload> out;

  Workload dense;
  dense.name = "dense-broadcast";
  dense.topology = [](Rng& rng) {
    return ocd::topology::random_overlay(kDenseVertices, rng);
  };
  dense.scenario = single_source(kDenseTokens);
  dense.planners = {"round-robin", "random", "local", "bandwidth", "global"};
  dense.instances = 8;
  out.push_back(std::move(dense));

  Workload sparse;
  sparse.name = "sparse-broadcast";
  sparse.topology = [](Rng& rng) {
    return ocd::topology::sparse_random_overlay(kSparseVertices,
                                                kSparseDegree, rng);
  };
  sparse.scenario = single_source(kSparseTokens);
  sparse.planners = {"local", "global"};
  sparse.shards = kShards;
  sparse.instances = 8;
  out.push_back(std::move(sparse));

  Workload lossy;
  lossy.name = "lossy-swarm";
  lossy.topology = [](Rng& rng) {
    return ocd::topology::transit_stub(
        ocd::topology::transit_stub_options_for_size(kLossyVertices), rng);
  };
  lossy.scenario = [](Digraph graph, Rng& rng) {
    return ocd::core::subdivided_files_random_senders(
        std::move(graph), kLossyTokens, kLossyFiles, rng);
  };
  lossy.planners = {"random+reliable", "local+reliable", "global+reliable",
                    "bandwidth+reliable"};
  lossy.loss_rate = kLossRate;
  lossy.instances = 6;
  out.push_back(std::move(lossy));

  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
