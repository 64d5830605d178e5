// The MaxFlow steady-state allocation contract (ocd/flow/max_flow.hpp):
// once a solver instance has solved a network of some size, rebuilding
// and re-solving networks of at most that size must not touch the heap.
// The B&B solver's final_step (src/exact/bnb.cpp) reuses one solver at
// every search node it checks, so a per-solve allocation would land in
// the search's inner loop.
//
// Compiled into ocd_alloc_tests: this binary replaces global operator
// new with a counting wrapper (see sim/alloc_count_test.cpp, which owns
// the replacement), which must not perturb the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "ocd/flow/max_flow.hpp"
#include "ocd/util/rng.hpp"

// Defined in sim/alloc_count_test.cpp, same binary.
namespace ocd::testing_alloc {
std::uint64_t allocation_count();
}  // namespace ocd::testing_alloc

namespace ocd::flow {
namespace {

// Deterministic layered network: `width` parallel paths source -> layer
// -> ... -> sink with rung edges between layers, mixed capacities.
void build_layered(MaxFlow& mf, std::int32_t layers, std::int32_t width,
                   Rng& rng) {
  const std::int32_t n = 2 + layers * width;
  mf.reset(n);
  const auto vertex = [&](std::int32_t layer, std::int32_t lane) {
    return 2 + layer * width + lane;
  };
  for (std::int32_t lane = 0; lane < width; ++lane) {
    mf.add_edge(0, vertex(0, lane), rng.uniform_int(1, 50));
    mf.add_edge(vertex(layers - 1, lane), 1, rng.uniform_int(1, 50));
  }
  for (std::int32_t layer = 0; layer + 1 < layers; ++layer)
    for (std::int32_t lane = 0; lane < width; ++lane) {
      mf.add_edge(vertex(layer, lane), vertex(layer + 1, lane),
                  rng.uniform_int(1, 50));
      mf.add_edge(vertex(layer, lane),
                  vertex(layer + 1, (lane + 1) % width),
                  rng.uniform_int(0, 5), rng.uniform_int(0, 5));
    }
}

TEST(FlowAllocCount, WarmSolverRebuildsAndSolvesAllocationFree) {
  MaxFlow mf;
  Rng rng(0x51ee7);

  // Warm run at the maximum shape this test will ever use: sizes every
  // scratch buffer (arc arrays, CSR, levels, queue, path).
  build_layered(mf, 6, 8, rng);
  (void)mf.run(0, 1);

  const std::uint64_t before = ocd::testing_alloc::allocation_count();
  for (std::int32_t round = 0; round < 20; ++round) {
    // Same-or-smaller networks of varying shape, with the per-edge
    // flow reads final_step makes to rebuild its timestep.
    build_layered(mf, 3 + round % 4, 4 + round % 5, rng);
    (void)mf.run(0, 1);
    for (std::int32_t e = 0; e < mf.num_edges(); ++e) (void)mf.flow(e);
    for (std::int32_t v = 0; v < mf.num_vertices(); ++v)
      (void)mf.in_source_side(v);
  }
  const std::uint64_t after = ocd::testing_alloc::allocation_count();
  EXPECT_EQ(after, before)
      << (after - before) << " allocations across 20 warm solves";
}

}  // namespace
}  // namespace ocd::flow
