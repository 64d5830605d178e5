// Allocation contracts of sim::run, measured by a test-local counting
// `operator new` that tallies both calls and requested bytes.
//
// Zero-allocation steady state: once the Simulator's arena and a
// policy's scratch are warm, additional simulation steps must not touch
// the heap, under loss with the reliable adapter in the loop too, and
// on a file swarm, where `bandwidth` runs its relay BFS every step.
// Two truncated runs of the same deterministic trajectory (same instance,
// policy object, simulator, and seed) that differ only in max_steps are
// compared; the extra steps of the longer run must contribute zero
// allocations.
//
// No hidden O(n²): what a run requests up front must scale with the
// instance (vertices × tokens, arcs), never with vertices squared.  The
// same holds for the makespan lower bound every pipeline ends in, and
// for the branch-and-bound search up to its first budget check.
//
// This file is compiled into its own test binary (ocd_alloc_tests) so
// the replaced global allocator cannot perturb the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "ocd/core/bounds.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/exact/bnb.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

namespace ocd::testing_alloc {
// Read access for sibling suites in this binary (flow/flow_alloc_test
// .cpp, sim/record_alloc_test.cpp): the counting allocator lives here
// exactly once.
std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}
}  // namespace ocd::testing_alloc

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ocd::testing_alloc {
/// Fig-2-style broadcast, slowed down with unit-ish capacities so a
/// truncated run is guaranteed to still be mid-flight: with in-degree
/// ~2 ln n and capacity at most 2, draining 256 tokens into any vertex
/// needs well over 20 steps.  Shared with sim/record_alloc_test.cpp.
core::Instance slow_fig2_instance() {
  Rng rng(0xa110c);
  topology::RandomGraphOptions options;
  options.capacities = {1, 2};
  Digraph graph = topology::random_overlay(64, options, rng);
  return core::single_source_all_receivers(std::move(graph), 256, 0);
}

/// slow_fig2_instance()'s overlay shape carrying two 128-token files
/// from random senders, each wanted by half the vertices.
core::Instance slow_swarm_instance() {
  Rng rng(0xa110d);
  topology::RandomGraphOptions options;
  options.capacities = {1, 2};
  Digraph graph = topology::random_overlay(64, options, rng);
  return core::subdivided_files_random_senders(std::move(graph), 256, 2, rng);
}
}  // namespace ocd::testing_alloc

namespace ocd::sim {
namespace {

using testing_alloc::slow_fig2_instance;
using testing_alloc::slow_swarm_instance;

std::uint64_t allocations_during(Simulator& simulator,
                                 const core::Instance& inst, Policy& policy,
                                 const SimOptions& options,
                                 std::int64_t* steps_out) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = simulator.run(inst, policy, options);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  *steps_out = result.steps;
  return after - before;
}

constexpr std::int64_t kShort = 6;
constexpr std::int64_t kLong = 16;

/// Replays `name`'s trajectory on `inst` truncated at kShort and at
/// kLong steps and expects the extra steps to allocate nothing.  A
/// "+reliable" planner runs at 20% loss, so the adapter's in-flight
/// table acks, retransmits and merges new timers every step; it must
/// have grown to its peak along the warm run.
void expect_steady_steps_allocation_free(const core::Instance& inst,
                                         const char* name) {
  SCOPED_TRACE(name);
  const bool reliable = std::string_view(name).ends_with("+reliable");
  const auto policy = heuristics::make_policy(name);
  faults::UniformLoss loss(0.2);
  Simulator simulator;
  SimOptions options;
  options.seed = 17;
  options.record_schedule = false;
  if (reliable) options.faults = &loss;

  // Warm run: sizes the simulator arena and the policy scratch along
  // the exact trajectory the measured runs will replay.
  options.max_steps = kLong;
  const RunResult warm = simulator.run(inst, *policy, options);
  if (reliable) {
    EXPECT_GT(warm.stats.retransmissions, 0);
  }

  std::int64_t short_steps = 0;
  std::int64_t long_steps = 0;
  options.max_steps = kShort;
  const std::uint64_t short_allocs =
      allocations_during(simulator, inst, *policy, options, &short_steps);
  options.max_steps = kLong;
  const std::uint64_t long_allocs =
      allocations_during(simulator, inst, *policy, options, &long_steps);

  // Both runs must have been truncated mid-flight, so the counts really
  // differ by kLong - kShort live steps.
  ASSERT_EQ(short_steps, kShort);
  ASSERT_EQ(long_steps, kLong);
  EXPECT_EQ(long_allocs, short_allocs)
      << (long_allocs - short_allocs) << " allocations across "
      << (kLong - kShort) << " steady-state steps";
}

/// Whether some send of `schedule` carries a token its head does not
/// want, i.e. feeds an elected relay.
bool relays_a_token(const core::Instance& inst,
                    const core::Schedule& schedule) {
  for (const core::Timestep& step : schedule.steps()) {
    for (const core::ArcSend send : step.sends()) {
      TokenSet unwanted(send.tokens);
      unwanted -= inst.want(inst.graph().arc(send.arc).to);
      if (!unwanted.empty()) return true;
    }
  }
  return false;
}

TEST(AllocCount, SteadyStateStepsAreAllocationFree) {
  const core::Instance broadcast = slow_fig2_instance();
  for (const char* name :
       {"global", "local", "random", "round-robin", "bandwidth",
        "global+reliable", "local+reliable", "random+reliable",
        "round-robin+reliable", "bandwidth+reliable"})
    expect_steady_steps_allocation_free(broadcast, name);

  // On a broadcast every vertex wants every token, so `bandwidth` never
  // runs its relay BFS there.  Files from random senders on the same
  // overlay shape leave uninterested vertices between senders and
  // receivers: the election groups tokens and runs the BFS every step.
  const core::Instance swarm = slow_swarm_instance();
  for (const char* name : {"bandwidth", "bandwidth+reliable"}) {
    expect_steady_steps_allocation_free(swarm, name);
    SCOPED_TRACE(name);
    faults::UniformLoss loss(0.2);
    SimOptions options;
    options.seed = 17;
    options.max_steps = kLong;
    if (std::string_view(name).ends_with("+reliable")) options.faults = &loss;
    const auto policy = heuristics::make_policy(name);
    EXPECT_TRUE(relays_a_token(swarm, run(swarm, *policy, options).schedule));
  }
}

// A 4096-vertex sparse overlay carrying 8 tokens needs about a
// megabyte of per-run state (one-word possession rows, per-arc scratch
// and candidate rows).  An n×n table of 32-bit hop distances alone
// would be 64 MiB, so a budget of 8 MiB catches any per-run structure
// quadratic in n while leaving room for the linear ones to grow.
TEST(AllocCount, CoordinatedRunsRequestNoQuadraticMemory) {
  constexpr std::uint64_t kBudgetBytes = 8u << 20;
  Rng rng(0x5bade);
  Digraph graph = topology::sparse_random_overlay(4096, 8.0, rng);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(graph), 8, 0);

  for (const char* name : {"global", "bandwidth"}) {
    SCOPED_TRACE(name);
    const auto policy = heuristics::make_policy(name);
    SimOptions options;
    options.max_steps = 2;
    options.record_schedule = false;

    const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
    const RunResult result = run(inst, *policy, options);
    const std::uint64_t bytes =
        g_bytes.load(std::memory_order_relaxed) - before;

    ASSERT_EQ(result.steps, 2);
    EXPECT_LT(bytes, kBudgetBytes)
        << (bytes >> 10) << " KiB requested by a 2-step run on "
        << inst.num_vertices() << " vertices";
  }
}

// The makespan bound's shared pass allocates a fixed set of arrays,
// O(n + outstanding pairs) bytes in all: nothing per vertex, so the
// call count does not grow with n, and no per-vertex BFS table, which
// at 4096 vertices alone would request 64 MiB.
TEST(AllocCount, MakespanBoundAllocatesNothingPerVertex) {
  std::vector<std::uint64_t> calls;
  for (const std::int32_t n : {512, 4096}) {
    Rng rng(0xb0d5);
    Digraph graph = topology::sparse_random_overlay(n, 8.0, rng);
    const core::Instance inst =
        core::single_source_all_receivers(std::move(graph), 8, 0);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
    EXPECT_GT(core::makespan_lower_bound(inst), 0);
    calls.push_back(g_allocations.load(std::memory_order_relaxed) - before);
    const std::uint64_t bytes =
        g_bytes.load(std::memory_order_relaxed) - bytes_before;
    const auto pairs = static_cast<std::uint64_t>(inst.total_outstanding());
    EXPECT_LT(bytes, 64 * (static_cast<std::uint64_t>(n) + pairs))
        << (bytes >> 10) << " KiB requested on " << n << " vertices";
  }
  EXPECT_EQ(calls[0], calls[1]);
}

// Building a graph costs the rng draws, one duplicate lookup per arc
// and one pass to lay out the CSR: the adjacency lives in a few flat
// arrays that grow by doubling, so the call count grows with log(arcs)
// and never by one heap block per vertex.  The connectivity check and
// the Hamiltonian backbone ride along with a handful more.
TEST(AllocCount, GraphBuildAllocatesNothingPerVertex) {
  for (const std::int32_t n : {4096, 16384}) {
    Rng rng(0x9a7b);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Digraph graph = topology::sparse_random_overlay(n, 8.0, rng);
    graph.finalize();
    const std::uint64_t calls =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_LT(calls, 64u) << calls << " allocations building a " << n
                          << "-vertex overlay with " << graph.num_arcs()
                          << " arcs";
  }
}

TEST(AllocCount, BranchAndBoundNodeBudgetFiresBeforeQuadraticMemory) {
  // One search node on a 4096-vertex broadcast: the call may finish or
  // throw a budget error, but must not first request n² distances.
  Rng rng(0xb0d5);
  Digraph graph = topology::sparse_random_overlay(4096, 8.0, rng);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(graph), 8, 0);
  exact::BnbOptions options;
  options.max_nodes = 1;
  const std::uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
  try {
    (void)exact::dfocd_feasible(inst, 64, options);
  } catch (const Error&) {
  }
  const std::uint64_t bytes =
      g_bytes.load(std::memory_order_relaxed) - bytes_before;
  EXPECT_LT(bytes, std::uint64_t{8} << 20) << (bytes >> 10) << " KiB requested";
}

// A scenario builder copies each vertex's have and want set into the
// rows the instance allocated at construction: two rows per vertex and
// a few arrays, not also a fresh copy of the wanted set per receiver.
// Counting outstanding pairs builds no set at all.
TEST(AllocCount, InstanceRowsAreFilledInPlace) {
  constexpr std::int32_t kVertices = 4096;
  Rng rng(0x1a57);
  Digraph graph = topology::sparse_random_overlay(kVertices, 8.0, rng);
  graph.finalize();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(graph), 8, 0);
  const std::uint64_t build =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(build, 2u * kVertices + 16)
      << build << " allocations to build a " << kVertices
      << "-vertex broadcast";

  const std::uint64_t count_before =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(inst.total_outstanding(), std::int64_t{kVertices - 1} * 8);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - count_before,
            0u);
}

TEST(AllocCount, HarnessCountsAllocations) {
  // Sanity-check the instrumented allocator itself: a vector growing
  // from empty must be visible to both counters.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before = g_bytes.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> v(1024);
  v.resize(4096);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t bytes_after = g_bytes.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, 2u);
  EXPECT_GE(bytes_after - bytes_before,
            (1024u + 4096u) * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace ocd::sim
