// Vertex-sharded simulation runtime.
//
// run_sharded() is sim::run with its plan phase split over the shards
// of a vertex partition (ocd/shard/partition.hpp; by default shard s
// owns the vertex ids [⌊s·n/k⌋, ⌊(s+1)·n/k⌋)).  The shards share
// memory: each step they all read the one step-start StepView and plan
// on the ocd::util worker pool (OCD_JOBS), each with its own policy
// instance and its own StepPlan.  The shard plans are merged into
// sim::run's plan, and everything after planning is sim::run's own
// code — validation, fault loss, apply, satisfaction, aggregates, the
// watchdog, stats and schedule recording — as in §3.1's single
// synchronous round.  This is the LOCD model of §4.1: each vertex plans
// from its own knowledge of the step-start state, so who plans a vertex
// cannot change what it plans.
//
// Bit-identity guarantee: for every supported planner the schedule and
// RunStats are bit-for-bit identical to sim::run on the same (instance,
// options), for every shard count, ownership map and worker budget —
// pinned by tests/shard/determinism_test.cpp.  Two planner families:
//
//   * Local planners (round-robin, random, local): per-vertex planning
//     is independent (Policy::plan_shard's contract), and all
//     randomness is derived per-(step, coordinate) rather than drawn
//     from execution-order-dependent streams (util::derive_seed).  A
//     shard's plan call costs the vertices it owns: their out-arcs, or
//     for local their in-arcs plus one word per 64 arcs of request
//     marks, with no sweep of the whole arc set.
//
//   * The coordinated planner (bandwidth): each shard runs the relay
//     election over its slice of 64-token words (a word pass over every
//     vertex, then a relay BFS only for the tokens where a relay can
//     add a bit), then, after a pool barrier, absorbs every shard's
//     slice and fills the arcs its vertices send on.  One election
//     round per step, exact by construction.  See
//     ocd/heuristics/bandwidth_saver.hpp and DESIGN.md "Sharded
//     coordinated planning".
//
// Every arc is planned by one shard only (its tail's owner; its head's
// owner under "local"), so the shard plans merge back into plan_step's
// send order with one linear k-way merge per step.
//
// Envelope: the "global" planner, staleness, stale aggregates, dynamics
// models, completion overrides and adapter-wrapped policies
// ("+reliable") are refused with ocd::Error before any partitioning;
// run them with sim::run.  Global's greedy couples every pick to every
// earlier one, and its sharded form never beat one process.  The others
// stay outside the envelope the determinism suites pin: shard plans are
// bound to the static capacities, and an adapter's plan_shard does not
// split its plan_step.  Fault models are supported verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocd/core/instance.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/sim/simulator.hpp"

namespace ocd::shard {

/// How shards exchange data.  Shards share memory, so there is nothing
/// to choose; the enum and ShardOptions::transport remain only because
/// perfbench names them, until ROADMAP item 2's benchmark change.
enum class TransportKind : std::uint8_t {
  kInProcess,
};

struct ShardOptions {
  /// Shard count; both run_sharded overloads throw ocd::Error naming
  /// num_shards before any work when it is below 1.
  std::int32_t num_shards = 1;
  /// Always kInProcess; TransportKind has no other value.
  TransportKind transport = TransportKind::kInProcess;
  /// Leftover of the deleted balance slack, kept only because
  /// perfbench sets it (removed with ROADMAP item 2's benchmark
  /// change): both run_sharded overloads throw ocd::Error naming
  /// balance_eps unless it is -1 or 0 (see resolve_balance_eps).
  std::int32_t balance_eps = -1;
  /// Simulator options; see the envelope note above for the supported
  /// subset.  faults (if any) must outlive the run.
  sim::SimOptions sim;
};

/// Runs `policy_name` (round-robin / random / local / bandwidth — each
/// shard constructs its own planner instance) over the instance,
/// sharded over partition_vertices' contiguous vertex-id ranges.
/// Throws ocd::Error for unsupported planners and options, and for
/// more shards than vertices, before partitioning.
/// The result is bit-identical to sim::run for every shard count; with
/// one shard the planner's plan_step runs unsplit.
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options);

/// As run_sharded with a precomputed partition, any ownership map: its
/// num_shards must match options.num_shards, and its shard_of must give
/// every vertex a shard in [0, num_shards), else ocd::Error.
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options,
                           const Partition& partition);

}  // namespace ocd::shard
