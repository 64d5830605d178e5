// Vertex-sharded simulation runtime.
//
// run_sharded() replays the single-process simulator's synchronous
// round loop across `num_shards` shards, each owning a block of the
// vertex partition (ocd/shard/partition.hpp).  Per step, every shard:
//
//   plan    — plans sends for its owned vertices only (via
//             Policy::plan_shard on a shard-local StepView), validates
//             them, applies the fault model's per-(step, arc) loss, and
//             routes surviving cross-shard deliveries as BinStream
//             messages to the destination's owner;
//   apply   — merges inbound deliveries into its owned possession rows
//             and prepares ghost updates for the shards that replicate
//             its owned vertices;
//   commit  — identical on every shard: folds the broadcast summaries
//             (empty/idle flags, move/loss/useful counters, aggregate
//             deltas, unsatisfied counts) into the replicated global
//             decision state, so termination, the watchdog, and the
//             aggregate vectors never need a coordinator.
//
// Bit-identity guarantee: for every supported planner the merged
// schedule and RunStats are bit-for-bit identical to sim::run on the
// same (instance, options), for every shard count — pinned by
// tests/shard/determinism_test.cpp.  Two planner families:
//
//   * Local planners (round-robin, random, local): per-vertex planning
//     is independent (plan_shard contract), all randomness is derived
//     per-(step, coordinate) rather than drawn from execution-order-
//     dependent streams (util::derive_seed), and merges are keyed sums
//     or deterministic sorts.
//
//   * The coordinated planner (bandwidth): every shard fully
//     replicates possession (every owned-vertex delta is broadcast as a
//     ghost update), and the barrier gains a *wave round* before plan:
//     each shard runs the per-token relay elections of its token slice
//     and broadcasts the elected receivers, so every shard holds the
//     whole step's election before it fills its owned arcs.  One round
//     per step, exact by construction.  See
//     ocd/heuristics/coordination.hpp and DESIGN.md "Sharded
//     coordinated planning".
//
// Envelope: the "global" planner, staleness, stale aggregates, dynamics
// models, completion overrides and adapter-wrapped policies
// ("+reliable") are refused with ocd::Error before any partitioning;
// run them with sim::run.  Global's greedy couples every pick to every
// earlier one, and its sharded form never beat one process; the others
// need state the barrier protocol does not replicate.  Fault models are
// supported verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocd/core/instance.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/sim/simulator.hpp"

namespace ocd::shard {

/// How shards exchange messages.  There is one transport: every shard
/// runs in this process, stepped as chunks of the ocd::util worker pool,
/// with BinStream-encoded messages passed through in-memory mailboxes
/// (ocd/shard/transport.hpp).  The enum and ShardOptions::transport
/// remain so callers that name the transport keep compiling.
enum class TransportKind : std::uint8_t {
  kInProcess,
};

struct ShardOptions {
  /// Shard count; 0 resolves OCD_SHARDS from the environment
  /// (validated), defaulting to 1.
  std::int32_t num_shards = 0;
  /// Always kInProcess; TransportKind has no other value.
  TransportKind transport = TransportKind::kInProcess;
  /// Partition balance slack ε in percent; -1 consults
  /// OCD_SHARD_BALANCE_EPS (validated, default 0 — the historical exact
  /// band).  A resolved ε > 0 also enables the flow-based min-cut
  /// refinement stage (shard/partition.hpp), trading a bounded
  /// ownership imbalance for fewer cut arcs and hence less barrier
  /// traffic.  The merged schedule is bit-identical either way —
  /// partitioning only moves ownership, never planning decisions.
  std::int32_t balance_eps = -1;
  /// Simulator options; see the envelope note above for the supported
  /// subset.  faults (if any) must outlive the run.
  sim::SimOptions sim;
};

/// Resolves a requested shard count: positive values pass through,
/// 0 consults OCD_SHARDS (throwing ocd::Error on garbage), else 1.
std::int32_t resolve_num_shards(std::int32_t requested);

/// Runs `policy_name` (round-robin / random / local / bandwidth — each
/// shard constructs its own instance via heuristics::make_policy) over
/// the instance, sharded.  Throws ocd::Error for unsupported planners
/// and options, before partitioning.
/// The result is bit-identical to sim::run for every shard count.
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options);

/// As run_sharded with a precomputed partition (must match
/// resolve_num_shards(options.num_shards) shards).
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options,
                           const Partition& partition);

}  // namespace ocd::shard
