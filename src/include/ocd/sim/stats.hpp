// Run statistics collected by the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocd/graph/digraph.hpp"

namespace ocd::sim {

struct RunStats {
  /// Token-transfers per timestep (transmissions put on the wire,
  /// whether or not they were delivered).
  std::vector<std::int64_t> moves_per_step;
  /// Transfers that delivered a token the receiver lacked.
  std::int64_t useful_moves = 0;
  /// Transfers of tokens the receiver already possessed.
  std::int64_t redundant_moves = 0;
  /// Transfers eaten by the fault model: they consumed arc capacity but
  /// never reached the receiver (faults/model.hpp loss semantics).
  std::int64_t lost_moves = 0;
  /// Per-step loss trace (same length as moves_per_step; all zeros when
  /// no fault model is active).  The reproducibility signal the
  /// determinism suite compares bit-for-bit.
  std::vector<std::int64_t> lost_per_step;
  /// Sender-side recoveries scheduled by ReliableAdapter (a subset of
  /// the moves above — every retransmission is also a transmission).
  std::int64_t retransmissions = 0;
  /// Tokens adapters removed from plans before they reached the wire:
  /// GroupAdapter congestion drops on shared physical links plus
  /// ReliableAdapter trims when retransmissions took the capacity.
  std::int64_t adapter_dropped_moves = 0;
  /// Step at which each vertex first satisfied its want set (-1 when a
  /// vertex never completed; 0 when satisfied initially).
  std::vector<std::int64_t> completion_step;
  /// Tokens each vertex uploaded over the run — the fairness signal the
  /// paper's introduction lists ("nodes contribute roughly in
  /// proportion to one another").
  std::vector<std::int64_t> sent_by_vertex;
  /// Barrier traffic accounting, filled only by shard::run_sharded (all
  /// zero for sim::run): frame bytes each worker handed the transport
  /// and received from it, summed over shards and phases (wave, plan,
  /// apply, init).
  std::int64_t shard_bytes_sent = 0;
  std::int64_t shard_bytes_received = 0;
  /// Coordinated planning ("bandwidth", > 1 shard): summary entries
  /// (elected token slices) the wave rounds shipped.
  std::int64_t shard_summary_entries = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] std::int64_t total_moves() const noexcept {
    return useful_moves + redundant_moves + lost_moves;
  }

  /// Bandwidth (and pre-send budget) spent without growing anyone's
  /// possession: in-flight losses, redundant deliveries, and adapter
  /// drops — congestion and fault losses on one axis.
  [[nodiscard]] std::int64_t wasted_bandwidth() const noexcept {
    return lost_moves + redundant_moves + adapter_dropped_moves;
  }

  /// True when the per-step series matches a run of `steps` timesteps,
  /// the per-step moves sum to the useful/redundant/lost totals, and
  /// the loss trace (when present) mirrors the step series.  The
  /// simulator enforces this on every exit path (including stalls,
  /// watchdog terminations, and max_steps exhaustion).
  [[nodiscard]] bool consistent_with_steps(std::int64_t steps) const noexcept;
  /// Mean completion step over vertices with nonempty wants.
  [[nodiscard]] double mean_completion() const;

  /// Jain's fairness index over per-vertex upload contributions:
  /// (Σx)² / (n·Σx²) ∈ (0, 1]; 1 = perfectly even contribution.
  /// Vertices that sent nothing are included; 0 when nobody sent.
  [[nodiscard]] double upload_fairness() const;

  [[nodiscard]] std::string summary() const;
};

}  // namespace ocd::sim
