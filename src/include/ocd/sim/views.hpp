// Knowledge-scoped views handed to policies.
//
// A policy declares a KnowledgeClass; the simulator hands it a StepView
// whose accessors *runtime-check* that the declared class permits the
// query.  A policy peeking beyond its class trips a contract violation,
// which the test suite exercises — this keeps the LOCD locality claims
// of §4.1 honest rather than merely conventional.
#pragma once

#include <cstdint>
#include <span>

#include "ocd/core/instance.hpp"
#include "ocd/sim/knowledge.hpp"

namespace ocd::sim {

enum class KnowledgeClass : std::uint8_t {
  /// Own state only (RoundRobin): possession, wants, incident arcs.
  kLocalOnly,
  /// + neighbors' (possibly stale) possession sets (Random).
  kLocalPeers,
  /// + per-token global aggregates (Local / rarest-random).
  kLocalAggregate,
  /// Full system state (Bandwidth, Global).
  kGlobal,
};

const char* to_string(KnowledgeClass k);

/// Read-only window onto the simulation at the start of one timestep.
///
/// Possession state is handed out as TokenSetView rows of the
/// simulator's flat TokenMatrix; views borrow and are only valid while
/// the StepView (and the matrices behind it) lives — policies must not
/// retain them across steps.
class StepView {
 public:
  /// `aggregates` may be null for policies below kLocalAggregate — the
  /// simulator materializes aggregate vectors lazily, only when the
  /// declared knowledge class can observe them.
  StepView(const core::Instance& instance,
           const util::TokenMatrix& possession,
           const util::TokenMatrix& stale_possession,
           const Aggregates* aggregates, KnowledgeClass granted,
           std::int64_t step,
           std::span<const std::int32_t> effective_capacity = {});

  [[nodiscard]] std::int64_t step() const noexcept { return step_; }
  [[nodiscard]] KnowledgeClass granted() const noexcept { return granted_; }

  /// Sharded runtime: the possession matrices behind this view hold
  /// only shard-local rows (owned vertices plus ghost neighbors), and
  /// `row_map` translates a global vertex id into a matrix row (-1 for
  /// vertices this shard cannot see).  own_possession/peer_possession
  /// remap through it; whole-matrix access (global_possession) is
  /// forbidden while a row map is active, since the matrix is not the
  /// global state.  The span must outlive the view.
  void set_row_map(std::span<const std::int32_t> row_map) noexcept {
    row_map_ = row_map;
  }

  /// Effective capacity of `arc` for this step.  Equals the static
  /// capacity unless a dynamics model is active (§6 changing network
  /// conditions); 0 means the arc is down this turn.  Available at
  /// every knowledge class — a vertex always knows the current state of
  /// its incident links.
  [[nodiscard]] std::int32_t capacity(ArcId arc) const;

  // ---- kLocalOnly ----------------------------------------------------
  [[nodiscard]] const Digraph& graph() const noexcept;  // topology is
  // public knowledge in the paper's model (k_0 includes neighbors and
  // capacities; we expose the whole overlay map, matching §4.1's
  // optional "additional information about the graph topology").
  [[nodiscard]] std::int32_t num_tokens() const noexcept;
  [[nodiscard]] TokenSetView own_possession(VertexId v) const;
  [[nodiscard]] const TokenSet& own_want(VertexId v) const;

  // ---- kLocalPeers ---------------------------------------------------
  /// Neighbor's possession as known this step (staleness applied).
  /// `neighbor` must share an arc with `self` in either direction.
  [[nodiscard]] TokenSetView peer_possession(VertexId self,
                                             VertexId neighbor) const;

  // ---- kLocalAggregate -----------------------------------------------
  [[nodiscard]] std::span<const std::int32_t> aggregate_holders() const;
  [[nodiscard]] std::span<const std::int32_t> aggregate_need() const;

  // ---- kGlobal ---------------------------------------------------------
  [[nodiscard]] const util::TokenMatrix& global_possession() const;
  [[nodiscard]] const core::Instance& instance() const;

 private:
  void require(KnowledgeClass needed) const;
  [[nodiscard]] std::size_t row_of(VertexId v) const;

  const core::Instance& instance_;
  const util::TokenMatrix& possession_;
  const util::TokenMatrix& stale_possession_;
  const Aggregates* aggregates_;
  KnowledgeClass granted_;
  std::int64_t step_;
  std::span<const std::int32_t> effective_capacity_;
  std::span<const std::int32_t> row_map_;  ///< empty = rows are vertex ids
};

}  // namespace ocd::sim
