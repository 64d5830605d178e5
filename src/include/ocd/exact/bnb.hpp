// Combinatorial branch-and-bound search for FOCD / DFOCD (the paper's
// "simple algorithm ... and a branch-and-bound search strategy").
//
// The search enumerates timestep plans depth-first.  Three observations
// keep it tractable on the small instances the paper targets:
//
//  1. Dominance — for makespan, sending *more* useful tokens never
//     hurts (possession is monotone), so every arc sends exactly
//     min(capacity, |useful|) tokens and branching only happens over
//     *which* tokens when an arc's useful set exceeds its capacity.
//  2. Last-step exactness — whether all outstanding wants can be
//     satisfied in one final step is a bipartite transportation
//     feasibility question, decided exactly by max-flow instead of
//     enumeration.
//  3. Memoization + bounds — possession states that already failed with
//     at least as many steps remaining are pruned, as are states whose
//     M_i(v) closure bound (core::makespan_lower_bound, read from the
//     state's possession) exceeds the remaining budget.
//
// The solver throws ocd::Error when branching would exceed the
// configured node budget, rather than silently degrading to a heuristic.
#pragma once

#include <cstdint>
#include <optional>

#include "ocd/core/instance.hpp"
#include "ocd/core/schedule.hpp"

namespace ocd::exact {

struct BnbOptions {
  /// Hard cap on search nodes before giving up with ocd::Error.
  std::int64_t max_nodes = 5'000'000;
  /// Hard cap on candidate plans enumerated per timestep.
  std::int64_t max_plans_per_step = 2'000'000;
};

struct BnbStats {
  std::int64_t nodes = 0;
  std::int64_t memo_hits = 0;
  std::int64_t bound_prunes = 0;
  std::int64_t flow_checks = 0;
};

/// DFOCD: is the instance satisfiable within `tau` timesteps?
/// When satisfiable and `out_schedule` is non-null, a witness schedule of
/// length <= tau is stored there.
bool dfocd_feasible(const core::Instance& instance, std::int32_t tau,
                    const BnbOptions& options = {},
                    core::Schedule* out_schedule = nullptr,
                    BnbStats* stats = nullptr);

struct BnbMakespanResult {
  std::int32_t makespan = 0;
  core::Schedule schedule;
  BnbStats stats;
};

/// FOCD: minimum makespan by iterative deepening from the combinatorial
/// lower bound.  nullopt when unsatisfiable or `max_tau` exceeded.
std::optional<BnbMakespanResult> focd_min_makespan(
    const core::Instance& instance, std::int32_t max_tau,
    const BnbOptions& options = {});

}  // namespace ocd::exact
