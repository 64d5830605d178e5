// Lower/upper bound machinery (§5.1 of the paper):
//
//  * remaining-bandwidth lower bound — one move per (vertex, token) pair
//    wanted but not possessed;
//  * distance lower bound on makespan — a token must travel at least the
//    hop distance from its nearest holder;
//  * the paper's capacity-aware closure bound M_i(v) = i +
//    ceil(|T outside the radius-i in-closure of v| / in-capacity(v)),
//    maximized over i and v, including the explicit one-step lookahead
//    special case;
//  * a bandwidth upper bound from serial Steiner-tree distribution
//    (§3.3: optimal bandwidth ignoring time is a min-cost Steiner tree
//    per token; we use the 2-approximate shortest-path heuristic, see
//    steiner.hpp).
#pragma once

#include <span>

#include "ocd/core/instance.hpp"

namespace ocd::core {

/// Bandwidth LB: the number of (v, t) pairs wanted but not held.
std::int64_t bandwidth_lower_bound(const Instance& instance);

/// Makespan LB: max over wanted (v, t) of hop distance from the nearest
/// holder of t to v.  Returns 0 when nothing is outstanding; throws
/// ocd::Error when a wanted token has no holder or is unreachable.
/// Both makespan bounds share one pass: a multi-source BFS per
/// outstanding token from its holders, O(T·(n + m)) time and
/// O(n + outstanding pairs) memory.
std::int64_t distance_lower_bound(const Instance& instance);

/// The paper's M_i(v) closure bound, maximized exactly over every
/// vertex v and every radius i below v's farthest holder distance:
/// i + ceil(#{missing tokens with no holder within i hops} /
/// in_capacity(v)).  Evaluated at i = d - 1 for each holder distance d,
/// where it peaks between breakpoints; so it is >= distance_lower_bound
/// and >= ceil(#missing / in_capacity(v)) for every v.  Sorting each
/// vertex's holder distances adds O(Σ missing · log) to the shared
/// pass.  Throws as distance_lower_bound does.
std::int64_t makespan_lower_bound(const Instance& instance);

/// makespan_lower_bound with `possession` (one set per vertex) in place
/// of the instance's haves: a lower bound on the steps still needed
/// from a mid-schedule state.  The branch-and-bound search prunes with
/// it.  Throws as makespan_lower_bound does.
std::int64_t makespan_lower_bound(const Instance& instance,
                                  std::span<const TokenSet> possession);

/// One-step lookahead (§5.1 "special case"): 0 when done, 1 when every
/// outstanding token sits at an in-neighbor within capacity, else 2.
std::int64_t one_step_lookahead_bound(const Instance& instance,
                                      std::span<const TokenSet> possession);

/// Bandwidth *upper* bound for EOCD: sum over tokens of the arc count of
/// a 2-approximate Steiner tree from the token's holders to its wanters
/// (§3.3 serial distribution).  Throws when unsatisfiable.
std::int64_t bandwidth_upper_bound_serial_steiner(const Instance& instance);

}  // namespace ocd::core
