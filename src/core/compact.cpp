#include "ocd/core/compact.hpp"

#include "ocd/core/prune.hpp"
#include "ocd/core/validate.hpp"

namespace ocd::core {

Schedule compact_schedule(const Instance& inst, const Schedule& schedule) {
  // Flatten to single moves in (original step, listing order) — the
  // earliest-original-first priority guarantees no move is placed later
  // than its original step, so the result is never longer.
  struct Move {
    ArcId arc;
    TokenId token;
    bool placed = false;
  };
  std::vector<Move> moves;
  for (const Timestep& step : schedule.steps()) {
    for (const ArcSend& send : step.sends()) {
      send.tokens.for_each(
          [&](TokenId t) { moves.push_back(Move{send.arc, t, false}); });
    }
  }

  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  std::vector<TokenSet> possession(n, TokenSet(universe));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession[static_cast<std::size_t>(v)] = inst.have(v);

  Schedule result;
  std::size_t remaining = moves.size();
  std::vector<std::int32_t> capacity_left(
      static_cast<std::size_t>(inst.graph().num_arcs()));

  while (remaining > 0) {
    for (ArcId a = 0; a < inst.graph().num_arcs(); ++a)
      capacity_left[static_cast<std::size_t>(a)] = inst.graph().arc(a).capacity;

    Timestep step;
    std::vector<TokenSet> next = possession;
    bool progress = false;
    for (Move& move : moves) {
      if (move.placed) continue;
      const Arc& arc = inst.graph().arc(move.arc);
      if (!possession[static_cast<std::size_t>(arc.from)].test(move.token))
        continue;
      // An identical (arc, token) transfer already in this step makes
      // this move redundant — fold it in without spending capacity.
      bool already = false;
      for (const ArcSend& send : step.sends()) {
        if (send.arc == move.arc && send.tokens.test(move.token)) {
          already = true;
          break;
        }
      }
      if (already) {
        move.placed = true;
        --remaining;
        progress = true;
        continue;
      }
      if (capacity_left[static_cast<std::size_t>(move.arc)] <= 0) continue;
      step.add(move.arc, move.token, universe);
      --capacity_left[static_cast<std::size_t>(move.arc)];
      next[static_cast<std::size_t>(arc.to)].set(move.token);
      move.placed = true;
      --remaining;
      progress = true;
    }
    OCD_ASSERT_MSG(progress,
                   "compact_schedule: input schedule must be valid");
    possession = std::move(next);
    result.append(step);
  }
  result.trim();
  OCD_ENSURES(result.length() <= schedule.length() ||
              schedule.bandwidth() == 0);
  return result;
}

Schedule optimize_schedule(const Instance& inst, const Schedule& schedule) {
  return compact_schedule(inst, prune(inst, schedule));
}

}  // namespace ocd::core
