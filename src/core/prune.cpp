#include "ocd/core/prune.hpp"

#include "ocd/core/validate.hpp"

namespace ocd::core {

namespace {

/// Pass 1: forward replay that drops every delivery of a token to a
/// vertex that already possesses it (including duplicates within the
/// same timestep, where the earliest listed send wins).
Schedule drop_duplicate_deliveries(const Instance& inst,
                                   const Schedule& schedule) {
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());

  std::vector<TokenSet> possession(n, TokenSet(universe));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession[static_cast<std::size_t>(v)] = inst.have(v);

  Schedule pruned;
  for (const Timestep& step : schedule.steps()) {
    // Tokens already granted to each vertex within this timestep.
    std::vector<TokenSet> granted(n, TokenSet(universe));
    Timestep kept;
    for (const ArcSend& send : step.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      const auto to = static_cast<std::size_t>(arc.to);
      TokenSet useful(send.tokens);
      useful -= possession[to];
      useful -= granted[to];
      granted[to] |= useful;
      if (!useful.empty()) kept.add(send.arc, useful);
    }
    for (VertexId v = 0; v < inst.num_vertices(); ++v)
      possession[static_cast<std::size_t>(v)] |=
          granted[static_cast<std::size_t>(v)];
    pruned.append(kept);
  }
  return pruned;
}

/// Pass 2: backward sweep keeping only deliveries of tokens the receiver
/// eventually uses — tokens it wants, or tokens it forwards in a kept
/// later move (possession for a send at step i must exist at the start
/// of step i, so intra-step chaining is correctly disallowed).
Schedule drop_unused_deliveries(const Instance& inst,
                                const Schedule& schedule) {
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());

  std::vector<TokenSet> needed(n, TokenSet(universe));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    needed[static_cast<std::size_t>(v)] = inst.want(v);

  std::vector<Timestep> kept_steps(schedule.steps().size());
  for (std::size_t i = schedule.steps().size(); i-- > 0;) {
    const Timestep& step = schedule.steps()[i];
    // Requirements created by this step's kept sends apply to earlier
    // steps only; stage them and merge after the whole step is filtered.
    std::vector<TokenSet> staged(n, TokenSet(universe));
    Timestep kept;
    for (const ArcSend& send : step.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      TokenSet useful(send.tokens);
      useful &= needed[static_cast<std::size_t>(arc.to)];
      if (useful.empty()) continue;
      // The sender needed to possess these tokens; if it does not hold
      // them initially, earlier deliveries to it must be retained.
      TokenSet from_network = useful - inst.have(arc.from);
      staged[static_cast<std::size_t>(arc.from)] |= from_network;
      kept.add(send.arc, useful);
    }
    for (std::size_t v = 0; v < n; ++v) needed[v] |= staged[v];
    kept_steps[i] = std::move(kept);
  }

  Schedule pruned;
  for (const Timestep& step : kept_steps) pruned.append(step);
  return pruned;
}

}  // namespace

Schedule prune(const Instance& inst, const Schedule& schedule) {
  Schedule result = drop_duplicate_deliveries(inst, schedule);
  result = drop_unused_deliveries(inst, result);
  result.trim();
  return result;
}

std::int64_t pruned_bandwidth(const Instance& inst, const Schedule& schedule) {
  return prune(inst, schedule).bandwidth();
}

}  // namespace ocd::core
