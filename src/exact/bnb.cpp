#include "ocd/exact/bnb.hpp"

#include <algorithm>
#include <unordered_map>

#include "ocd/core/bounds.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/flow/max_flow.hpp"

namespace ocd::exact {

namespace {

// ---------------------------------------------------------------------
// Possession-state memoization key.
// ---------------------------------------------------------------------
struct StateKey {
  std::vector<std::uint64_t> words;
  std::size_t cached_hash = 0;

  bool operator==(const StateKey& other) const {
    return words == other.words;
  }
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const noexcept {
    return key.cached_hash;
  }
};

StateKey make_key(const std::vector<TokenSet>& possession) {
  StateKey key;
  for (const TokenSet& set : possession)
    key.words.insert(key.words.end(), set.words().begin(), set.words().end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : key.words) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 32;
  }
  key.cached_hash = static_cast<std::size_t>(h);
  return key;
}

// ---------------------------------------------------------------------
// The search itself.
// ---------------------------------------------------------------------
class Searcher {
 public:
  Searcher(const core::Instance& inst, const BnbOptions& options,
           BnbStats& stats)
      : inst_(inst),
        options_(options),
        stats_(stats),
        universe_(static_cast<std::size_t>(inst.num_tokens())) {}

  bool feasible(std::int32_t tau, core::Schedule* out_schedule) {
    std::vector<TokenSet> possession;
    possession.reserve(static_cast<std::size_t>(inst_.num_vertices()));
    for (VertexId v = 0; v < inst_.num_vertices(); ++v)
      possession.push_back(inst_.have(v));
    std::vector<core::Timestep> steps;
    const bool ok = search(possession, tau, steps);
    if (ok && out_schedule != nullptr) {
      *out_schedule = core::Schedule{};
      for (const core::Timestep& step : steps) out_schedule->append(step);
      out_schedule->trim();
    }
    return ok;
  }

 private:
  [[nodiscard]] bool done(const std::vector<TokenSet>& possession) const {
    for (VertexId v = 0; v < inst_.num_vertices(); ++v) {
      if (!inst_.want(v).is_subset_of(possession[static_cast<std::size_t>(v)]))
        return false;
    }
    return true;
  }

  /// Exact one-step feasibility via max-flow; on success appends the
  /// realizing timestep to `steps`.
  bool final_step(const std::vector<TokenSet>& possession,
                  std::vector<core::Timestep>& steps) {
    ++stats_.flow_checks;
    // Collect outstanding needs.
    struct Need {
      VertexId vertex;
      TokenId token;
    };
    std::vector<Need> needs;
    for (VertexId v = 0; v < inst_.num_vertices(); ++v) {
      const TokenSet missing =
          inst_.want(v) - possession[static_cast<std::size_t>(v)];
      missing.for_each([&](TokenId t) { needs.push_back({v, t}); });
    }
    if (needs.empty()) return true;

    const int num_arcs = inst_.graph().num_arcs();
    const int source = 0;
    const int arc_base = 1;
    const int need_base = arc_base + num_arcs;
    const int sink = need_base + static_cast<int>(needs.size());
    flow_.reset(sink + 1);

    for (ArcId a = 0; a < num_arcs; ++a)
      flow_.add_edge(source, arc_base + a, inst_.graph().arc(a).capacity);
    // arc -> need edges (record ids for schedule reconstruction).
    std::vector<std::pair<int, std::pair<ArcId, std::size_t>>> transfer_edges;
    for (std::size_t k = 0; k < needs.size(); ++k) {
      const auto& [v, t] = needs[k];
      for (ArcId a : inst_.graph().in_arcs(v)) {
        const VertexId u = inst_.graph().arc(a).from;
        if (possession[static_cast<std::size_t>(u)].test(t)) {
          const int id =
              flow_.add_edge(arc_base + a, need_base + static_cast<int>(k), 1);
          transfer_edges.push_back({id, {a, k}});
        }
      }
      flow_.add_edge(need_base + static_cast<int>(k), sink, 1);
    }

    if (flow_.run(source, sink) !=
        static_cast<flow::MaxFlow::Flow>(needs.size()))
      return false;

    core::Timestep step;
    for (const auto& [edge_id, key] : transfer_edges) {
      if (flow_.flow(edge_id) > 0) {
        const auto& [a, k] = key;
        step.add(a, needs[k].token, universe_);
      }
    }
    steps.push_back(std::move(step));
    return true;
  }

  /// Enumerates every dominance-reduced plan for one timestep and
  /// recurses.  Plans are built arc by arc; `steps` receives the chosen
  /// timesteps front-to-back on success.
  bool search(std::vector<TokenSet>& possession, std::int32_t remaining,
              std::vector<core::Timestep>& steps) {
    if (done(possession)) return true;
    if (remaining <= 0) return false;
    if (++stats_.nodes > options_.max_nodes)
      throw Error("bnb: node budget exhausted — instance too large");

    if (core::makespan_lower_bound(inst_, possession) > remaining) {
      ++stats_.bound_prunes;
      return false;
    }
    if (remaining == 1) return final_step(possession, steps);

    const StateKey key = make_key(possession);
    if (const auto it = memo_.find(key);
        it != memo_.end() && it->second >= remaining) {
      ++stats_.memo_hits;
      return false;
    }

    // Arcs with a nonempty useful set, each with its send choices.
    struct ArcChoice {
      ArcId arc;
      std::vector<TokenId> useful;
      std::int32_t send_count;  // == min(capacity, useful.size())
    };
    std::vector<ArcChoice> choices;
    std::int64_t plan_estimate = 1;
    for (ArcId a = 0; a < inst_.graph().num_arcs(); ++a) {
      const Arc& arc = inst_.graph().arc(a);
      const TokenSet useful_set =
          possession[static_cast<std::size_t>(arc.from)] -
          possession[static_cast<std::size_t>(arc.to)];
      if (useful_set.empty()) continue;
      ArcChoice choice;
      choice.arc = a;
      choice.useful = useful_set.to_vector();
      choice.send_count = std::min<std::int32_t>(
          arc.capacity, static_cast<std::int32_t>(choice.useful.size()));
      // Multiply the running estimate by C(|useful|, send_count),
      // saturating well before overflow.
      const auto n = static_cast<std::int64_t>(choice.useful.size());
      std::int64_t combos = 1;
      for (std::int32_t i = 0; i < choice.send_count; ++i) {
        combos = combos * (n - i) / (i + 1);
        if (combos > options_.max_plans_per_step) break;
      }
      plan_estimate = plan_estimate * std::max<std::int64_t>(combos, 1);
      if (plan_estimate > options_.max_plans_per_step)
        throw Error("bnb: per-step plan count exceeds budget");
      choices.push_back(std::move(choice));
    }

    // Depth-first over arc choices, then recurse one timestep deeper.
    core::Timestep plan;
    const bool ok =
        enumerate(possession, remaining, steps, choices, 0, plan);
    if (!ok) {
      auto [it, inserted] = memo_.try_emplace(key, remaining);
      if (!inserted) it->second = std::max(it->second, remaining);
    }
    return ok;
  }

  bool enumerate(std::vector<TokenSet>& possession, std::int32_t remaining,
                 std::vector<core::Timestep>& steps, const auto& choices,
                 std::size_t index, core::Timestep& plan) {
    if (index == choices.size()) {
      // Apply the plan, recurse, undo.
      std::vector<TokenSet> next = possession;
      for (const core::ArcSend& send : plan.sends()) {
        next[static_cast<std::size_t>(inst_.graph().arc(send.arc).to)] |=
            send.tokens;
      }
      std::vector<core::Timestep> suffix;
      if (search(next, remaining - 1, suffix)) {
        steps.push_back(plan);  // copy: plan continues to mutate upstream
        for (auto& s : suffix) steps.push_back(std::move(s));
        return true;
      }
      return false;
    }

    const auto& choice = choices[index];
    const auto n = static_cast<std::int32_t>(choice.useful.size());
    const std::int32_t k = choice.send_count;

    // Enumerate k-combinations of choice.useful via index vector.
    std::vector<std::int32_t> pick(static_cast<std::size_t>(k));
    for (std::int32_t i = 0; i < k; ++i) pick[static_cast<std::size_t>(i)] = i;
    while (true) {
      TokenSet send(universe_);
      for (std::int32_t i : pick)
        send.set(choice.useful[static_cast<std::size_t>(i)]);
      plan.add(choice.arc, send);
      if (enumerate(possession, remaining, steps, choices, index + 1, plan))
        return true;
      // Remove this arc's tokens again (plan is shared across siblings).
      plan.erase(choice.arc);

      // Next combination.
      std::int32_t i = k - 1;
      while (i >= 0 &&
             pick[static_cast<std::size_t>(i)] == n - k + i)
        --i;
      if (i < 0) break;
      ++pick[static_cast<std::size_t>(i)];
      for (std::int32_t j = i + 1; j < k; ++j)
        pick[static_cast<std::size_t>(j)] = pick[static_cast<std::size_t>(j - 1)] + 1;
    }
    return false;
  }

  const core::Instance& inst_;
  BnbOptions options_;
  BnbStats& stats_;
  std::size_t universe_;
  std::unordered_map<StateKey, std::int32_t, StateKeyHash> memo_;
  flow::MaxFlow flow_;  ///< final_step's network, rebuilt per call
};

}  // namespace

bool dfocd_feasible(const core::Instance& inst, std::int32_t tau,
                    const BnbOptions& options, core::Schedule* out_schedule,
                    BnbStats* stats) {
  OCD_EXPECTS(tau >= 0);
  // No schedule of any length exists, and the bound pass the search
  // prunes with throws on a wanted token no holder can reach.
  if (!inst.is_satisfiable()) return false;
  BnbStats local_stats;
  BnbStats& s = stats != nullptr ? *stats : local_stats;
  Searcher searcher(inst, options, s);
  const bool ok = searcher.feasible(tau, out_schedule);
  if (ok && out_schedule != nullptr) {
    OCD_ENSURES(core::is_successful(inst, *out_schedule));
    OCD_ENSURES(out_schedule->length() <= tau);
  }
  return ok;
}

std::optional<BnbMakespanResult> focd_min_makespan(const core::Instance& inst,
                                                   std::int32_t max_tau,
                                                   const BnbOptions& options) {
  if (inst.is_trivially_satisfied())
    return BnbMakespanResult{0, core::Schedule{}, {}};
  if (!inst.is_satisfiable()) return std::nullopt;

  const auto lb = static_cast<std::int32_t>(
      std::max<std::int64_t>(1, core::makespan_lower_bound(inst)));
  BnbMakespanResult result;
  for (std::int32_t tau = lb; tau <= max_tau; ++tau) {
    if (dfocd_feasible(inst, tau, options, &result.schedule, &result.stats)) {
      result.makespan = tau;
      return result;
    }
  }
  return std::nullopt;
}

}  // namespace ocd::exact
