// Differential test: ReliableAdapter's per-arc timers against a
// verbatim copy of the map-based adapter they replaced.  The rewrite
// acks, frees and retransmits per arc in one walk before the inner
// policy plans, sends an arc's due tokens as one capacity-cut set, and
// files each fresh send as one timer, so it must reproduce the
// reference's RunResult bit for bit — schedule, per-step moves and
// losses, retransmissions, adapter drops, completion steps, uploads —
// and leave the same number of transfers in flight, over the five inner
// planners, four timeout/backoff settings, four loss models, link
// churn, acknowledgement lag (staleness, where acks arrive late and the
// inner policy resends tokens already in flight), word-boundary
// universes and file swarms.  One adapter object per (planner, timeout)
// serves every run, so state leaking from one run into the next shows
// up as a diverging run.  Two fixed cases follow: the lossy-swarm
// benchmark's shape, and equal capacities at 50% loss, where due
// tokens outrun the budget for many steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/faults/reliable.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/sim/stats.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace ocd::faults {
namespace {

// ---------------------------------------------------------------------
// Verbatim copy of the map-based adapter (modulo the class name).  Do
// not modernize it: it is the reference.
// ---------------------------------------------------------------------

using sim::KnowledgeClass;
using sim::StepPlan;
using sim::StepView;

class ReferenceReliableAdapter final : public sim::Policy {
 public:
  /// `base_timeout`: steps to wait for an acknowledgement before the
  /// first retransmission (doubles per retry up to `max_backoff`).
  explicit ReferenceReliableAdapter(sim::PolicyPtr inner,
                                    std::int32_t base_timeout = 2,
                                    std::int32_t max_backoff = 16);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override;

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;
  void finish_run(sim::RunStats& stats) override;

  [[nodiscard]] std::int64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  /// Inner-policy tokens trimmed because retransmissions had taken the
  /// arc's capacity (they never reached the wire).
  [[nodiscard]] std::int64_t trimmed_moves() const noexcept {
    return trimmed_moves_;
  }
  /// Transfers currently awaiting acknowledgement.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }

 private:
  struct InFlight {
    std::int64_t retry_at = 0;  ///< next step eligible for retransmission
    std::int32_t backoff = 0;   ///< current timeout (doubles per retry)
  };

  sim::PolicyPtr inner_;
  std::string name_;
  std::int32_t base_timeout_;
  std::int32_t max_backoff_;
  /// Ordered by (arc, token) so capacity contention resolves
  /// deterministically.
  std::map<std::pair<ArcId, TokenId>, InFlight> inflight_;
  std::int64_t retransmissions_ = 0;
  std::int64_t trimmed_moves_ = 0;
  // Per-step scratch, reused across steps (sized at reset).  Budgets are
  // flat per-arc arrays initialized lazily for touched arcs only and
  // cleaned up arc-by-arc at the start of the next step.
  sim::StepPlan scratch_;
  std::vector<std::int32_t> budget_remaining_;
  std::vector<char> budget_touched_;
  util::TokenMatrix planned_;  ///< per-arc tokens already on the wire
  std::vector<ArcId> touched_arcs_;
  TokenSet fresh_;
};

ReferenceReliableAdapter::ReferenceReliableAdapter(sim::PolicyPtr inner,
                                                   std::int32_t base_timeout,
                                                   std::int32_t max_backoff)
    : inner_(std::move(inner)),
      base_timeout_(base_timeout),
      max_backoff_(max_backoff) {
  OCD_EXPECTS(inner_ != nullptr);
  OCD_EXPECTS(base_timeout >= 1);
  OCD_EXPECTS(max_backoff >= base_timeout);
  name_ = std::string(inner_->name()) + "+reliable";
}

KnowledgeClass ReferenceReliableAdapter::knowledge_class() const {
  // Acknowledgements are read off peer possession snapshots, so the
  // adapter needs at least kLocalPeers; a better-informed inner policy
  // keeps its own class.
  return std::max(inner_->knowledge_class(), KnowledgeClass::kLocalPeers);
}

void ReferenceReliableAdapter::reset(const core::Instance& inst,
                                     std::uint64_t seed) {
  inner_->reset(inst, seed);
  inflight_.clear();
  retransmissions_ = 0;
  trimmed_moves_ = 0;
  const auto num_arcs = static_cast<std::size_t>(inst.graph().num_arcs());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  budget_remaining_.assign(num_arcs, 0);
  budget_touched_.assign(num_arcs, 0);
  planned_.reset(num_arcs, universe);
  touched_arcs_.clear();
  touched_arcs_.reserve(num_arcs);
  fresh_ = TokenSet(universe);
}

void ReferenceReliableAdapter::plan_step(const StepView& view,
                                         StepPlan& plan) {
  const std::int64_t step = view.step();
  const auto universe = static_cast<std::size_t>(view.num_tokens());

  // Implicit acks: a peer snapshot showing the token means it landed
  // (possession is monotone, so once seen it stays delivered).
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    const auto [arc, token] = it->first;
    const Arc& a = view.graph().arc(arc);
    if (view.peer_across(a.from, arc).test(token)) {
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }

  scratch_.rebind(view.graph(), {});
  inner_->plan_step(view, scratch_);
  if (scratch_.idle_marked()) plan.mark_idle();

  // Per-arc budget tracking, touched arcs only.  `planned` prevents a
  // token from being charged twice when a retransmission and the inner
  // policy pick the same (arc, token) this step.  The flat arrays are
  // cleaned up arc-by-arc from the previous step's touch list.
  for (const ArcId arc : touched_arcs_) {
    budget_touched_[static_cast<std::size_t>(arc)] = 0;
    planned_.row(static_cast<std::size_t>(arc)).clear();
  }
  touched_arcs_.clear();
  const auto budget_for = [&](ArcId arc) -> std::int32_t& {
    const auto ai = static_cast<std::size_t>(arc);
    if (!budget_touched_[ai]) {
      budget_touched_[ai] = 1;
      budget_remaining_[ai] = view.capacity(arc);
      touched_arcs_.push_back(arc);
    }
    return budget_remaining_[ai];
  };

  // Retransmissions first: recovering a lost token unblocks the
  // receiver now, while the inner policy's fresh sends can wait a turn.
  bool sent_any = false;
  for (auto& [key, entry] : inflight_) {
    if (step < entry.retry_at) continue;
    const auto [arc, token] = key;
    std::int32_t& remaining = budget_for(arc);
    if (remaining <= 0) continue;  // retry_at stays in the past:
                                   // eligible again next step
    plan.send(arc, token, universe);
    sent_any = true;
    planned_.row(static_cast<std::size_t>(arc)).set(token);
    --remaining;
    ++retransmissions_;
    entry.backoff = std::min(entry.backoff * 2, max_backoff_);
    entry.retry_at = step + entry.backoff;
  }

  // The inner policy's plan, trimmed to what the retransmissions left.
  for (const core::ArcSend& send : scratch_.sends()) {
    if (send.tokens.empty()) continue;
    std::int32_t& remaining = budget_for(send.arc);
    fresh_.assign(send.tokens);
    fresh_ -= planned_.row(static_cast<std::size_t>(send.arc));
    auto want = static_cast<std::int64_t>(fresh_.count());
    if (want > remaining) {
      trimmed_moves_ += want - std::max<std::int64_t>(remaining, 0);
      fresh_.truncate(
          static_cast<std::size_t>(std::max<std::int32_t>(remaining, 0)));
      want = static_cast<std::int64_t>(fresh_.count());
    }
    if (want == 0) continue;
    plan.send(send.arc, fresh_);
    sent_any = true;
    planned_.row(static_cast<std::size_t>(send.arc)) |= fresh_;
    remaining -= static_cast<std::int32_t>(want);
    fresh_.for_each([&](TokenId t) {
      inflight_.try_emplace({send.arc, t},
                            InFlight{step + base_timeout_, base_timeout_});
    });
  }

  // A quiet step while transfers await their backoff deadline is an
  // intentional pause, not a stall.
  if (!sent_any && !inflight_.empty()) plan.mark_idle();
}

void ReferenceReliableAdapter::finish_run(sim::RunStats& stats) {
  stats.retransmissions += retransmissions_;
  stats.adapter_dropped_moves += trimmed_moves_;
  inner_->finish_run(stats);
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

void expect_identical(const sim::RunResult& actual,
                      const sim::RunResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.success, expected.success) << label;
  EXPECT_EQ(actual.steps, expected.steps) << label;
  EXPECT_EQ(actual.bandwidth, expected.bandwidth) << label;
  EXPECT_EQ(actual.termination, expected.termination) << label;
  const sim::RunStats& a = actual.stats;
  const sim::RunStats& e = expected.stats;
  EXPECT_EQ(a.useful_moves, e.useful_moves) << label;
  EXPECT_EQ(a.redundant_moves, e.redundant_moves) << label;
  EXPECT_EQ(a.lost_moves, e.lost_moves) << label;
  EXPECT_EQ(a.moves_per_step, e.moves_per_step) << label;
  EXPECT_EQ(a.lost_per_step, e.lost_per_step) << label;
  EXPECT_EQ(a.retransmissions, e.retransmissions) << label;
  EXPECT_EQ(a.adapter_dropped_moves, e.adapter_dropped_moves) << label;
  EXPECT_EQ(a.completion_step, e.completion_step) << label;
  EXPECT_EQ(a.sent_by_vertex, e.sent_by_vertex) << label;
  ASSERT_EQ(actual.schedule.length(), expected.schedule.length()) << label;
  for (std::size_t i = 0; i < actual.schedule.steps().size(); ++i) {
    const core::Timestep as_step = actual.schedule.step(i);
    const core::SendRange as = as_step.sends();
    const core::Timestep es_step = expected.schedule.step(i);
    const core::SendRange es = es_step.sends();
    ASSERT_EQ(as.size(), es.size()) << label << " step " << i;
    for (std::size_t j = 0; j < as.size(); ++j) {
      EXPECT_EQ(as[j].arc, es[j].arc) << label << " step " << i;
      EXPECT_EQ(as[j].tokens, es[j].tokens) << label << " step " << i;
    }
  }
}

/// Runs `adapter` and a fresh reference with the same inner planner and
/// timeouts on `inst`, and expects identical results and tables; returns
/// the reference's result.  Each side gets its own loss model from
/// `make_loss` and, with `churn`, its own link churn: the stateful
/// models are reset by sim::run, so both sides see the same loss trace.
template <typename MakeLoss>
sim::RunResult expect_adapter_matches_reference(
    const core::Instance& inst, ReliableAdapter& adapter, const char* planner,
    std::pair<std::int32_t, std::int32_t> timeout, const MakeLoss& make_loss,
    bool churn, sim::SimOptions options, const std::string& label) {
  dynamics::LinkChurn expected_churn(0.2, 2);
  const auto expected_loss = make_loss();
  options.faults = expected_loss.get();
  if (churn) options.dynamics = &expected_churn;
  ReferenceReliableAdapter reference(heuristics::make_policy(planner),
                                     timeout.first, timeout.second);
  const sim::RunResult expected = sim::run(inst, reference, options);

  dynamics::LinkChurn actual_churn(0.2, 2);
  const auto actual_loss = make_loss();
  options.faults = actual_loss.get();
  if (churn) options.dynamics = &actual_churn;
  const sim::RunResult actual = sim::run(inst, adapter, options);

  expect_identical(actual, expected, label);
  EXPECT_EQ(adapter.in_flight(), reference.in_flight()) << label;
  EXPECT_EQ(adapter.retransmissions(), reference.retransmissions()) << label;
  EXPECT_EQ(adapter.trimmed_moves(), reference.trimmed_moves()) << label;
  return expected;
}

struct Case {
  std::string label;
  core::Instance instance;
  /// Scripted losses for this instance's arcs and tokens.
  std::shared_ptr<FaultPlan> script;
};

/// Drops each token with probability 1/2 on a quarter of the arcs at
/// each of the first 16 steps: enough to hit the early sends of every
/// planner, and to leave the retransmissions of later steps untouched.
std::shared_ptr<FaultPlan> scripted_losses(const core::Instance& inst,
                                           Rng& rng) {
  auto plan = std::make_shared<FaultPlan>();
  for (std::int64_t step = 0; step < 16; ++step) {
    for (ArcId arc = 0; arc < inst.graph().num_arcs(); ++arc) {
      if (rng.uniform_real() >= 0.25) continue;
      for (TokenId t = 0; t < inst.num_tokens(); ++t)
        if (rng.uniform_real() < 0.5) plan->drop(step, arc, t);
    }
  }
  return plan;
}

/// Broadcasts around the one-, two- and three-word universe edges on
/// small dense overlays, files from random senders on a sparse
/// overlay, and a small transit-stub swarm.
std::vector<Case> reference_cases(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Case> out;
  const auto add = [&](std::string label, core::Instance inst) {
    auto script = scripted_losses(inst, rng);
    out.push_back({std::move(label), std::move(inst), std::move(script)});
  };
  for (const std::int32_t tokens : {1, 63, 64, 65, 129}) {
    Digraph g = topology::random_overlay(
        static_cast<std::int32_t>(rng.uniform_int(8, 14)), rng);
    add("broadcast" + std::to_string(tokens),
        core::single_source_all_receivers(std::move(g), tokens, 0));
  }
  {
    const auto n = static_cast<std::int32_t>(rng.uniform_int(30, 50));
    Digraph g = topology::sparse_random_overlay(n, 4.0, rng);
    const auto files = static_cast<std::int32_t>(rng.uniform_int(2, 4));
    add("sparse-swarm" + std::to_string(n),
        core::subdivided_files_random_senders(std::move(g), 8 * files, files,
                                              rng));
  }
  {
    Rng graph_rng(seed ^ 0x7473ULL);
    Digraph g = topology::transit_stub(
        topology::transit_stub_options_for_size(24), graph_rng);
    add("transit-stub-swarm",
        core::subdivided_files_random_senders(std::move(g), 12, 3, rng));
  }
  return out;
}

constexpr std::array<const char*, 5> kPlanners = {
    "round-robin", "random", "local", "bandwidth", "global"};
constexpr std::array<std::pair<std::int32_t, std::int32_t>, 4> kTimeouts = {
    {{1, 1}, {1, 4}, {2, 16}, {3, 24}}};
constexpr std::array<const char*, 4> kLosses = {"uniform0.1", "uniform0.35",
                                                "gilbert-elliott", "script"};

/// Runs the reused adapters against fresh references on every case and
/// planner, under `runs_per_cell` configurations drawn from `seed`:
/// timeouts, loss model, link churn, staleness 0/1/3, and a run cut
/// short at 9 steps (so the table is full at the end) one time in four.
void expect_reused_adapters_match_reference(std::uint64_t seed,
                                            std::int32_t runs_per_cell) {
  std::map<std::pair<std::size_t, std::size_t>,
           std::unique_ptr<ReliableAdapter>>
      reused;
  for (std::size_t p = 0; p < kPlanners.size(); ++p) {
    for (std::size_t t = 0; t < kTimeouts.size(); ++t) {
      reused[{p, t}] = std::make_unique<ReliableAdapter>(
          heuristics::make_policy(kPlanners[p]), kTimeouts[t].first,
          kTimeouts[t].second);
    }
  }

  Rng draw(seed);
  std::int64_t retransmitted = 0;
  std::int64_t trimmed = 0;
  for (const Case& c : reference_cases(seed)) {
    for (std::size_t p = 0; p < kPlanners.size(); ++p) {
      for (std::int32_t r = 0; r < runs_per_cell; ++r) {
        const auto t = static_cast<std::size_t>(draw.uniform_int(0, 3));
        const auto loss = static_cast<std::size_t>(draw.uniform_int(0, 3));
        const bool churn = draw.uniform_int(0, 1) == 1;
        const std::int32_t staleness =
            std::array<std::int32_t, 3>{0, 1, 3}[draw.uniform_int(0, 2)];
        const bool cut = draw.uniform_int(0, 3) == 0;
        const std::string label =
            c.label + "/" + kPlanners[p] + "/timeout" +
            std::to_string(kTimeouts[t].first) + "-" +
            std::to_string(kTimeouts[t].second) + "/" + kLosses[loss] +
            (churn ? "/churn" : "") + "/stale" + std::to_string(staleness) +
            (cut ? "/cut" : "") + "/seed" + std::to_string(seed);
        SCOPED_TRACE(label);

        const auto make_loss = [&]() -> std::unique_ptr<FaultModel> {
          switch (loss) {
            case 0:
              return std::make_unique<UniformLoss>(0.1);
            case 1:
              return std::make_unique<UniformLoss>(0.35);
            case 2:
              return std::make_unique<GilbertElliott>(0.15, 0.4, 0.02, 0.9);
            default:
              return std::make_unique<FaultPlan>(*c.script);
          }
        };
        sim::SimOptions options;
        options.seed = seed + static_cast<std::uint64_t>(r);
        options.staleness = staleness;
        options.max_steps = cut ? 9 : 400;
        const sim::RunResult expected = expect_adapter_matches_reference(
            c.instance, *reused[{p, t}], kPlanners[p], kTimeouts[t],
            make_loss, churn, options, label);
        retransmitted += expected.stats.retransmissions;
        trimmed += expected.stats.adapter_dropped_moves;
      }
    }
  }
  // The sample must reach both of the adapter's contention paths.
  EXPECT_GT(retransmitted, 0);
  EXPECT_GT(trimmed, 0);
}

TEST(ReliableReference, FlatTableMatchesMapAdapter) {
  for (const std::uint64_t seed :
       {0x7265'6c01ULL, 0x7265'6c02ULL, 0x7265'6c03ULL}) {
    expect_reused_adapters_match_reference(seed, /*runs_per_cell=*/4);
  }
}

TEST(ReliableReference, LossySwarmMatchesMapAdapter) {
  // The lossy-swarm benchmark's shape: a 300-vertex transit-stub, 512
  // tokens in 16 files from random senders, 10% uniform loss, default
  // timeouts, over the four inner planners the benchmark runs.
  Rng rng(0x7265'6c11ULL);
  Digraph g = topology::transit_stub(
      topology::transit_stub_options_for_size(300), rng);
  const core::Instance inst =
      core::subdivided_files_random_senders(std::move(g), 512, 16, rng);
  for (const char* planner : {"random", "local", "global", "bandwidth"}) {
    ReliableAdapter adapter(heuristics::make_policy(planner));
    sim::SimOptions options;
    options.seed = 1;
    const sim::RunResult expected = expect_adapter_matches_reference(
        inst, adapter, planner, {2, 16},
        [] { return std::make_unique<UniformLoss>(0.1); }, /*churn=*/false,
        options, std::string("lossy-swarm/") + planner);
    EXPECT_TRUE(expected.success) << planner;
    EXPECT_GT(expected.stats.retransmissions, 0) << planner;
  }
}

TEST(ReliableReference, SustainedOverloadMatchesMapAdapter) {
  // Equal capacities at 50% loss with a short backoff cap: due tokens
  // outrun the budget for many steps, so a retransmission sends the
  // lowest due tokens and leaves the rest overdue, and fresh sends are
  // trimmed.  At capacity 1 every timer holds one token; at capacity 2
  // a fresh timer holds two, and the budget's cut often falls inside a
  // due timer, splitting it into a re-armed and an overdue part.
  std::int64_t trimmed = 0;
  for (const std::int32_t capacity : {1, 2}) {
    Rng rng(0x7265'6c20ULL + static_cast<std::uint64_t>(capacity));
    topology::RandomGraphOptions graph_options;
    graph_options.capacities = {capacity, capacity};
    const core::Instance broadcast = core::single_source_all_receivers(
        topology::random_overlay(16, graph_options, rng), 65, 0);
    const core::Instance swarm = core::subdivided_files_random_senders(
        topology::random_overlay(24, graph_options, rng), 96, 3, rng);
    for (const auto& [name, inst] :
         {std::pair<const char*, const core::Instance*>{"broadcast",
                                                        &broadcast},
          {"swarm", &swarm}}) {
      for (const char* planner : kPlanners) {
        for (const auto& timeout : {std::pair{1, 2}, std::pair{2, 4}}) {
          for (const std::int32_t staleness : {0, 1}) {
            const std::string label =
                std::string(name) + "/capacity" + std::to_string(capacity) +
                "/" + planner + "/timeout" + std::to_string(timeout.first) +
                "-" + std::to_string(timeout.second) + "/stale" +
                std::to_string(staleness);
            SCOPED_TRACE(label);
            ReliableAdapter adapter(heuristics::make_policy(planner),
                                    timeout.first, timeout.second);
            sim::SimOptions options;
            options.seed = 29;
            options.staleness = staleness;
            options.max_steps = 400;
            const sim::RunResult expected = expect_adapter_matches_reference(
                *inst, adapter, planner, timeout,
                [] { return std::make_unique<UniformLoss>(0.5); },
                /*churn=*/false, options, label);
            EXPECT_GT(expected.stats.retransmissions, 0) << label;
            trimmed += expected.stats.adapter_dropped_moves;
          }
        }
      }
    }
  }
  EXPECT_GT(trimmed, 0);
}

}  // namespace
}  // namespace ocd::faults
