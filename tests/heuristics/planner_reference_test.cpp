// Differential test: the rank-space planner kernels against verbatim
// copies of the pre-kernel ("seed") implementations.  The rewritten
// GlobalGreedyPolicy (word-parallel picks, incremental candidate sets,
// wave mask, and a wave loop that sleeps arcs under epoch stamps, ends
// a pass once every rank is capped and compacts its list behind a
// moving start) and the refactored rarest-random / bandwidth pickers
// must produce bit-identical RunResults — success, steps, bandwidth,
// useful/redundant split, per-step moves, completion steps, upload
// counts, and the full recorded schedule — across policies, seeds and
// staleness levels.  GlobalWaveLoopFuzz drives the wave loop through
// the few-token sparse regime where nearly every pass ends early.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>
#include <string>

#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace ocd::heuristics {
namespace {

// ---------------------------------------------------------------------
// Verbatim copies of the pre-rewrite plan_step implementations (modulo
// class names).  Do not modernize these: they are the reference.
// ---------------------------------------------------------------------

class ReferenceGlobalGreedy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "global"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance&, std::uint64_t seed) override {
    rng_ = Rng(seed);
  }

  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override {
    const Digraph& graph = view.graph();
    const core::Instance& inst = view.instance();
    const auto& possession = view.global_possession();
    const auto n = static_cast<std::size_t>(graph.num_vertices());
    const auto universe = static_cast<std::size_t>(view.num_tokens());
    const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());

    const auto holders = view.aggregate_holders();
    std::vector<TokenId> rarity_order(universe);
    std::iota(rarity_order.begin(), rarity_order.end(), 0);
    rng_.shuffle(rarity_order);
    std::stable_sort(rarity_order.begin(), rarity_order.end(),
                     [&](TokenId a, TokenId b) {
                       return holders[static_cast<std::size_t>(a)] <
                              holders[static_cast<std::size_t>(b)];
                     });

    std::vector<TokenSet> candidates(num_arcs, TokenSet(universe));
    std::vector<std::int32_t> remaining(num_arcs, 0);
    bool anything = false;
    for (ArcId a = 0; a < graph.num_arcs(); ++a) {
      const Arc& arc = graph.arc(a);
      TokenSet cand(possession.row(static_cast<std::size_t>(arc.from)));
      cand -= possession.row(static_cast<std::size_t>(arc.to));
      anything = anything || !cand.empty();
      candidates[static_cast<std::size_t>(a)] = std::move(cand);
      remaining[static_cast<std::size_t>(a)] = view.capacity(a);
    }
    if (!anything) return;

    std::vector<TokenSet> outstanding(n, TokenSet(universe));
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      outstanding[static_cast<std::size_t>(v)] =
          inst.want(v) - possession.row(static_cast<std::size_t>(v));
    }

    std::vector<TokenSet> granted(n, TokenSet(universe));
    std::vector<std::int32_t> grant_count(universe, 0);

    std::int32_t wave = 0;
    while (true) {
      bool progress = false;
      bool exhausted = true;
      for (ArcId a = 0; a < graph.num_arcs(); ++a) {
        if (remaining[static_cast<std::size_t>(a)] <= 0) continue;
        const auto head = static_cast<std::size_t>(graph.arc(a).to);
        TokenSet cand = candidates[static_cast<std::size_t>(a)];
        cand -= granted[head];
        if (cand.empty()) continue;
        exhausted = false;

        const TokenSet wanted_cand = cand & outstanding[head];
        TokenId pick = -1;
        const std::array<const TokenSet*, 2> pools{&wanted_cand, &cand};
        for (const TokenSet* pool : pools) {
          for (TokenId t : rarity_order) {
            if (pool->test(t) &&
                grant_count[static_cast<std::size_t>(t)] <= wave) {
              pick = t;
              break;
            }
          }
          if (pick >= 0) break;
        }
        if (pick < 0) continue;  // every candidate is over the wave cap

        plan.send(a, pick, universe);
        granted[head].set(pick);
        ++grant_count[static_cast<std::size_t>(pick)];
        --remaining[static_cast<std::size_t>(a)];
        progress = true;
      }
      if (exhausted) break;
      if (!progress) ++wave;
    }
  }

 private:
  Rng rng_{1};
};

class ReferenceRarestRandom final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "local"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kLocalAggregate;
  }

  void reset(const core::Instance&, std::uint64_t seed) override {
    rng_ = Rng(seed);
  }

  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override {
    const Digraph& graph = view.graph();
    const auto universe = static_cast<std::size_t>(view.num_tokens());
    const auto holders = view.aggregate_holders();
    const auto need = view.aggregate_need();

    std::vector<TokenId> rarity_order(universe);
    std::iota(rarity_order.begin(), rarity_order.end(), 0);
    rng_.shuffle(rarity_order);
    std::stable_sort(
        rarity_order.begin(), rarity_order.end(), [&](TokenId a, TokenId b) {
          const bool needed_a = need[static_cast<std::size_t>(a)] > 0;
          const bool needed_b = need[static_cast<std::size_t>(b)] > 0;
          if (needed_a != needed_b) return needed_a;
          return holders[static_cast<std::size_t>(a)] <
                 holders[static_cast<std::size_t>(b)];
        });

    std::vector<TokenSet> requests(static_cast<std::size_t>(graph.num_arcs()),
                                   TokenSet(universe));
    std::vector<std::int32_t> budget(
        static_cast<std::size_t>(graph.num_arcs()));
    for (ArcId a = 0; a < graph.num_arcs(); ++a)
      budget[static_cast<std::size_t>(a)] = view.capacity(a);

    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const TokenSetView mine = view.own_possession(v);
      const auto in_arcs = graph.in_arcs(v);
      if (in_arcs.empty()) continue;

      std::vector<TokenSet> offered;
      offered.reserve(in_arcs.size());
      bool anything = false;
      for (ArcId a : in_arcs) {
        TokenSet tokens(view.peer_possession(v, graph.arc(a).from));
        tokens -= mine;
        anything = anything || !tokens.empty();
        offered.push_back(std::move(tokens));
      }
      if (!anything) continue;

      std::int64_t total_budget = 0;
      for (ArcId a : in_arcs)
        total_budget += budget[static_cast<std::size_t>(a)];

      const TokenSet wanted = view.own_want(v) - mine;
      for (const bool wanted_pass : {true, false}) {
        if (total_budget <= 0) break;
        for (TokenId t : rarity_order) {
          if (total_budget <= 0) break;
          if (wanted.test(t) != wanted_pass) continue;
          if (mine.test(t)) continue;
          bool requested = false;
          for (std::size_t k = 0; k < in_arcs.size() && !requested; ++k)
            requested = requests[static_cast<std::size_t>(in_arcs[k])].test(t);
          if (requested) continue;
          std::int32_t best = -1;
          std::int32_t best_budget = 0;
          for (std::size_t k = 0; k < in_arcs.size(); ++k) {
            const ArcId a = in_arcs[k];
            if (!offered[k].test(t)) continue;
            const std::int32_t b = budget[static_cast<std::size_t>(a)];
            if (b > best_budget) {
              best_budget = b;
              best = a;
            }
          }
          if (best >= 0) {
            requests[static_cast<std::size_t>(best)].set(t);
            --budget[static_cast<std::size_t>(best)];
            --total_budget;
          }
        }
      }
    }

    bool sent = false;
    for (ArcId a = 0; a < graph.num_arcs(); ++a) {
      if (!requests[static_cast<std::size_t>(a)].empty()) {
        plan.send(a, requests[static_cast<std::size_t>(a)]);
        sent = true;
      }
    }
    if (!sent) plan.mark_idle();
  }

 private:
  Rng rng_{1};
};

class ReferenceBandwidthSaver final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "bandwidth"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override {
    const Digraph& graph = view.graph();
    const core::Instance& inst = view.instance();
    const auto& possession = view.global_possession();
    const auto n = static_cast<std::size_t>(graph.num_vertices());
    const auto universe = static_cast<std::size_t>(view.num_tokens());

    std::vector<TokenSet> allowed(n, TokenSet(universe));

    std::vector<std::int32_t> frontier_dist(n);
    std::vector<VertexId> witness(n);
    for (TokenId t = 0; t < view.num_tokens(); ++t) {
      std::vector<VertexId> needy;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (inst.want(v).test(t) &&
            !possession.row(static_cast<std::size_t>(v)).test(t))
          needy.push_back(v);
      }
      if (needy.empty()) continue;
      for (VertexId v : needy) allowed[static_cast<std::size_t>(v)].set(t);

      std::fill(frontier_dist.begin(), frontier_dist.end(), -1);
      std::queue<VertexId> bfs;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (possession.row(static_cast<std::size_t>(v)).test(t)) continue;
        for (ArcId a : graph.in_arcs(v)) {
          if (possession.row(static_cast<std::size_t>(graph.arc(a).from))
                  .test(t)) {
            frontier_dist[static_cast<std::size_t>(v)] = 0;
            witness[static_cast<std::size_t>(v)] = v;
            bfs.push(v);
            break;
          }
        }
      }
      if (bfs.empty()) continue;

      while (!bfs.empty()) {
        const VertexId u = bfs.front();
        bfs.pop();
        for (ArcId a : graph.out_arcs(u)) {
          const VertexId w = graph.arc(a).to;
          if (frontier_dist[static_cast<std::size_t>(w)] < 0) {
            frontier_dist[static_cast<std::size_t>(w)] =
                frontier_dist[static_cast<std::size_t>(u)] + 1;
            witness[static_cast<std::size_t>(w)] =
                witness[static_cast<std::size_t>(u)];
            bfs.push(w);
          }
        }
      }
      for (VertexId v : needy) {
        if (frontier_dist[static_cast<std::size_t>(v)] >= 0) {
          allowed[static_cast<std::size_t>(
                      witness[static_cast<std::size_t>(v)])]
              .set(t);
        }
      }
    }

    const auto holders = view.aggregate_holders();
    std::vector<TokenId> rarity_order(universe);
    std::iota(rarity_order.begin(), rarity_order.end(), 0);
    std::stable_sort(rarity_order.begin(), rarity_order.end(),
                     [&](TokenId a, TokenId b) {
                       return holders[static_cast<std::size_t>(a)] <
                              holders[static_cast<std::size_t>(b)];
                     });

    for (ArcId a = 0; a < graph.num_arcs(); ++a) {
      const Arc& arc = graph.arc(a);
      TokenSet candidates(possession.row(static_cast<std::size_t>(arc.from)));
      candidates -= possession.row(static_cast<std::size_t>(arc.to));
      candidates &= allowed[static_cast<std::size_t>(arc.to)];
      if (candidates.empty()) continue;

      const auto capacity = static_cast<std::size_t>(view.capacity(a));
      if (capacity == 0) continue;
      if (candidates.count() <= capacity) {
        plan.send(a, candidates);
        continue;
      }
      const TokenSet needs = candidates & inst.want(arc.to);
      TokenSet batch(universe);
      std::size_t filled = 0;
      for (const bool need_pass : {true, false}) {
        for (TokenId t : rarity_order) {
          if (filled == capacity) break;
          if (!candidates.test(t) || batch.test(t)) continue;
          if (needs.test(t) != need_pass) continue;
          batch.set(t);
          ++filled;
        }
      }
      plan.send(a, batch);
    }
  }
};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

sim::PolicyPtr make_reference(std::string_view name) {
  if (name == "global") return std::make_unique<ReferenceGlobalGreedy>();
  if (name == "local") return std::make_unique<ReferenceRarestRandom>();
  if (name == "bandwidth") return std::make_unique<ReferenceBandwidthSaver>();
  throw Error("no reference for policy: " + std::string(name));
}

void expect_identical(const sim::RunResult& actual,
                      const sim::RunResult& expected,
                      const std::string& label) {
  EXPECT_EQ(actual.success, expected.success) << label;
  EXPECT_EQ(actual.steps, expected.steps) << label;
  EXPECT_EQ(actual.bandwidth, expected.bandwidth) << label;
  EXPECT_EQ(actual.stats.useful_moves, expected.stats.useful_moves) << label;
  EXPECT_EQ(actual.stats.redundant_moves, expected.stats.redundant_moves)
      << label;
  EXPECT_EQ(actual.stats.moves_per_step, expected.stats.moves_per_step)
      << label;
  EXPECT_EQ(actual.stats.completion_step, expected.stats.completion_step)
      << label;
  EXPECT_EQ(actual.stats.sent_by_vertex, expected.stats.sent_by_vertex)
      << label;
  ASSERT_EQ(actual.schedule.length(), expected.schedule.length()) << label;
  for (std::size_t i = 0; i < actual.schedule.steps().size(); ++i) {
    const auto& a = actual.schedule.steps()[i].sends();
    const auto& e = expected.schedule.steps()[i].sends();
    ASSERT_EQ(a.size(), e.size()) << label << " step " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].arc, e[j].arc) << label << " step " << i;
      EXPECT_EQ(a[j].tokens, e[j].tokens) << label << " step " << i;
    }
  }
}

void compare(const core::Instance& inst, const std::string& policy_name,
             const sim::SimOptions& options, const std::string& label) {
  auto rewritten = make_policy(policy_name);
  auto reference = make_reference(policy_name);
  const sim::RunResult actual = sim::run(inst, *rewritten, options);
  const sim::RunResult expected = sim::run(inst, *reference, options);
  expect_identical(actual, expected, label + "/" + policy_name);
}

std::vector<core::Instance> test_instances() {
  std::vector<core::Instance> out;
  out.push_back(core::figure1_instance());
  out.push_back(core::adversarial_path(5, 4, 2));
  {
    Rng rng(51);
    Digraph g = topology::random_overlay(16, rng);
    out.push_back(core::single_source_all_receivers(std::move(g), 11, 0));
  }
  {
    Rng rng(53);
    Digraph g = topology::random_overlay(20, rng);
    out.push_back(
        core::subdivided_files_random_senders(std::move(g), 12, 3, rng));
  }
  {
    // Word-boundary universes: 64 and 65 tokens cross the 63/64-bit
    // edge inside the rank-space kernels.
    Rng rng(57);
    Digraph g = topology::random_overlay(12, rng);
    out.push_back(core::single_source_all_receivers(std::move(g), 64, 0));
  }
  {
    Rng rng(59);
    Digraph g = topology::random_overlay(12, rng);
    out.push_back(core::single_source_all_receivers(std::move(g), 65, 0));
  }
  {
    const auto opt = topology::transit_stub_options_for_size(24);
    Rng rng(61);
    Digraph g = topology::transit_stub(opt, rng);
    out.push_back(core::single_source_all_receivers(std::move(g), 10, 0));
  }
  return out;
}

const char* kRewritten[] = {"global", "local", "bandwidth"};

TEST(PlannerReference, AllSeedsDefaultOptions) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const char* name : kRewritten) {
      for (const std::uint64_t seed : {11ULL, 97ULL, 5000ULL}) {
        sim::SimOptions options;
        options.seed = seed;
        compare(instances[i], name, options,
                "inst" + std::to_string(i) + "/seed" + std::to_string(seed));
      }
    }
  }
}

TEST(PlannerReference, StalePeerKnowledge) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const char* name : kRewritten) {
      for (std::int32_t staleness : {1, 3}) {
        sim::SimOptions options;
        options.seed = 13;
        options.staleness = staleness;
        compare(instances[i], name, options,
                "inst" + std::to_string(i) + "/stale" +
                    std::to_string(staleness));
      }
    }
  }
}

TEST(PlannerReference, StaleAggregates) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const char* name : kRewritten) {
      for (std::int32_t staleness : {0, 2}) {
        sim::SimOptions options;
        options.seed = 17;
        options.staleness = staleness;
        options.stale_aggregates = true;
        compare(instances[i], name, options,
                "inst" + std::to_string(i) + "/staleagg" +
                    std::to_string(staleness));
      }
    }
  }
}

TEST(PlannerReference, MaxStepsExhaustion) {
  const auto instances = test_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (const char* name : kRewritten) {
      sim::SimOptions options;
      options.seed = 19;
      options.max_steps = 3;
      compare(instances[i], name, options,
              "inst" + std::to_string(i) + "/maxsteps");
    }
  }
}

// ---------------------------------------------------------------------
// Wave-loop fuzz: GlobalGreedyPolicy's sleep epochs, early stop and
// list compaction against ReferenceGlobalGreedy, in the regimes the
// fixed instances above are too small to reach.
// ---------------------------------------------------------------------

struct FuzzCase {
  std::string label;
  core::Instance instance;
};

/// Seeded instances for the wave-loop fuzz:
///  * few-token sparse overlays (1 and 8 tokens), where every rank is
///    soon capped and nearly every wave ends early; narrow capacity
///    ranges make arcs also run dry in mid-pass;
///  * word-boundary universes around 64 and 128 tokens, where the
///    early stop rarely or never fires;
///  * files from random senders, where a rank can stay uncapped with no
///    arc left to carry it, so about half the waves end because every
///    listed arc is asleep rather than by the early stop.
std::vector<FuzzCase> wave_loop_fuzz_cases(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FuzzCase> out;
  for (const std::int32_t tokens : {1, 8}) {
    const auto n = static_cast<std::int32_t>(rng.uniform_int(150, 400));
    topology::RandomGraphOptions graph_options;
    graph_options.capacities.lo = 1;
    graph_options.capacities.hi =
        static_cast<std::int32_t>(rng.uniform_int(1, 15));
    Digraph g = topology::sparse_random_overlay(
        n, static_cast<double>(rng.uniform_int(3, 8)), graph_options, rng);
    out.push_back({"sparse" + std::to_string(n) + "x" + std::to_string(tokens),
                   core::single_source_all_receivers(std::move(g), tokens, 0)});
  }
  for (const std::int32_t universe : {63, 64, 65, 127, 128, 129}) {
    const auto n = static_cast<std::int32_t>(rng.uniform_int(10, 20));
    Digraph g = topology::random_overlay(n, rng);
    out.push_back({"universe" + std::to_string(universe),
                   core::single_source_all_receivers(std::move(g), universe,
                                                     0)});
  }
  {
    const auto n = static_cast<std::int32_t>(rng.uniform_int(40, 80));
    Digraph g = topology::sparse_random_overlay(n, 4.0, rng);
    const auto files = static_cast<std::int32_t>(rng.uniform_int(2, 4));
    out.push_back({"senders" + std::to_string(n),
                   core::subdivided_files_random_senders(
                       std::move(g), 6 * files, files, rng)});
  }
  return out;
}

TEST(PlannerReference, GlobalWaveLoopFuzz) {
  // One policy object serves every run, so a sleep stamp leaking from
  // one run into the next would show up as a diverging schedule.
  auto reused = make_policy("global");
  for (const std::uint64_t seed : {0x6f63'6401ULL, 0x6f63'6402ULL}) {
    for (const FuzzCase& fc : wave_loop_fuzz_cases(seed)) {
      for (const bool churn : {false, true}) {
        for (const std::int32_t staleness : {0, 2}) {
          // Link churn takes arcs down for whole steps, so some start a
          // step at capacity 0.
          dynamics::LinkChurn link_churn(0.2, 2);
          sim::SimOptions options;
          options.seed = seed;
          options.staleness = staleness;
          options.stale_aggregates = staleness > 0;
          if (churn) options.dynamics = &link_churn;
          ReferenceGlobalGreedy reference;
          const sim::RunResult expected =
              sim::run(fc.instance, reference, options);
          const sim::RunResult actual = sim::run(fc.instance, *reused, options);
          expect_identical(actual, expected,
                           fc.label + (churn ? "/churn" : "") + "/stale" +
                               std::to_string(staleness) + "/seed" +
                               std::to_string(seed));
        }
      }
    }
  }
}

TEST(PlannerReference, GlobalReusedPolicyMatchesFreshPolicy) {
  // reset() must clear the sleep stamps with the epoch: a stamp left
  // from the first run would put arcs to sleep in the second.
  Rng rng(71);
  Digraph g = topology::sparse_random_overlay(300, 8.0, rng);
  const auto inst = core::single_source_all_receivers(std::move(g), 8, 0);
  auto reused = make_policy("global");
  sim::SimOptions first;
  first.seed = 5;
  (void)sim::run(inst, *reused, first);
  sim::SimOptions second;
  second.seed = 6;
  auto fresh = make_policy("global");
  expect_identical(sim::run(inst, *reused, second),
                   sim::run(inst, *fresh, second), "reused/global");
}

}  // namespace
}  // namespace ocd::heuristics
