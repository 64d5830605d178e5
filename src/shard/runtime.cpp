#include "ocd/shard/runtime.hpp"

#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ocd/heuristics/coordination.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/util/env.hpp"
#include "ocd/util/parallel.hpp"

namespace ocd::shard {

namespace {

/// Planners whose sharded plan phase reproduces plan_step exactly.
/// Everything else ("global", adapter-wrapped policies) is refused up
/// front.
constexpr std::string_view kSupportedPolicies[] = {"round-robin", "random",
                                                   "local", "bandwidth"};

bool supported_policy(std::string_view name) {
  for (std::string_view p : kSupportedPolicies)
    if (p == name) return true;
  return false;
}

/// Refuses everything outside the envelope the shard determinism
/// suites pin; sim::run validates the remaining options itself.
void validate_envelope(std::string_view policy_name,
                       const sim::SimOptions& options) {
  if (!supported_policy(policy_name))
    throw Error("sharded runtime supports policies round-robin, random, "
                "local and bandwidth; run '" +
                std::string(policy_name) + "' with sim::run");
  if (options.staleness != 0)
    throw Error(
        "sharded runtime does not support staleness (outside the envelope "
        "its determinism suite pins); run it with sim::run");
  if (options.stale_aggregates)
    throw Error(
        "sharded runtime does not support stale_aggregates (outside the "
        "envelope its determinism suite pins); run it with sim::run");
  if (options.dynamics != nullptr)
    throw Error(
        "sharded runtime does not support dynamics models (shard plans "
        "are bound to the static capacities); run them with sim::run");
  if (options.completion)
    throw Error(
        "sharded runtime does not support completion overrides (outside "
        "the envelope its determinism suite pins); run them with sim::run");
}

/// Each shard's vertices, ascending, derived from the one ownership map
/// in a single pass.  Throws ocd::Error naming shard_of when it does not
/// assign every vertex exactly one shard in [0, num_shards).
std::vector<std::vector<VertexId>> owned_vertices(const Partition& partition,
                                                  std::int32_t num_vertices) {
  if (partition.shard_of.size() != static_cast<std::size_t>(num_vertices))
    throw Error("partition shard_of has " +
                std::to_string(partition.shard_of.size()) +
                " entries, but the instance has " +
                std::to_string(num_vertices) + " vertices");
  std::vector<std::vector<VertexId>> owned(
      static_cast<std::size_t>(partition.num_shards));
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::int32_t s = partition.shard_of[static_cast<std::size_t>(v)];
    if (s < 0 || s >= partition.num_shards)
      throw Error("partition shard_of[" + std::to_string(v) + "] = " +
                  std::to_string(s) + " is outside [0, " +
                  std::to_string(partition.num_shards) + ")");
    owned[static_cast<std::size_t>(s)].push_back(v);
  }
  return owned;
}

/// One planner split over the partition's shards, as the sim::Policy
/// that sim::run drives.  Each shard owns a policy instance and a
/// StepPlan, and every shard reads the one shared StepView; sim::run
/// then validates, applies and records the merged plan itself.
///
/// Per step the shards plan on the ocd::util pool: local planners call
/// plan_shard over their owned vertices; the coordinated planner
/// (bandwidth) elects its slice of 64-token words (shard s takes words
/// s, s + k, ...; a shard past the last word elects nothing), and after
/// the pool barrier every shard absorbs all slices and fills the arcs
/// its vertices send on.
/// Each arc is planned by exactly one shard — its tail's owner, or its
/// head's owner under "local" — so the shard plans merge back into
/// plan_step's send order with a linear k-way merge: plan_vertex
/// planners emit grouped by ascending sender, "local" and "bandwidth"
/// by ascending arc id.
class ShardedPolicy final : public sim::Policy {
 public:
  ShardedPolicy(std::string_view policy_name, const Partition& partition,
                std::vector<std::vector<VertexId>> owned)
      : shard_of_(partition.shard_of),
        by_arc_(policy_name == "local" || policy_name == "bandwidth") {
    shards_.resize(owned.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].policy = heuristics::make_policy(policy_name);
      shards_[s].owned = std::move(owned[s]);
    }
    if (shards_.size() > 1 &&
        knowledge_class() == sim::KnowledgeClass::kGlobal) {
      for (Shard& shard : shards_) {
        shard.coord =
            dynamic_cast<heuristics::ShardCoordinator*>(shard.policy.get());
        OCD_ASSERT_MSG(shard.coord != nullptr,
                       "coordinated policy does not implement "
                       "ShardCoordinator");
        slices_.push_back(&shard.coord->elected());
      }
    }
    cursor_.resize(shards_.size());
    key_.resize(shards_.size());
  }

  [[nodiscard]] std::string_view name() const override {
    return shards_[0].policy->name();
  }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return shards_[0].policy->knowledge_class();
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].policy->reset(instance, seed);
      if (shards_[s].coord == nullptr) continue;
      heuristics::CoordinationSetup setup;
      setup.instance = &instance;
      setup.shard_of = shard_of_;
      setup.shard = static_cast<std::int32_t>(s);
      setup.num_shards = static_cast<std::int32_t>(shards_.size());
      shards_[s].coord->begin_coordination(setup);
    }
  }

  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override {
    if (shards_.size() == 1) {
      shards_[0].policy->plan_step(view, plan);
      return;
    }
    // Dynamics are outside the envelope, so the static capacities the
    // plans fall back to are this step's effective ones.
    each_shard([&](Shard& shard) {
      shard.plan.rebind(view.graph(), {});
      if (shard.coord != nullptr)
        shard.coord->coord_prescore(view);
      else
        shard.policy->plan_shard(view, shard.plan, shard.owned);
    });
    if (!slices_.empty()) {
      each_shard([&](Shard& shard) {
        shard.coord->coord_absorb(slices_);
        shard.coord->coord_emit(view, shard.plan);
      });
    }
    merge_into(view.graph(), plan);
  }

  void finish_run(sim::RunStats& stats) override {
    for (Shard& shard : shards_) shard.policy->finish_run(stats);
  }

 private:
  struct Shard {
    sim::PolicyPtr policy;
    heuristics::ShardCoordinator* coord = nullptr;
    std::vector<VertexId> owned;
    sim::StepPlan plan;
  };

  /// Runs fn on every shard, one pool chunk per shard; returns after
  /// all of them finished (the barrier between plan phases).
  template <typename Fn>
  void each_shard(Fn&& fn) {
    util::parallel_for(shards_.size(), 1, [&](util::ChunkRange chunk) {
      for (std::size_t s = chunk.begin; s < chunk.end; ++s) fn(shards_[s]);
    });
  }

  /// Appends the shard plans to `plan` in plan_step's send order.  No
  /// key repeats across shards (each arc, and each sender's arc group,
  /// is planned by one shard), so repeatedly taking the send with the
  /// smallest head key reproduces the serial order.
  void merge_into(const Digraph& graph, sim::StepPlan& plan) {
    constexpr std::int32_t kDone = std::numeric_limits<std::int32_t>::max();
    const auto head_key = [&](std::size_t s) {
      const auto sends = shards_[s].plan.sends();
      if (cursor_[s] == sends.size()) return kDone;
      const core::ArcSend send = sends[cursor_[s]];
      return by_arc_ ? send.arc : graph.arc(send.arc).from;
    };
    bool idle = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      cursor_[s] = 0;
      key_[s] = head_key(s);
      idle = idle || shards_[s].plan.idle_marked();
    }
    while (true) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < shards_.size(); ++s)
        if (key_[s] < key_[best]) best = s;
      if (key_[best] == kDone) break;
      const core::ArcSend send = shards_[best].plan.sends()[cursor_[best]++];
      plan.send(send.arc, send.tokens);
      key_[best] = head_key(best);
    }
    if (idle) plan.mark_idle();
  }

  std::span<const std::int32_t> shard_of_;
  bool by_arc_;
  std::vector<Shard> shards_;
  /// Every coordinator's elected slice, in shard order (coordinated
  /// planners on > 1 shard; empty otherwise).
  std::vector<const util::TokenMatrix*> slices_;
  std::vector<std::size_t> cursor_;  ///< merge position per shard plan
  std::vector<std::int32_t> key_;    ///< head key per shard plan
};

}  // namespace

std::int32_t resolve_num_shards(std::int32_t requested) {
  if (requested > 0) return requested;
  if (requested < 0)
    throw Error("num_shards must be >= 0, got " + std::to_string(requested));
  const char* env = std::getenv("OCD_SHARDS");
  if (env == nullptr) return 1;
  return static_cast<std::int32_t>(util::parse_env_int("OCD_SHARDS", env));
}

sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options,
                           const Partition& partition) {
  validate_envelope(policy_name, options.sim);
  const std::int32_t num_shards = resolve_num_shards(options.num_shards);
  if (partition.num_shards != num_shards)
    throw Error("partition has " + std::to_string(partition.num_shards) +
                " shards but options resolve to " +
                std::to_string(num_shards));
  ShardedPolicy policy(policy_name, partition,
                       owned_vertices(partition, instance.num_vertices()));
  return sim::run(instance, policy, options.sim);
}

sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options) {
  // Refuse before partitioning: a refused planner must not pay for it.
  validate_envelope(policy_name, options.sim);
  const std::int32_t num_shards = resolve_num_shards(options.num_shards);
  if (num_shards > instance.num_vertices())
    throw Error("num_shards (" + std::to_string(num_shards) +
                ") exceeds the vertex count (" +
                std::to_string(instance.num_vertices()) + ")");
  PartitionOptions part_options;
  part_options.num_shards = num_shards;
  part_options.balance_eps = resolve_balance_eps(options.balance_eps);
  // A relaxed band is only worth its imbalance if the flow stage gets
  // to spend it on the cut; a resolved 0 keeps the historical partition
  // bit-for-bit.
  part_options.flow_refine = part_options.balance_eps > 0;
  const Partition partition =
      partition_vertices(instance.graph(), part_options);
  ShardOptions resolved = options;
  resolved.num_shards = num_shards;
  resolved.balance_eps = part_options.balance_eps;
  return run_sharded(instance, policy_name, resolved, partition);
}

}  // namespace ocd::shard
