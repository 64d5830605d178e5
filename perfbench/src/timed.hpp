// Forwarding wrappers around the library's public sim::Policy and
// faults::FaultModel interfaces.  They time the calls the simulator
// makes into a planner or a loss model and change nothing else: a
// wrapped run must reproduce the bare run's schedule and RunStats bit
// for bit, which every traced benchmark run checks.
#pragma once

#include <cstdint>
#include <string>

#include "ocd/faults/model.hpp"
#include "ocd/sim/policy.hpp"
#include "trace.hpp"

namespace perfbench {

/// Records a "<layer>.reset" span per reset() and a "<layer>.plan_step"
/// span per plan_step().  Wrapping a faults::ReliableAdapter that in
/// turn wraps a TimedPolicy splits the adapter's own time from its
/// inner planner's.
class TimedPolicy final : public ocd::sim::Policy {
 public:
  TimedPolicy(ocd::sim::PolicyPtr inner, Tracer& tracer,
              const std::string& layer);

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] ocd::sim::KnowledgeClass knowledge_class() const override {
    return inner_->knowledge_class();
  }
  void reset(const ocd::core::Instance& instance,
             std::uint64_t seed) override;
  void plan_step(const ocd::sim::StepView& view,
                 ocd::sim::StepPlan& plan) override;
  void plan_vertex(ocd::VertexId self, const ocd::sim::StepView& view,
                   ocd::sim::StepPlan& plan) override {
    inner_->plan_vertex(self, view, plan);
  }
  void plan_shard(const ocd::sim::StepView& view, ocd::sim::StepPlan& plan,
                  std::span<const ocd::VertexId> owned) override {
    inner_->plan_shard(view, plan, owned);
  }
  void finish_run(ocd::sim::RunStats& stats) override {
    inner_->finish_run(stats);
  }
  void save_state(ocd::util::BinStream& out) const override {
    inner_->save_state(out);
  }
  void load_state(ocd::util::BinStream& in) override { inner_->load_state(in); }

  /// When the most recent reset() began: everything sim::run does
  /// between its entry and this instant is per-run precompute.
  [[nodiscard]] std::int64_t reset_started_ns() const noexcept {
    return reset_started_ns_;
  }

 private:
  ocd::sim::PolicyPtr inner_;
  Tracer& tracer_;
  std::uint32_t reset_span_;
  std::uint32_t plan_span_;
  std::int64_t reset_started_ns_ = 0;
};

/// Times lost() without a span per call (there is one per send): the
/// time accumulates, and each step's total is emitted as one sample of
/// the "faults.lost_us" counter track when the next step begins.
class TimedFaultModel final : public ocd::faults::FaultModel {
 public:
  TimedFaultModel(ocd::faults::FaultModel& inner, Tracer& tracer);

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void reset(const ocd::core::Instance& instance,
             std::uint64_t seed) override {
    inner_.reset(instance, seed);
  }
  void begin_step(std::int64_t step, const ocd::Digraph& graph) override;
  void lost(std::int64_t step, ocd::ArcId arc, const ocd::TokenSet& sent,
            ocd::TokenSet& lost) override;

  /// Emits the last step's counter sample; call once after the run.
  void flush();
  [[nodiscard]] double lost_seconds() const noexcept {
    return static_cast<double>(total_ns_) * 1e-9;
  }

 private:
  ocd::faults::FaultModel& inner_;
  Tracer& tracer_;
  std::uint32_t counter_;
  std::int64_t step_ns_ = 0;
  std::int64_t total_ns_ = 0;
};

}  // namespace perfbench
