#include "timed.hpp"

#include <utility>

namespace perfbench {

TimedPolicy::TimedPolicy(ocd::sim::PolicyPtr inner, Tracer& tracer,
                         const std::string& layer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      reset_span_(tracer.intern(layer + ".reset")),
      plan_span_(tracer.intern(layer + ".plan_step")) {}

void TimedPolicy::reset(const ocd::core::Instance& instance,
                        std::uint64_t seed) {
  const std::size_t span = tracer_.begin(reset_span_);
  reset_started_ns_ = now_ns();
  inner_->reset(instance, seed);
  tracer_.end(span);
}

void TimedPolicy::plan_step(const ocd::sim::StepView& view,
                            ocd::sim::StepPlan& plan) {
  const std::size_t span = tracer_.begin(plan_span_);
  inner_->plan_step(view, plan);
  tracer_.end(span);
}

TimedFaultModel::TimedFaultModel(ocd::faults::FaultModel& inner,
                                 Tracer& tracer)
    : inner_(inner),
      tracer_(tracer),
      counter_(tracer.intern("faults.lost_us")) {}

void TimedFaultModel::begin_step(std::int64_t step, const ocd::Digraph& graph) {
  if (step > 0) flush();
  inner_.begin_step(step, graph);
}

void TimedFaultModel::lost(std::int64_t step, ocd::ArcId arc,
                           const ocd::TokenSet& sent, ocd::TokenSet& lost) {
  const std::int64_t start = now_ns();
  inner_.lost(step, arc, sent, lost);
  step_ns_ += now_ns() - start;
}

void TimedFaultModel::flush() {
  tracer_.counter(counter_, now_ns(), static_cast<double>(step_ns_) * 1e-3);
  total_ns_ += step_ns_;
  step_ns_ = 0;
}

}  // namespace perfbench
