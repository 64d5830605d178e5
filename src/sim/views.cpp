#include "ocd/sim/views.hpp"

namespace ocd::sim {

const char* to_string(KnowledgeClass k) {
  switch (k) {
    case KnowledgeClass::kLocalOnly:
      return "local-only";
    case KnowledgeClass::kLocalPeers:
      return "local-peers";
    case KnowledgeClass::kLocalAggregate:
      return "local-aggregate";
    case KnowledgeClass::kGlobal:
      return "global";
  }
  return "unknown";
}

StepView::StepView(const core::Instance& instance,
                   const util::TokenMatrix& possession,
                   const util::TokenMatrix& stale_possession,
                   const Aggregates* aggregates, KnowledgeClass granted,
                   std::int64_t step,
                   std::span<const std::int32_t> effective_capacity)
    : instance_(instance),
      possession_(possession),
      stale_possession_(stale_possession),
      aggregates_(aggregates),
      granted_(granted),
      step_(step),
      effective_capacity_(effective_capacity) {}

std::int32_t StepView::capacity(ArcId arc) const {
  OCD_EXPECTS(arc >= 0 && arc < instance_.graph().num_arcs());
  if (effective_capacity_.empty()) return instance_.graph().arc(arc).capacity;
  return effective_capacity_[static_cast<std::size_t>(arc)];
}

void StepView::require(KnowledgeClass needed) const {
  OCD_EXPECTS(static_cast<int>(granted_) >= static_cast<int>(needed));
}

const Digraph& StepView::graph() const noexcept { return instance_.graph(); }

std::int32_t StepView::num_tokens() const noexcept {
  return instance_.num_tokens();
}

TokenSetView StepView::own_possession(VertexId v) const {
  return possession_.row(static_cast<std::size_t>(v));
}

const TokenSet& StepView::own_want(VertexId v) const {
  return instance_.want(v);
}

TokenSetView StepView::peer_possession(VertexId self,
                                       VertexId neighbor) const {
  require(KnowledgeClass::kLocalPeers);
  OCD_EXPECTS(instance_.graph().has_arc(self, neighbor) ||
              instance_.graph().has_arc(neighbor, self));
  return stale_possession_.row(static_cast<std::size_t>(neighbor));
}

std::span<const std::int32_t> StepView::aggregate_holders() const {
  require(KnowledgeClass::kLocalAggregate);
  OCD_ASSERT_MSG(aggregates_ != nullptr,
                 "aggregates were not materialized for this step");
  return aggregates_->holders;
}

std::span<const std::int32_t> StepView::aggregate_need() const {
  require(KnowledgeClass::kLocalAggregate);
  OCD_ASSERT_MSG(aggregates_ != nullptr,
                 "aggregates were not materialized for this step");
  return aggregates_->need;
}

const util::TokenMatrix& StepView::global_possession() const {
  require(KnowledgeClass::kGlobal);
  return possession_;
}

const core::Instance& StepView::instance() const {
  require(KnowledgeClass::kGlobal);
  return instance_;
}

}  // namespace ocd::sim
