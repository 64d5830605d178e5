#include "ocd/exact/ip_builder.hpp"

#include <string>

namespace ocd::exact {

namespace {
std::string var_name(const char* kind, std::int32_t a, std::int32_t b,
                     std::int32_t c) {
  return std::string(kind) + "[" + std::to_string(a) + "," + std::to_string(b) +
         "," + std::to_string(c) + "]";
}
}  // namespace

TimeIndexedIp::TimeIndexedIp(const core::Instance& inst, std::int32_t horizon)
    : instance_(inst), horizon_(horizon) {
  OCD_EXPECTS(horizon >= 1);
  const std::int32_t num_arcs = inst.graph().num_arcs();
  const std::int32_t num_tokens = inst.num_tokens();
  const std::int32_t num_vertices = inst.num_vertices();

  // send[a][t][i], i in 1..horizon — objective coefficient 1 (bandwidth).
  send_base_ = 0;
  for (ArcId a = 0; a < num_arcs; ++a) {
    for (TokenId t = 0; t < num_tokens; ++t) {
      for (std::int32_t i = 1; i <= horizon_; ++i) {
        program_.add_variable(0.0, 1.0, 1.0, lp::VarType::kInteger,
                              var_name("send", a, t, i));
      }
    }
  }

  // hold[v][t][i], i in 0..horizon — objective 0.  Initial possession and
  // final wants are expressed through fixed bounds.
  hold_base_ = program_.num_variables();
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (TokenId t = 0; t < num_tokens; ++t) {
      const bool has = inst.have(v).test(t);
      const bool wants = inst.want(v).test(t);
      for (std::int32_t i = 0; i <= horizon_; ++i) {
        double lower = 0.0;
        double upper = 1.0;
        if (has) lower = 1.0;             // possession is monotone
        if (i == 0 && !has) upper = 0.0;  // initial assignment
        if (i == horizon_ && wants) lower = 1.0;  // success condition
        program_.add_variable(lower, upper, 0.0, lp::VarType::kInteger,
                              var_name("hold", v, t, i));
      }
    }
  }

  // Possession: send[a][t][i] <= hold[tail][t][i-1].
  for (ArcId a = 0; a < num_arcs; ++a) {
    const VertexId tail = inst.graph().arc(a).from;
    for (TokenId t = 0; t < num_tokens; ++t) {
      for (std::int32_t i = 1; i <= horizon_; ++i) {
        program_.add_constraint(
            {{send_var(a, t, i), 1.0}, {hold_var(tail, t, i - 1), -1.0}},
            lp::Relation::kLessEqual, 0.0);
      }
    }
  }

  // No minting: hold[v][t][i] <= hold[v][t][i-1] + sum_in send.
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (TokenId t = 0; t < num_tokens; ++t) {
      for (std::int32_t i = 1; i <= horizon_; ++i) {
        std::vector<lp::Term> terms;
        terms.push_back({hold_var(v, t, i), 1.0});
        terms.push_back({hold_var(v, t, i - 1), -1.0});
        for (ArcId a : inst.graph().in_arcs(v))
          terms.push_back({send_var(a, t, i), -1.0});
        program_.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                                0.0);
      }
    }
  }

  // Capacity: sum_t send[a][t][i] <= c(a).
  for (ArcId a = 0; a < num_arcs; ++a) {
    const auto capacity = static_cast<double>(inst.graph().arc(a).capacity);
    for (std::int32_t i = 1; i <= horizon_; ++i) {
      std::vector<lp::Term> terms;
      terms.reserve(static_cast<std::size_t>(num_tokens));
      for (TokenId t = 0; t < num_tokens; ++t)
        terms.push_back({send_var(a, t, i), 1.0});
      program_.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                              capacity);
    }
  }
}

std::int32_t TimeIndexedIp::send_var(ArcId arc, TokenId token,
                                     std::int32_t step) const {
  OCD_EXPECTS(arc >= 0 && arc < instance_.graph().num_arcs());
  OCD_EXPECTS(token >= 0 && token < instance_.num_tokens());
  OCD_EXPECTS(step >= 1 && step <= horizon_);
  return send_base_ +
         (arc * instance_.num_tokens() + token) * horizon_ + (step - 1);
}

std::int32_t TimeIndexedIp::hold_var(VertexId vertex, TokenId token,
                                     std::int32_t step) const {
  OCD_EXPECTS(vertex >= 0 && vertex < instance_.num_vertices());
  OCD_EXPECTS(token >= 0 && token < instance_.num_tokens());
  OCD_EXPECTS(step >= 0 && step <= horizon_);
  return hold_base_ +
         (vertex * instance_.num_tokens() + token) * (horizon_ + 1) + step;
}

core::Schedule TimeIndexedIp::extract_schedule(
    const std::vector<double>& solution) const {
  OCD_EXPECTS(solution.size() ==
              static_cast<std::size_t>(program_.num_variables()));
  core::Schedule schedule;
  const auto universe = static_cast<std::size_t>(instance_.num_tokens());
  for (std::int32_t i = 1; i <= horizon_; ++i) {
    core::Timestep step;
    for (ArcId a = 0; a < instance_.graph().num_arcs(); ++a) {
      for (TokenId t = 0; t < instance_.num_tokens(); ++t) {
        if (solution[static_cast<std::size_t>(send_var(a, t, i))] > 0.5)
          step.add(a, t, universe);
      }
    }
    schedule.append(step);
  }
  return schedule;
}

}  // namespace ocd::exact
