#include "ocd/core/export.hpp"

#include <algorithm>
#include <ostream>

namespace ocd::core {

namespace {

void write_vertices(const Instance& inst, std::ostream& out,
                    const DotOptions& options) {
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    out << "  v" << v << " [label=\"" << v;
    if (options.mark_roles && !inst.have(v).empty())
      out << "\\nh=" << inst.have(v).count();
    if (options.mark_roles && !inst.want(v).empty())
      out << "\\nw=" << inst.want(v).count();
    out << '"';
    if (options.mark_roles) {
      if (!inst.have(v).empty()) out << ", shape=doublecircle";
      if (!inst.want(v).empty()) out << ", style=filled, fillcolor=lightgray";
    }
    out << "];\n";
  }
}

}  // namespace

void write_dot(const Instance& inst, std::ostream& out,
               const DotOptions& options) {
  out << "digraph ocd {\n  rankdir=LR;\n  node [shape=circle];\n";
  write_vertices(inst, out, options);
  for (const Arc& arc : inst.graph().arcs()) {
    out << "  v" << arc.from << " -> v" << arc.to;
    if (options.show_capacities) out << " [label=\"" << arc.capacity << "\"]";
    out << ";\n";
  }
  out << "}\n";
}

void write_step_dot(const Instance& inst, const Schedule& schedule,
                    std::size_t step_index, std::ostream& out,
                    const DotOptions& options) {
  OCD_EXPECTS(step_index < schedule.steps().size());
  const Timestep step = schedule.step(step_index);

  out << "digraph ocd_step" << step_index
      << " {\n  rankdir=LR;\n  node [shape=circle];\n";
  write_vertices(inst, out, options);
  const SendRange sends = step.sends();
  for (ArcId a = 0; a < inst.graph().num_arcs(); ++a) {
    const Arc& arc = inst.graph().arc(a);
    const auto active =
        std::find_if(sends.begin(), sends.end(), [a](const ArcSend& send) {
          return send.arc == a && !send.tokens.empty();
        });
    out << "  v" << arc.from << " -> v" << arc.to;
    if (active != sends.end()) {
      out << " [penwidth=2.5, color=black, label=\""
          << (*active).tokens.to_string() << '"' << "]";
    } else {
      out << " [color=gray70";
      if (options.show_capacities)
        out << ", label=\"" << arc.capacity << '"';
      out << "]";
    }
    out << ";\n";
  }
  out << "}\n";
}

void write_trace_csv(const Instance& inst, const Schedule& schedule,
                     std::ostream& out) {
  out << "step,from,to,token\n";
  for (std::size_t i = 0; i < schedule.steps().size(); ++i) {
    const Timestep step = schedule.step(i);
    for (const ArcSend& send : step.sends()) {
      const Arc& arc = inst.graph().arc(send.arc);
      send.tokens.for_each([&](TokenId t) {
        out << i << ',' << arc.from << ',' << arc.to << ',' << t << '\n';
      });
    }
  }
}

}  // namespace ocd::core
