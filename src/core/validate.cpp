#include "ocd/core/validate.hpp"

#include <sstream>

namespace ocd::core {

namespace {

/// Shared replay loop.  on_violation is called with a description and
/// must either throw or record-and-stop; returns final possession.
template <typename ViolationFn>
std::optional<std::vector<std::vector<TokenSet>>> replay(
    const Instance& inst, const Schedule& schedule, bool keep_trace,
    ViolationFn&& on_violation) {
  const auto n = static_cast<std::size_t>(inst.num_vertices());
  const auto universe = static_cast<std::size_t>(inst.num_tokens());

  std::vector<std::vector<TokenSet>> trace;
  std::vector<TokenSet> possession(n, TokenSet(universe));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession[static_cast<std::size_t>(v)] = inst.have(v);
  if (keep_trace) trace.push_back(possession);

  // Each step's sends are checked against start-of-step possession,
  // then applied in place.  Possession only grows, so this is the
  // simultaneous-delivery rule without a copy of every set.  Capacity
  // is charged per arc, so sends that share an arc (Timestep::append
  // does not union) cannot jointly exceed it.  Steps are read packed:
  // counts, subset checks and unions touch a send's stored words only,
  // the words of its row that are not zero.
  std::vector<std::size_t> load(
      static_cast<std::size_t>(inst.graph().num_arcs()), 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(schedule.length());
       ++i) {
    const PackedStep step = schedule.packed(i);
    for (const PackedSend send : step) {
      if (send.arc() < 0 || send.arc() >= inst.graph().num_arcs()) {
        std::ostringstream msg;
        msg << "timestep " << i << ": unknown arc id " << send.arc();
        on_violation(msg.str());
        return std::nullopt;
      }
      const Arc& arc = inst.graph().arc(send.arc());
      if (step.universe_size() != universe) {
        std::ostringstream msg;
        msg << "timestep " << i << ": token universe mismatch on arc ("
            << arc.from << "," << arc.to << ")";
        on_violation(msg.str());
        return std::nullopt;
      }
      std::size_t& sent = load[static_cast<std::size_t>(send.arc())];
      const std::uint64_t* held =
          possession[static_cast<std::size_t>(arc.from)].words().data();
      std::uint64_t stray = 0;
      send.for_each_word([&](std::size_t w, std::uint64_t word) {
        sent += PackedSend::bits_in(word);
        stray |= word & ~held[w];
      });
      if (sent > static_cast<std::size_t>(arc.capacity)) {
        std::ostringstream msg;
        msg << "timestep " << i << ": capacity exceeded on arc (" << arc.from
            << "," << arc.to << "): sent " << sent
            << " > c = " << arc.capacity;
        on_violation(msg.str());
        return std::nullopt;
      }
      if (stray != 0) {
        TokenSet lacking(universe);
        send.for_each_word([&](std::size_t w, std::uint64_t word) {
          MutableTokenSetView(lacking).mutable_words()[w] = word & ~held[w];
        });
        std::ostringstream msg;
        msg << "timestep " << i << ": possession violated on arc ("
            << arc.from << "," << arc.to << "): sender lacks "
            << lacking.to_string();
        on_violation(msg.str());
        return std::nullopt;
      }
    }
    for (const PackedSend send : step) {
      load[static_cast<std::size_t>(send.arc())] = 0;
      std::uint64_t* to =
          MutableTokenSetView(
              possession[static_cast<std::size_t>(
                  inst.graph().arc(send.arc()).to)])
              .mutable_words();
      send.for_each_word(
          [to](std::size_t w, std::uint64_t word) { to[w] |= word; });
    }
    if (keep_trace) trace.push_back(possession);
  }

  if (!keep_trace) trace.push_back(std::move(possession));
  return trace;
}

}  // namespace

ValidationResult validate(const Instance& inst, const Schedule& schedule) {
  ValidationResult result;
  auto trace = replay(inst, schedule, /*keep_trace=*/false,
                      [&](const std::string& msg) { result.violation = msg; });
  if (!trace.has_value()) return result;
  result.valid = true;
  result.final_possession = std::move(trace->back());
  result.successful = true;
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    if (!inst.want(v).is_subset_of(
            result.final_possession[static_cast<std::size_t>(v)])) {
      result.successful = false;
      break;
    }
  }
  return result;
}

std::vector<std::vector<TokenSet>> possession_trace(const Instance& inst,
                                                    const Schedule& schedule) {
  auto trace = replay(inst, schedule, /*keep_trace=*/true,
                      [](const std::string& msg) { throw Error(msg); });
  OCD_ASSERT(trace.has_value());
  return std::move(*trace);
}

bool is_successful(const Instance& inst, const Schedule& schedule) {
  return validate(inst, schedule).successful;
}

}  // namespace ocd::core
