#include "ocd/graph/digraph.hpp"

namespace ocd {

Digraph::Digraph(std::int32_t num_vertices)
    : num_vertices_(num_vertices),
      out_head_(static_cast<std::size_t>(num_vertices), -1) {
  OCD_EXPECTS(num_vertices >= 0);
}

ArcId Digraph::add_arc(VertexId from, VertexId to, std::int32_t capacity) {
  OCD_EXPECTS(valid_vertex(from) && valid_vertex(to));
  OCD_EXPECTS(from != to);  // self-arcs (storage) are implicit in the model
  OCD_EXPECTS(capacity >= 1);
  OCD_EXPECTS(find_arc(from, to) < 0);
  return append_arc(from, to, capacity);
}

ArcId Digraph::add_or_merge_arc(VertexId from, VertexId to,
                                std::int32_t capacity) {
  OCD_EXPECTS(valid_vertex(from) && valid_vertex(to));
  OCD_EXPECTS(from != to);
  OCD_EXPECTS(capacity >= 1);
  const ArcId existing = find_arc(from, to);
  if (existing >= 0) {
    arcs_[static_cast<std::size_t>(existing)].capacity += capacity;
    return existing;
  }
  return append_arc(from, to, capacity);
}

ArcId Digraph::append_arc(VertexId from, VertexId to, std::int32_t capacity) {
  const auto id = static_cast<ArcId>(arcs_.size());
  arcs_.push_back(Arc{from, to, capacity});
  ArcId& head = out_head_[static_cast<std::size_t>(from)];
  next_out_.push_back(head);
  head = id;
  csr_valid_ = false;  // topology changed; the CSR is rebuilt on demand
  return id;
}

ArcId Digraph::find_arc(VertexId from, VertexId to) const {
  OCD_EXPECTS(valid_vertex(from) && valid_vertex(to));
  for (ArcId id = out_head_[static_cast<std::size_t>(from)]; id >= 0;
       id = next_out_[static_cast<std::size_t>(id)]) {
    if (arcs_[static_cast<std::size_t>(id)].to == to) return id;
  }
  return -1;
}

void Digraph::finalize() {
  if (!csr_valid_) build_csr();
}

void Digraph::build_csr() const {
  // Count each vertex's arcs into offsets[v + 2] and prefix-sum, so
  // offsets[v + 1] is v's first slot; scattering the ids in ascending
  // order through offsets[v + 1]++ keeps each slice in insertion order
  // and leaves offsets[v + 1] at v's end, which is v + 1's start.  The
  // spare last entry is dropped.
  const auto n = static_cast<std::size_t>(num_vertices_);
  out_offsets_.assign(n + 2, 0);
  in_offsets_.assign(n + 2, 0);
  for (const Arc& a : arcs_) {
    ++out_offsets_[static_cast<std::size_t>(a.from) + 2];
    ++in_offsets_[static_cast<std::size_t>(a.to) + 2];
  }
  for (std::size_t k = 2; k < n + 2; ++k) {
    out_offsets_[k] += out_offsets_[k - 1];
    in_offsets_[k] += in_offsets_[k - 1];
  }
  out_csr_.resize(arcs_.size());
  in_csr_.resize(arcs_.size());
  for (std::size_t id = 0; id < arcs_.size(); ++id) {
    const Arc& a = arcs_[id];
    auto& out_slot = out_offsets_[static_cast<std::size_t>(a.from) + 1];
    out_csr_[static_cast<std::size_t>(out_slot++)] = static_cast<ArcId>(id);
    auto& in_slot = in_offsets_[static_cast<std::size_t>(a.to) + 1];
    in_csr_[static_cast<std::size_t>(in_slot++)] = static_cast<ArcId>(id);
  }
  out_offsets_.pop_back();
  in_offsets_.pop_back();
  csr_valid_ = true;
}

std::span<const ArcId> Digraph::out_arcs(VertexId v) const {
  OCD_EXPECTS(valid_vertex(v));
  if (!csr_valid_) build_csr();
  const auto vi = static_cast<std::size_t>(v);
  return {out_csr_.data() + out_offsets_[vi],
          static_cast<std::size_t>(out_offsets_[vi + 1] - out_offsets_[vi])};
}

std::span<const ArcId> Digraph::in_arcs(VertexId v) const {
  OCD_EXPECTS(valid_vertex(v));
  if (!csr_valid_) build_csr();
  const auto vi = static_cast<std::size_t>(v);
  return {in_csr_.data() + in_offsets_[vi],
          static_cast<std::size_t>(in_offsets_[vi + 1] - in_offsets_[vi])};
}

std::vector<VertexId> Digraph::out_neighbors(VertexId v) const {
  std::vector<VertexId> out;
  for (ArcId id : out_arcs(v)) out.push_back(arc(id).to);
  return out;
}

std::vector<VertexId> Digraph::in_neighbors(VertexId v) const {
  std::vector<VertexId> out;
  for (ArcId id : in_arcs(v)) out.push_back(arc(id).from);
  return out;
}

std::int64_t Digraph::in_capacity(VertexId v) const {
  std::int64_t total = 0;
  for (ArcId id : in_arcs(v)) total += arc(id).capacity;
  return total;
}

std::int64_t Digraph::out_capacity(VertexId v) const {
  std::int64_t total = 0;
  for (ArcId id : out_arcs(v)) total += arc(id).capacity;
  return total;
}

}  // namespace ocd
