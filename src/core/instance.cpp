#include "ocd/core/instance.hpp"

#include <sstream>

#include "ocd/graph/algorithms.hpp"

namespace ocd::core {

TokenSet File::tokens(std::size_t universe) const {
  TokenSet s(universe);
  for (std::int32_t i = 0; i < size; ++i) s.set(first + i);
  return s;
}

Instance::Instance(Digraph graph, std::int32_t num_tokens)
    : graph_(std::move(graph)), num_tokens_(num_tokens) {
  OCD_EXPECTS(num_tokens >= 0);
  // Build the CSR adjacency eagerly: instances are constructed before
  // any sweep thread runs, and Instance exposes no mutable graph
  // access, so the simulator hot path always reads the flat arrays.
  graph_.finalize();
  const auto n = static_cast<std::size_t>(graph_.num_vertices());
  have_.assign(n, TokenSet(static_cast<std::size_t>(num_tokens_)));
  want_.assign(n, TokenSet(static_cast<std::size_t>(num_tokens_)));
}

const TokenSet& Instance::have(VertexId v) const {
  OCD_EXPECTS(graph_.valid_vertex(v));
  return have_[static_cast<std::size_t>(v)];
}

const TokenSet& Instance::want(VertexId v) const {
  OCD_EXPECTS(graph_.valid_vertex(v));
  return want_[static_cast<std::size_t>(v)];
}

void Instance::add_have(VertexId v, TokenId t) {
  OCD_EXPECTS(graph_.valid_vertex(v));
  have_[static_cast<std::size_t>(v)].set(t);
}

void Instance::add_want(VertexId v, TokenId t) {
  OCD_EXPECTS(graph_.valid_vertex(v));
  want_[static_cast<std::size_t>(v)].set(t);
}

void Instance::set_have(VertexId v, TokenSetView tokens) {
  OCD_EXPECTS(graph_.valid_vertex(v));
  OCD_EXPECTS(tokens.universe_size() ==
              static_cast<std::size_t>(num_tokens_));
  MutableTokenSetView(have_[static_cast<std::size_t>(v)]).assign(tokens);
}

void Instance::set_want(VertexId v, TokenSetView tokens) {
  OCD_EXPECTS(graph_.valid_vertex(v));
  OCD_EXPECTS(tokens.universe_size() ==
              static_cast<std::size_t>(num_tokens_));
  MutableTokenSetView(want_[static_cast<std::size_t>(v)]).assign(tokens);
}

std::int32_t Instance::add_file(TokenId first, std::int32_t size) {
  OCD_EXPECTS(first >= 0 && size >= 1);
  OCD_EXPECTS(first + size <= num_tokens_);
  files_.push_back(File{first, size});
  return static_cast<std::int32_t>(files_.size()) - 1;
}

bool Instance::is_trivially_satisfied() const {
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (!want(v).is_subset_of(have(v))) return false;
  }
  return true;
}

bool Instance::is_satisfiable() const {
  // For each token, flood reachability from the union of its sources;
  // every wanter must be reached.
  for (TokenId t = 0; t < num_tokens_; ++t) {
    const auto sources = sources_of(t);
    std::vector<bool> wanted(static_cast<std::size_t>(num_vertices()), false);
    bool any_wanted = false;
    for (VertexId v = 0; v < num_vertices(); ++v) {
      if (want(v).test(t) && !have(v).test(t)) {
        wanted[static_cast<std::size_t>(v)] = true;
        any_wanted = true;
      }
    }
    if (!any_wanted) continue;
    if (sources.empty()) return false;
    // Multi-source BFS.
    std::vector<bool> reached(static_cast<std::size_t>(num_vertices()), false);
    std::vector<VertexId> stack = sources;
    for (VertexId s : sources) reached[static_cast<std::size_t>(s)] = true;
    while (!stack.empty()) {
      const VertexId u = stack.back();
      stack.pop_back();
      for (ArcId id : graph_.out_arcs(u)) {
        const VertexId w = graph_.arc(id).to;
        if (!reached[static_cast<std::size_t>(w)]) {
          reached[static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
    for (VertexId v = 0; v < num_vertices(); ++v) {
      if (wanted[static_cast<std::size_t>(v)] &&
          !reached[static_cast<std::size_t>(v)])
        return false;
    }
  }
  return true;
}

std::vector<VertexId> Instance::sources_of(TokenId t) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (have(v).test(t)) out.push_back(v);
  }
  return out;
}

std::int64_t Instance::total_outstanding() const {
  std::int64_t total = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    // |want - have| = |want| - |want & have|, with no set built.
    total += static_cast<std::int64_t>(want(v).count() -
                                       TokenSet::count_intersection(
                                           want(v), have(v)));
  }
  return total;
}

void Instance::validate() const {
  OCD_ASSERT(have_.size() == static_cast<std::size_t>(num_vertices()));
  OCD_ASSERT(want_.size() == static_cast<std::size_t>(num_vertices()));
  for (VertexId v = 0; v < num_vertices(); ++v) {
    OCD_ASSERT(have(v).universe_size() ==
               static_cast<std::size_t>(num_tokens_));
    OCD_ASSERT(want(v).universe_size() ==
               static_cast<std::size_t>(num_tokens_));
  }
  for (const File& f : files_) {
    OCD_ASSERT(f.first >= 0 && f.size >= 1 &&
               f.first + f.size <= num_tokens_);
  }
}

std::string Instance::summary() const {
  std::ostringstream out;
  out << "Instance{n=" << num_vertices() << ", arcs=" << graph_.num_arcs()
      << ", tokens=" << num_tokens_ << ", files=" << files_.size()
      << ", outstanding=" << total_outstanding() << '}';
  return out.str();
}

}  // namespace ocd::core
