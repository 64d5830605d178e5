// The OCD problem instance: (G, T, h, w) from §3.1 of the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ocd/graph/digraph.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::core {

/// Files are represented as contiguous token ranges; the model itself
/// only sees tokens (§3: "files can be represented as sets of tokens").
struct File {
  TokenId first = 0;
  std::int32_t size = 0;

  [[nodiscard]] TokenSet tokens(std::size_t universe) const;
};

class Instance {
 public:
  Instance() = default;

  /// Builds an instance over `graph` with `num_tokens` tokens; have and
  /// want start empty.
  Instance(Digraph graph, std::int32_t num_tokens);

  [[nodiscard]] const Digraph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::int32_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] std::int32_t num_tokens() const noexcept {
    return num_tokens_;
  }

  [[nodiscard]] const TokenSet& have(VertexId v) const;
  [[nodiscard]] const TokenSet& want(VertexId v) const;
  /// Every vertex's have set, indexed by vertex.
  [[nodiscard]] std::span<const TokenSet> haves() const noexcept {
    return have_;
  }

  void add_have(VertexId v, TokenId t);
  void add_want(VertexId v, TokenId t);
  /// Copies `tokens` into v's row, which the constructor allocated.
  void set_have(VertexId v, TokenSetView tokens);
  void set_want(VertexId v, TokenSetView tokens);

  /// Declares a file (contiguous token range) for bookkeeping; returns
  /// its index.  Purely descriptive — the solver and heuristics operate
  /// on tokens.
  std::int32_t add_file(TokenId first, std::int32_t size);
  [[nodiscard]] const std::vector<File>& files() const noexcept {
    return files_;
  }

  /// Tokens some vertex still wants but does not have.
  [[nodiscard]] bool is_trivially_satisfied() const;

  /// Every wanted token is held by at least one vertex that can reach
  /// the wanter; a necessary and sufficient condition for FOCD
  /// satisfiability (flooding eventually succeeds on reachable tokens).
  [[nodiscard]] bool is_satisfiable() const;

  /// Vertices initially holding token t.
  [[nodiscard]] std::vector<VertexId> sources_of(TokenId t) const;

  /// Total count of (vertex, token) pairs wanted but not initially held.
  [[nodiscard]] std::int64_t total_outstanding() const;

  /// Sanity checks (universe sizes, vertex arities); throws on failure.
  void validate() const;

  [[nodiscard]] std::string summary() const;

 private:
  Digraph graph_;
  std::int32_t num_tokens_ = 0;
  std::vector<TokenSet> have_;
  std::vector<TokenSet> want_;
  std::vector<File> files_;
};

}  // namespace ocd::core
