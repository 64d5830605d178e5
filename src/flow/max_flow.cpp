#include "ocd/flow/max_flow.hpp"

#include <algorithm>

namespace ocd::flow {

void MaxFlow::reset(std::int32_t num_vertices) {
  OCD_EXPECTS(num_vertices >= 0);
  n_ = num_vertices;
  to_.clear();
  from_.clear();
  cap_.clear();
  init_cap_.clear();
  csr_dirty_ = true;
  // Vertex-indexed scratch is sized up front so runs never resize it;
  // clear() above kept the arc arrays' capacity, and resize here only
  // allocates when this instance grows past its high-water mark.
  const auto n = static_cast<std::size_t>(num_vertices);
  if (level_.size() < n) {
    level_.resize(n);
    cur_.resize(n);
    queue_.resize(n);
    offsets_.resize(n + 1);
    // The DFS path visits each vertex at most once; reserving here keeps
    // blocking_flow's push_back off the heap.
    path_.reserve(n);
  }
}

std::int32_t MaxFlow::add_edge(std::int32_t from, std::int32_t to,
                               Flow capacity, Flow reverse_capacity) {
  OCD_EXPECTS(from >= 0 && from < n_);
  OCD_EXPECTS(to >= 0 && to < n_);
  OCD_EXPECTS(capacity >= 0 && capacity <= kInfinity);
  OCD_EXPECTS(reverse_capacity >= 0 && reverse_capacity <= kInfinity);
  const auto id = static_cast<std::int32_t>(to_.size() / 2);
  to_.push_back(to);
  from_.push_back(from);
  cap_.push_back(capacity);
  init_cap_.push_back(capacity);
  to_.push_back(from);
  from_.push_back(to);
  cap_.push_back(reverse_capacity);
  init_cap_.push_back(reverse_capacity);
  csr_dirty_ = true;
  return id;
}

void MaxFlow::build_csr() {
  if (!csr_dirty_) return;
  const auto n = static_cast<std::size_t>(n_);
  const auto m = to_.size();
  if (adj_.size() < m) adj_.resize(m);
  std::fill(offsets_.begin(), offsets_.begin() + static_cast<std::ptrdiff_t>(n) + 1,
            0);
  for (std::size_t a = 0; a < m; ++a)
    ++offsets_[static_cast<std::size_t>(from_[a]) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  // Stable counting sort by tail vertex: cur_ doubles as the write
  // cursor here, so per-vertex arc order is insertion order.
  std::copy(offsets_.begin(), offsets_.begin() + static_cast<std::ptrdiff_t>(n),
            cur_.begin());
  for (std::size_t a = 0; a < m; ++a)
    adj_[static_cast<std::size_t>(
        cur_[static_cast<std::size_t>(from_[a])]++)] =
        static_cast<std::int32_t>(a);
  csr_dirty_ = false;
}

bool MaxFlow::bfs(std::int32_t source, std::int32_t sink) {
  std::fill(level_.begin(), level_.begin() + static_cast<std::ptrdiff_t>(n_),
            -1);
  std::int32_t head = 0;
  std::int32_t tail = 0;
  level_[static_cast<std::size_t>(source)] = 0;
  queue_[static_cast<std::size_t>(tail++)] = source;
  while (head < tail) {
    const std::int32_t v = queue_[static_cast<std::size_t>(head++)];
    const std::int32_t lv = level_[static_cast<std::size_t>(v)];
    for (std::int32_t c = offsets_[static_cast<std::size_t>(v)];
         c < offsets_[static_cast<std::size_t>(v) + 1]; ++c) {
      const std::int32_t a = adj_[static_cast<std::size_t>(c)];
      if (cap_[static_cast<std::size_t>(a)] <= 0) continue;
      const std::int32_t w = to_[static_cast<std::size_t>(a)];
      if (level_[static_cast<std::size_t>(w)] >= 0) continue;
      level_[static_cast<std::size_t>(w)] = lv + 1;
      queue_[static_cast<std::size_t>(tail++)] = w;
    }
  }
  return level_[static_cast<std::size_t>(sink)] >= 0;
}

MaxFlow::Flow MaxFlow::blocking_flow(std::int32_t source,
                                     std::int32_t sink) {
  std::copy(offsets_.begin(), offsets_.begin() + static_cast<std::ptrdiff_t>(n_),
            cur_.begin());
  Flow total = 0;
  path_.clear();
  std::int32_t v = source;
  while (true) {
    if (v == sink) {
      // Augment by the path bottleneck, then retreat to just before the
      // first arc the augmentation saturated.
      Flow bottleneck = kInfinity;
      for (const std::int32_t a : path_)
        bottleneck = std::min(bottleneck, cap_[static_cast<std::size_t>(a)]);
      for (const std::int32_t a : path_) {
        cap_[static_cast<std::size_t>(a)] -= bottleneck;
        cap_[static_cast<std::size_t>(a) ^ 1] += bottleneck;
      }
      total += bottleneck;
      std::size_t keep = 0;
      while (keep < path_.size() &&
             cap_[static_cast<std::size_t>(path_[keep])] > 0)
        ++keep;
      v = from_[static_cast<std::size_t>(path_[keep])];
      path_.resize(keep);
      continue;
    }
    // Advance along the current arc if one is admissible.
    bool advanced = false;
    std::int32_t& c = cur_[static_cast<std::size_t>(v)];
    for (; c < offsets_[static_cast<std::size_t>(v) + 1]; ++c) {
      const std::int32_t a = adj_[static_cast<std::size_t>(c)];
      if (cap_[static_cast<std::size_t>(a)] <= 0) continue;
      const std::int32_t w = to_[static_cast<std::size_t>(a)];
      if (level_[static_cast<std::size_t>(w)] !=
          level_[static_cast<std::size_t>(v)] + 1)
        continue;
      path_.push_back(a);
      v = w;
      advanced = true;
      break;
    }
    if (advanced) continue;
    // Dead end: prune v from this phase and retreat one arc.
    level_[static_cast<std::size_t>(v)] = -1;
    if (path_.empty()) break;  // the source itself is exhausted
    v = from_[static_cast<std::size_t>(path_.back())];
    path_.pop_back();
  }
  return total;
}

MaxFlow::Flow MaxFlow::run(std::int32_t source, std::int32_t sink) {
  OCD_EXPECTS(source >= 0 && source < n_);
  OCD_EXPECTS(sink >= 0 && sink < n_);
  OCD_EXPECTS(source != sink);
  build_csr();
  Flow total = 0;
  while (bfs(source, sink)) total += blocking_flow(source, sink);
  return total;
}

}  // namespace ocd::flow
