#include "ocd/core/schedule.hpp"

#include <algorithm>
#include <ranges>

namespace ocd::core {

static_assert(std::ranges::random_access_range<SendRange> &&
              std::ranges::sized_range<SendRange>);
static_assert(std::ranges::random_access_range<MutableSendRange> &&
              std::ranges::sized_range<MutableSendRange>);

void Timestep::add(ArcId arc, TokenSetView tokens) {
  OCD_EXPECTS(arc >= 0);
  if (tokens.empty()) return;
  for (const MutableArcSend send : sends()) {
    if (send.arc == arc) {
      send.tokens |= tokens;
      return;
    }
  }
  append(arc, tokens);
}

void Timestep::add(ArcId arc, TokenId token, std::size_t universe) {
  OCD_EXPECTS(arc >= 0);
  for (const MutableArcSend send : sends()) {
    if (send.arc == arc) {
      send.tokens.set(token);
      return;
    }
  }
  append(arc, universe).tokens.set(token);
}

std::int64_t Timestep::moves() const noexcept {
  std::int64_t total = 0;
  for (const ArcSend send : sends())
    total += static_cast<std::int64_t>(send.tokens.count());
  return total;
}

bool Timestep::empty() const noexcept {
  const auto used = static_cast<std::ptrdiff_t>(arcs_.size() * words_per_row_);
  return std::none_of(words_.begin(), words_.begin() + used,
                      [](std::uint64_t w) { return w != 0; });
}

template <typename Keep>
void Timestep::keep_if(Keep&& keep) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const ArcSend send = sends()[i];
    if (!keep(send)) continue;
    if (kept != i) {
      arcs_[kept] = arcs_[i];
      std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(
                                       i * words_per_row_),
                  words_per_row_,
                  words_.begin() + static_cast<std::ptrdiff_t>(
                                       kept * words_per_row_));
    }
    ++kept;
  }
  arcs_.resize(kept);
  words_.resize(kept * words_per_row_);
}

void Timestep::compact() {
  keep_if([](const ArcSend& s) { return !s.tokens.empty(); });
}

void Timestep::erase(ArcId arc) {
  keep_if([arc](const ArcSend& s) { return s.arc != arc; });
}

void Timestep::clear() noexcept { arcs_.clear(); }

// Reserves the exact size and copies each kept send's words in, so no
// word is zero-filled only to be overwritten.
Timestep Timestep::nonempty_copy() const {
  std::size_t kept = 0;
  for (const ArcSend send : sends()) kept += send.tokens.empty() ? 0 : 1;
  Timestep out;
  if (kept == 0) return out;
  out.universe_ = universe_;
  out.words_per_row_ = words_per_row_;
  out.arcs_.reserve(kept);
  out.words_.reserve(kept * words_per_row_);
  for (const ArcSend send : sends()) {
    if (send.tokens.empty()) continue;
    out.arcs_.push_back(send.arc);
    const std::uint64_t* words = send.tokens.words_data();
    out.words_.insert(out.words_.end(), words, words + words_per_row_);
  }
  return out;
}

std::int64_t Schedule::bandwidth() const noexcept {
  std::int64_t total = 0;
  for (const Timestep& step : steps_) total += step.moves();
  return total;
}

void Schedule::trim() {
  for (Timestep& step : steps_) step.compact();
  while (!steps_.empty() && steps_.back().empty()) steps_.pop_back();
}

}  // namespace ocd::core
