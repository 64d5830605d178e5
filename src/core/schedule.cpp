#include "ocd/core/schedule.hpp"

#include <algorithm>
#include <cstring>
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

void Timestep::erase(ArcId arc) {
  keep_if([arc](const ArcSend& s) { return s.arc != arc; });
}

void Timestep::clear() noexcept { arcs_.clear(); }

static_assert(std::ranges::forward_range<StepRange> &&
              std::ranges::sized_range<StepRange>);
static_assert(std::ranges::forward_range<PackedStep>);

std::size_t Schedule::block_words(const Packed& step) noexcept {
  const std::size_t mask_bytes =
      PackedStep::mask_bytes_for((step.universe + 63) / 64);
  const std::size_t tail = step.sends * (sizeof(ArcId) + mask_bytes);
  return step.words + 1 +
         (tail + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
}

Schedule::Schedule(const Schedule& other) { *this = other; }

Schedule& Schedule::operator=(const Schedule& other) {
  if (this == &other) return *this;
  std::vector<Packed> steps(other.steps_.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Packed& from = other.steps_[i];
    Packed& to = steps[i];
    to.sends = from.sends;
    to.words = from.words;
    to.universe = from.universe;
    if (from.sends == 0) continue;
    const std::size_t size = block_words(from);
    to.block = std::make_unique_for_overwrite<std::uint64_t[]>(size);
    std::memcpy(to.block.get(), from.block.get(),
                size * sizeof(std::uint64_t));
  }
  steps_ = std::move(steps);
  return *this;
}

// Two passes over the rows.  The first counts the present words, the
// kept sends and the last kept send, so the block is allocated once at
// its exact size.  The second writes it without a branch per word:
// every word is stored at the next free word slot, and only a nonzero
// one advances it, so a zero word is overwritten by the next present
// one or lands in the slack word after the last; the send's mask byte
// gathers one bit per word.  It stops at the last kept send, so the arc
// and mask slots it writes for an empty send (which the next kept send
// then overwrites) are always inside the block.
void Schedule::append(SendRange sends) {
  const std::size_t universe = sends.universe_size();
  const std::size_t row = (universe + 63) / 64;
  const std::uint64_t* rows = sends.words_data();
  std::size_t kept = 0;
  std::size_t present = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    std::size_t nonzero = 0;
    for (std::size_t w = 0; w < row; ++w)
      nonzero += rows[i * row + w] != 0 ? 1 : 0;
    present += nonzero;
    if (nonzero != 0) {
      ++kept;
      last = i;
    }
  }
  Packed& step = steps_.emplace_back();
  if (kept == 0) return;
  step.sends = kept;
  step.words = present;
  step.universe = universe;
  step.block = std::make_unique_for_overwrite<std::uint64_t[]>(
      block_words(step));

  std::uint64_t* words = step.block.get();
  words[present] = 0;  // the slack word
  auto* arcs = reinterpret_cast<std::uint8_t*>(words + present + 1);
  std::uint8_t* masks = arcs + kept * sizeof(ArcId);
  const std::size_t mask_bytes = PackedStep::mask_bytes_for(row);
  const ArcId* arc_ids = sends.arcs_data();
  std::size_t out = 0;
  std::size_t slot = 0;
  for (std::size_t i = 0; i <= last; ++i) {
    const std::uint64_t* from = rows + i * row;
    const std::size_t before = out;
    for (std::size_t b = 0; b * 8 < row; ++b) {
      unsigned bits = 0;
      const std::size_t end = std::min(row, b * 8 + 8);
      for (std::size_t w = b * 8; w < end; ++w) {
        const std::uint64_t word = from[w];
        const unsigned nonzero = word != 0 ? 1 : 0;
        words[out] = word;
        out += nonzero;
        bits |= nonzero << (w - b * 8);
      }
      if (mask_bytes != 0)
        masks[slot * mask_bytes + b] = static_cast<std::uint8_t>(bits);
    }
    std::memcpy(arcs + slot * sizeof(ArcId), arc_ids + i, sizeof(ArcId));
    slot += out != before ? 1 : 0;
  }
  OCD_ENSURES(slot == kept && out == present);
}

Timestep Schedule::step(std::size_t i) const {
  const PackedStep packed_step = packed(i);
  Timestep out;
  if (packed_step.empty()) return out;
  const std::size_t row = packed_step.words_per_row();
  out.universe_ = packed_step.universe_size();
  out.words_per_row_ = row;
  out.arcs_.reserve(packed_step.size());
  out.words_.resize(packed_step.size() * row);
  std::uint64_t* to = out.words_.data();
  for (const PackedSend send : packed_step) {
    out.arcs_.push_back(send.arc());
    send.for_each_word(
        [to](std::size_t w, std::uint64_t word) { to[w] = word; });
    to += row;
  }
  return out;
}

std::int64_t Schedule::bandwidth() const {
  std::size_t total = 0;
  for (const Packed& step : steps_)
    total += util::simd::kernels().count(step.block.get(), step.words);
  return static_cast<std::int64_t>(total);
}

void Schedule::trim() {
  while (!steps_.empty() && steps_.back().sends == 0) steps_.pop_back();
}

}  // namespace ocd::core
