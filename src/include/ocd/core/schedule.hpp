// Distribution schedules (§3.1): a sequence of timesteps, each mapping
// arcs to the token sets sent across them.
//
// A timestep stores its sends flat: one ArcId per send and one block of
// words_per_row 64-bit words per send, in send order, over one token
// universe.  No send owns an allocation; ArcSend and MutableArcSend are
// views into the step that stores them.  sim::StepPlan plans into the
// same layout, so planning, validation, apply and recording share one
// representation of a step's sends.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

#include "ocd/graph/digraph.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::core {

/// Tokens sent across one arc during one timestep: a read view into the
/// Timestep (or sim::StepPlan) that stores the send, valid until that
/// storage next grows, shrinks or is destroyed.
struct ArcSend {
  ArcId arc = -1;
  TokenSetView tokens;
};

/// Mutable counterpart of ArcSend: in-place trims (loss, adapters)
/// rewrite a send's words through `tokens`.
struct MutableArcSend {
  ArcId arc = -1;
  MutableTokenSetView tokens;

  operator ArcSend() const noexcept {  // NOLINT(google-explicit-constructor)
    return {arc, tokens};
  }
};

/// A sized, random-access range over a flat send layout: send i is
/// arcs[i] with the words [i * words_per_row, (i + 1) * words_per_row).
/// Elements are views (prvalues), so `for (const ArcSend& s : range)`
/// binds each to a temporary and writes go through `s.tokens`.
template <typename Send, typename Word>
class SendRangeOf {
 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Send;
    using difference_type = std::ptrdiff_t;
    using reference = Send;

    iterator() = default;
    iterator(const ArcId* arc, Word* words, std::size_t words_per_row,
             std::size_t universe) noexcept
        : arc_(arc),
          words_(words),
          words_per_row_(words_per_row),
          universe_(universe) {}

    Send operator*() const noexcept { return Send{*arc_, {words_, universe_}}; }
    Send operator[](difference_type k) const noexcept { return *(*this + k); }

    iterator& operator++() noexcept { return *this += 1; }
    iterator operator++(int) noexcept {
      iterator old = *this;
      *this += 1;
      return old;
    }
    iterator& operator--() noexcept { return *this -= 1; }
    iterator operator--(int) noexcept {
      iterator old = *this;
      *this -= 1;
      return old;
    }
    iterator& operator+=(difference_type k) noexcept {
      arc_ += k;
      words_ += k * static_cast<difference_type>(words_per_row_);
      return *this;
    }
    iterator& operator-=(difference_type k) noexcept { return *this += -k; }
    friend iterator operator+(iterator it, difference_type k) noexcept {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) noexcept {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) noexcept {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a,
                                     const iterator& b) noexcept {
      return a.arc_ - b.arc_;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.arc_ == b.arc_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) noexcept {
      return a.arc_ <=> b.arc_;
    }

   private:
    const ArcId* arc_ = nullptr;
    Word* words_ = nullptr;
    std::size_t words_per_row_ = 0;
    std::size_t universe_ = 0;
  };

  SendRangeOf() = default;
  SendRangeOf(const ArcId* arcs, Word* words, std::size_t size,
              std::size_t universe) noexcept
      : arcs_(arcs), words_(words), size_(size), universe_(universe) {}

  /// A mutable range reads as a const one.
  operator SendRangeOf<ArcSend, const std::uint64_t>()  // NOLINT
      const noexcept
    requires(!std::is_const_v<Word>)
  {
    return {arcs_, words_, size_, universe_};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] iterator begin() const noexcept {
    return {arcs_, words_, words_per_row(), universe_};
  }
  [[nodiscard]] iterator end() const noexcept {
    return begin() + static_cast<std::ptrdiff_t>(size_);
  }
  [[nodiscard]] Send operator[](std::size_t i) const {
    OCD_EXPECTS(i < size_);
    return Send{arcs_[i], {words_ + i * words_per_row(), universe_}};
  }

 private:
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return (universe_ + 63) / 64;
  }

  const ArcId* arcs_ = nullptr;
  Word* words_ = nullptr;
  std::size_t size_ = 0;
  std::size_t universe_ = 0;
};

using SendRange = SendRangeOf<ArcSend, const std::uint64_t>;
using MutableSendRange = SendRangeOf<MutableArcSend, std::uint64_t>;

/// One timestep: a set of simultaneous moves, stored sparsely (only arcs
/// that carry at least one token appear) and flat (see the file
/// comment).  Every send of a step shares one universe, fixed by the
/// first send and free again once the step holds no send.
class Timestep {
 public:
  Timestep() = default;

  /// Adds `tokens` to the send set of `arc` (unioning with any previous
  /// entry for that arc).  An empty set adds nothing.
  void add(ArcId arc, TokenSetView tokens);
  void add(ArcId arc, TokenId token, std::size_t universe);

  /// Appends a send on `arc` without looking for an earlier one, so an
  /// arc may appear twice (validation charges the arc with the sum).
  /// Returns the new send, valid until the step next changes size.
  /// `tokens` must not view this step's own storage.
  MutableArcSend append(ArcId arc, TokenSetView tokens);
  /// Appends an empty send set over `universe` (see append above).
  MutableArcSend append(ArcId arc, std::size_t universe);

  /// The sends in order; views borrow this step's storage.
  [[nodiscard]] SendRange sends() const noexcept {
    return {arcs_.data(), words_.data(), arcs_.size(), universe_};
  }
  [[nodiscard]] MutableSendRange sends() noexcept {
    return {arcs_.data(), words_.data(), arcs_.size(), universe_};
  }

  /// Token-transfers in this timestep.
  [[nodiscard]] std::int64_t moves() const noexcept;

  /// True when no send carries a token.
  [[nodiscard]] bool empty() const noexcept;

  /// Removes arcs whose send set became empty.
  void compact();

  /// Removes every send on `arc`, keeping the others in order.
  void erase(ArcId arc);

  /// Removes every send; the storage is kept for reuse.
  void clear() noexcept;

  /// The sends that carry at least one token, in order, copied into
  /// exact-size storage (two allocations, none when nothing is sent).
  [[nodiscard]] Timestep nonempty_copy() const;

 private:
  /// Adds a send on `arc` over `universe` (the first send fixes the
  /// step's universe) and returns it; its words are the caller's to set.
  MutableArcSend push_send(ArcId arc, std::size_t universe);
  /// Keeps the sends for which keep(send) is true, in order.
  template <typename Keep>
  void keep_if(Keep&& keep);

  std::size_t universe_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<ArcId> arcs_;
  /// Send i's words start at i * words_per_row_.  Only the first
  /// arcs_.size() * words_per_row_ words are sends; clear() keeps the
  /// rest for reuse.
  std::vector<std::uint64_t> words_;
};

// The append path is the planner's per-send hot path (StepPlan::send
// for a fresh arc), so it is defined here where callers can inline it.
inline MutableArcSend Timestep::push_send(ArcId arc, std::size_t universe) {
  OCD_EXPECTS(arc >= 0);
  if (arcs_.empty()) {
    universe_ = universe;
    words_per_row_ = (universe + 63) / 64;
  } else {
    OCD_EXPECTS(universe == universe_);
  }
  const std::size_t at = arcs_.size() * words_per_row_;
  arcs_.push_back(arc);
  // The word block only grows: a cleared step (the plan pool) writes
  // its next sends over the words it already holds.
  if (words_.size() < at + words_per_row_) words_.resize(at + words_per_row_);
  return MutableArcSend{arc, {words_.data() + at, universe_}};
}

inline MutableArcSend Timestep::append(ArcId arc, TokenSetView tokens) {
  const MutableArcSend send = push_send(arc, tokens.universe_size());
  std::copy_n(tokens.words_data(), words_per_row_,
              send.tokens.mutable_words());
  return send;
}

inline MutableArcSend Timestep::append(ArcId arc, std::size_t universe) {
  const MutableArcSend send = push_send(arc, universe);
  send.tokens.clear();
  return send;
}

/// A full distribution schedule.
class Schedule {
 public:
  Schedule() = default;

  void append(Timestep step) { steps_.push_back(std::move(step)); }

  [[nodiscard]] const std::vector<Timestep>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::vector<Timestep>& steps() noexcept { return steps_; }

  /// Number of timesteps ("moves" on the paper's evaluation figures).
  [[nodiscard]] std::int64_t length() const noexcept {
    return static_cast<std::int64_t>(steps_.size());
  }

  /// Total token-transfers ("bandwidth").
  [[nodiscard]] std::int64_t bandwidth() const noexcept;

  /// Drops empty trailing timesteps (can appear after pruning).
  void trim();

  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

 private:
  std::vector<Timestep> steps_;
};

}  // namespace ocd::core
