// Distribution schedules (§3.1): a sequence of timesteps, each mapping
// arcs to the token sets sent across them.
//
// A step has two forms, one per job:
//  * The working form, Timestep (and sim::StepPlan, which plans into
//    one): one ArcId per send and one full row of words_per_row 64-bit
//    words per send, in send order, over one token universe.  Planners
//    OR into rows, so every word of a row is stored.  No send owns an
//    allocation; ArcSend and MutableArcSend are views into the step.
//  * The recorded form, Schedule: each step packed into one block that
//    keeps, per send, its ArcId, a present-word mask of m bytes and
//    only its nonzero words.  With W = words_per_row, m = ceil(W / 8),
//    or 0 when W = 1, since a stored one-word send's word is always
//    present.  A send costs 4 + m + 8 * present bytes instead of
//    4 + 8 * W (12 both at W = 1; at 512 tokens, 13 against 68 for a
//    send that sets one word), and a step adds one slack word and its
//    rounding to whole words.  A send with no token is never stored.
//
// Schedule::steps() decodes each step on access into an owning
// Timestep, a temporary.  Bind it before reading its sends: in
// `for (const ArcSend& s : schedule.steps()[i].sends())` the step dies
// before the loop body runs, so Timestep::sends() is deleted on
// rvalues and that line does not compile.  Readers that need only the
// words (core::validate, Schedule::bandwidth) read the packed form in
// place through Schedule::packed().
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
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
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return universe_;
  }
  /// The flat arrays: size() arc ids, and size() rows of words.
  [[nodiscard]] const ArcId* arcs_data() const noexcept { return arcs_; }
  [[nodiscard]] Word* words_data() const noexcept { return words_; }

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

  /// The sends in order; views borrow this step's storage.  Deleted on
  /// rvalues: the views would outlive the step (see the file comment).
  [[nodiscard]] SendRange sends() const& noexcept {
    return {arcs_.data(), words_.data(), arcs_.size(), universe_};
  }
  [[nodiscard]] MutableSendRange sends() & noexcept {
    return {arcs_.data(), words_.data(), arcs_.size(), universe_};
  }
  SendRange sends() const&& = delete;

  /// Token-transfers in this timestep.
  [[nodiscard]] std::int64_t moves() const noexcept;

  /// True when no send carries a token.
  [[nodiscard]] bool empty() const noexcept;

  /// Removes every send on `arc`, keeping the others in order.
  void erase(ArcId arc);

  /// Removes every send; the storage is kept for reuse.
  void clear() noexcept;

 private:
  /// Adds a send on `arc` over `universe` (the first send fixes the
  /// step's universe) and returns it; its words are the caller's to set.
  MutableArcSend push_send(ArcId arc, std::size_t universe);
  /// Keeps the sends for which keep(send) is true, in order.
  template <typename Keep>
  void keep_if(Keep&& keep);

  friend class Schedule;  // decodes packed steps into exact-size storage

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

/// One send of a packed step, read in place: its arc and its present
/// words.  A view into the Schedule that stores it, valid until that
/// schedule changes or is destroyed.
class PackedSend {
 public:
  PackedSend(ArcId arc, const std::uint8_t* mask, std::size_t words_per_row,
             const std::uint64_t* words) noexcept
      : arc_(arc), mask_(mask), words_per_row_(words_per_row), words_(words) {}

  [[nodiscard]] ArcId arc() const noexcept { return arc_; }

  /// Stored words: the nonzero words of the send's row.
  [[nodiscard]] std::size_t present() const noexcept {
    if (words_per_row_ == 1) return 1;
    std::size_t total = 0;
    for (std::size_t b = 0; b * 8 < words_per_row_; ++b)
      total += bits_in(mask_[b]);
    return total;
  }

  /// Invokes fn(word index, word) for every stored word, by increasing
  /// index; the row's other words are zero.
  template <typename Fn>
  void for_each_word(Fn&& fn) const {
    if (words_per_row_ == 1) {
      fn(std::size_t{0}, words_[0]);
      return;
    }
    const std::uint64_t* word = words_;
    for (std::size_t b = 0; b * 8 < words_per_row_; ++b) {
      for (unsigned bits = mask_[b]; bits != 0; bits &= bits - 1)
        fn(8 * b + static_cast<std::size_t>(std::countr_zero(bits)), *word++);
    }
  }

  /// Set bits of `x`, inline: on a baseline x86-64 build std::popcount
  /// is a library call, and readers count every stored word and mask.
  [[nodiscard]] static constexpr std::size_t bits_in(std::uint64_t x) noexcept {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
  }

 private:
  ArcId arc_;
  const std::uint8_t* mask_;  ///< unused when a row is one word
  std::size_t words_per_row_;
  const std::uint64_t* words_;
};

/// One step of a Schedule in the packed form (see the file comment): a
/// forward range of PackedSend in send order, read in place.
class PackedStep {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = PackedSend;
    using difference_type = std::ptrdiff_t;
    using reference = PackedSend;

    iterator() = default;
    iterator(const std::uint8_t* arc, const std::uint8_t* mask,
             std::size_t words_per_row, const std::uint64_t* words) noexcept
        : arc_(arc),
          mask_(mask),
          words_per_row_(words_per_row),
          words_(words) {}

    PackedSend operator*() const noexcept {
      ArcId arc = 0;  // the block stores words; arc ids are copied out
      std::memcpy(&arc, arc_, sizeof arc);
      return {arc, mask_, words_per_row_, words_};
    }
    iterator& operator++() noexcept {
      words_ += (**this).present();
      mask_ += mask_bytes_for(words_per_row_);
      arc_ += sizeof(ArcId);
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.arc_ == b.arc_;
    }

   private:
    const std::uint8_t* arc_ = nullptr;
    const std::uint8_t* mask_ = nullptr;
    std::size_t words_per_row_ = 0;
    const std::uint64_t* words_ = nullptr;
  };

  PackedStep(const std::uint64_t* block, std::size_t sends,
             std::size_t words, std::size_t universe) noexcept
      : block_(block), sends_(sends), words_(words), universe_(universe) {}

  /// Bytes of mask per send over rows of `words_per_row` words: none
  /// when a row is one word, whose one stored word is always present.
  [[nodiscard]] static constexpr std::size_t mask_bytes_for(
      std::size_t words_per_row) noexcept {
    return words_per_row <= 1 ? 0 : (words_per_row + 7) / 8;
  }

  /// Stored sends; none of them is empty.
  [[nodiscard]] std::size_t size() const noexcept { return sends_; }
  [[nodiscard]] bool empty() const noexcept { return sends_ == 0; }
  /// The sends' token universe (0 when the step sends nothing).
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return universe_;
  }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return (universe_ + 63) / 64;
  }
  [[nodiscard]] iterator begin() const noexcept {
    return {arcs(), masks(), words_per_row(), block_};
  }
  [[nodiscard]] iterator end() const noexcept {
    return {arcs() + sends_ * sizeof(ArcId), nullptr, 0, nullptr};
  }

 private:
  // The block holds the words first, so they stay aligned, then one
  // slack word the writer needs, then the arc ids, then the masks.
  [[nodiscard]] const std::uint8_t* arcs() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(block_ + words_ + 1);
  }
  [[nodiscard]] const std::uint8_t* masks() const noexcept {
    return arcs() + sends_ * sizeof(ArcId);
  }

  const std::uint64_t* block_;
  std::size_t sends_;
  std::size_t words_;
  std::size_t universe_;
};

class Schedule;

/// Schedule::steps(): a sized range whose elements are owning
/// Timesteps decoded on access (prvalues; see the file comment for the
/// lifetime rule).  A view of the schedule, valid while it lives.
class StepRange {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Timestep;
    using difference_type = std::ptrdiff_t;
    using reference = Timestep;

    iterator() = default;
    iterator(const Schedule* schedule, std::size_t index) noexcept
        : schedule_(schedule), index_(index) {}

    Timestep operator*() const;
    iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    const Schedule* schedule_ = nullptr;
    std::size_t index_ = 0;
  };

  explicit StepRange(const Schedule& schedule) noexcept
      : schedule_(&schedule) {}

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] Timestep operator[](std::size_t i) const;
  [[nodiscard]] Timestep front() const { return (*this)[0]; }
  [[nodiscard]] Timestep back() const { return (*this)[size() - 1]; }
  [[nodiscard]] iterator begin() const noexcept { return {schedule_, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {schedule_, size()}; }

 private:
  const Schedule* schedule_;
};

/// A full distribution schedule, each step stored packed (see the file
/// comment): one block per step, none for a step that sends nothing.
class Schedule {
 public:
  Schedule() = default;
  Schedule(const Schedule& other);
  Schedule& operator=(const Schedule& other);
  Schedule(Schedule&&) noexcept = default;
  Schedule& operator=(Schedule&&) noexcept = default;
  ~Schedule() = default;

  /// Packs the sends that carry a token as the next step, in order; a
  /// send with no token is dropped.  One allocation, sized exactly.
  void append(SendRange sends);
  void append(const Timestep& step) { append(step.sends()); }

  /// The steps, each decoded on access (two allocations per step).
  [[nodiscard]] StepRange steps() const noexcept { return StepRange(*this); }
  /// Step i, decoded into an owning Timestep.
  [[nodiscard]] Timestep step(std::size_t i) const;
  /// Step i in the packed form, read in place without decoding.
  [[nodiscard]] PackedStep packed(std::size_t i) const {
    OCD_EXPECTS(i < steps_.size());
    const Packed& step = steps_[i];
    return {step.block.get(), step.sends, step.words, step.universe};
  }

  /// Number of timesteps ("moves" on the paper's evaluation figures).
  [[nodiscard]] std::int64_t length() const noexcept {
    return static_cast<std::int64_t>(steps_.size());
  }

  /// Total token-transfers ("bandwidth").
  [[nodiscard]] std::int64_t bandwidth() const;

  /// Drops empty trailing timesteps (can appear after pruning).
  void trim();

  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

 private:
  /// A step's block holds `words` present words, a slack word, `sends`
  /// arc ids and `sends` masks (PackedStep reads it); null when sends
  /// is 0.
  struct Packed {
    std::unique_ptr<std::uint64_t[]> block;
    std::size_t sends = 0;
    std::size_t words = 0;
    std::size_t universe = 0;
  };
  /// The block's size in 64-bit words.
  [[nodiscard]] static std::size_t block_words(const Packed& step) noexcept;

  std::vector<Packed> steps_;
};

inline std::size_t StepRange::size() const noexcept {
  return static_cast<std::size_t>(schedule_->length());
}

inline Timestep StepRange::operator[](std::size_t i) const {
  return schedule_->step(i);
}

inline Timestep StepRange::iterator::operator*() const {
  return schedule_->step(index_);
}

}  // namespace ocd::core
