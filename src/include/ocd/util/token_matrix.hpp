// TokenMatrix: a dense rows x universe bitset matrix in one contiguous
// uint64_t buffer, row-major.
//
// This is the flat-memory backing store for all per-vertex token state
// in the simulator: possession p_i(v), want sets, knowledge snapshots.
// Each row is a fixed-universe bitset laid out exactly like a
// TokenSet's word vector, so rows are handed out as TokenSetView /
// MutableTokenSetView and every word-level kernel in token_set.hpp
// works on them unchanged.
//
// Ownership rules:
//  - The matrix owns the words.  Views returned by row() borrow; they
//    are invalidated by reset() / operator= (which may reallocate) but
//    NOT by row mutations, clear(), or copy_from() (in-place writes).
//  - reset() reuses the existing allocation when the new shape fits,
//    which is what makes per-run reuse allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ocd/util/error.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::util {

class TokenMatrix {
 public:
  TokenMatrix() = default;
  TokenMatrix(std::size_t rows, std::size_t universe) {
    reset(rows, universe);
  }

  /// Reshape to rows x universe with every bit zero.  Reuses the
  /// existing word buffer when it is large enough.
  void reset(std::size_t rows, std::size_t universe) {
    rows_ = rows;
    universe_ = universe;
    words_per_row_ = (universe + 63) / 64;
    words_.assign(rows_ * words_per_row_, 0);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t universe_size() const noexcept {
    return universe_;
  }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }

  [[nodiscard]] TokenSetView row(std::size_t r) const {
    OCD_EXPECTS(r < rows_);
    return {words_.data() + r * words_per_row_, universe_};
  }
  [[nodiscard]] MutableTokenSetView row(std::size_t r) {
    OCD_EXPECTS(r < rows_);
    return {words_.data() + r * words_per_row_, universe_};
  }

  /// Same-universe overwrite of one row.
  void assign_row(std::size_t r, TokenSetView contents) {
    row(r).assign(contents);
  }

  /// Zero every bit; shape is unchanged.
  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// In-place copy of an identically shaped matrix (no reallocation).
  void copy_from(const TokenMatrix& other) {
    OCD_EXPECTS(rows_ == other.rows_ && universe_ == other.universe_);
    words_ = other.words_;  // equal size: copies into existing storage
  }

  bool operator==(const TokenMatrix& other) const = default;

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  /// Raw row-major words (row r starts at r * words_per_row()) for
  /// whole-matrix kernels, which must keep every row's tail bits zero.
  [[nodiscard]] std::uint64_t* mutable_words() noexcept {
    return words_.data();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t universe_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ocd::util
