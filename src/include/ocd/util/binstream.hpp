// Compact binary serialization for the sharded runtime's barrier frames
// (the husky engine's BinStream idiom: one append-only byte buffer,
// typed put/get pairs, no schema negotiation).
//
// The frames are per-step delivery batches, ghost deltas, the
// coordinated planner's election frames and each shard's finish
// fragment (counters plus its schedule fragment), so the encoding
// favors the shapes those produce:
//   * varint (LEB128) for every count and id: delivery batches are
//     dominated by small arc ids and short token lists;
//   * TokenSets carry a one-byte encoding tag chosen per set — raw
//     words when dense, delta-coded sorted ids when sparse — so a
//     capacity-bounded delivery over a 4096-token universe costs a few
//     bytes, not half a kilobyte;
//   * fixed-width little-endian for the word payloads, independent of
//     host endianness.
//
// Every read names the field being decoded; a truncated or corrupted
// stream throws ocd::Error whose message carries that field name, so a
// transport bug reports "truncated reading 'delivery.tokens'" instead
// of a silent misparse.  Reads never trust the buffer: counts are
// bounds-checked before allocation, token ids must be strictly
// increasing and inside the declared universe, and raw bitset words
// must keep their tail bits clear.
#pragma once

#include <cstdint>
#include <string>

#include "ocd/core/schedule.hpp"
#include "ocd/util/error.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::util {

class BinStream {
 public:
  BinStream() = default;
  /// Adopts `bytes` for reading (read position starts at 0).
  explicit BinStream(std::string bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  /// Moves the buffer out (e.g. to hand it to a transport frame).
  [[nodiscard]] std::string take() && { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  /// True when every byte has been consumed — message decoders check
  /// this to reject trailing garbage.
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

  // ---- writers -------------------------------------------------------
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void put_u64(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// LEB128; the encoding for every count and id.
  void put_varint(std::uint64_t v);
  /// Signed values that are almost always small and non-negative
  /// (capacities, step numbers): zig-zag + LEB128.
  void put_varint_signed(std::int64_t v);
  void put_bytes(const void* data, std::size_t n);

  // ---- readers (throw ocd::Error naming `field` on failure) ----------
  std::uint8_t get_u8(const char* field);
  std::uint64_t get_u64(const char* field);
  bool get_bool(const char* field);
  std::uint64_t get_varint(const char* field);
  std::int64_t get_varint_signed(const char* field);

  /// Decoder-side validation helper: throws ocd::Error naming `field`
  /// when `cond` is false.
  void require(bool cond, const char* field, const char* why) const;

 private:
  [[noreturn]] void fail_truncated(const char* field,
                                   std::size_t need) const;
  const char* read_span(const char* field, std::size_t n);

  std::string bytes_;
  std::size_t pos_ = 0;
};

// ---- TokenSet --------------------------------------------------------
/// Encodes universe + contents with a per-set density tag: raw words
/// when dense, strictly-increasing delta-coded ids when sparse.
void put_token_set(BinStream& stream, TokenSetView tokens);
/// Decodes a TokenSet written by put_token_set; validates the tag, the
/// id ordering/bounds, and (raw encoding) the tail-bit invariant.
TokenSet get_token_set(BinStream& stream, const char* field);
/// As get_token_set, but decodes into `out` (cleared first); the
/// declared universe must match out's.  The allocation-free path for
/// fixed-universe payloads (delivery batches into matrix rows).
void get_token_set_into(BinStream& stream, const char* field,
                        MutableTokenSetView out);

// ---- Schedule (finish fragments) -------------------------------------
void put_schedule(BinStream& stream, const core::Schedule& schedule);
core::Schedule get_schedule(BinStream& stream, const char* field);

}  // namespace ocd::util
