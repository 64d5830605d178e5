#include "ocd/core/encoding.hpp"

#include <bit>

#include "ocd/util/error.hpp"

namespace ocd::core {

namespace {

constexpr std::uint32_t kMagic = 0x4f434453;  // "OCDS"

/// Bits needed to represent values in [0, n); at least 1.
int bits_for(std::uint32_t n) {
  if (n <= 1) return 1;
  return std::bit_width(n - 1);
}

class BitWriter {
 public:
  void write(std::uint64_t value, int bits) {
    OCD_EXPECTS(bits >= 0 && bits <= 64);
    for (int i = bits - 1; i >= 0; --i) push_bit((value >> i) & 1ULL);
  }

  void write_u32(std::uint32_t value) { write(value, 32); }

  [[nodiscard]] std::vector<std::uint8_t> finish() {
    // Flush the partial byte (zero-padded).
    if (fill_ != 0) {
      bytes_.push_back(static_cast<std::uint8_t>(current_ << (8 - fill_)));
      current_ = 0;
      fill_ = 0;
    }
    return std::move(bytes_);
  }

 private:
  void push_bit(std::uint64_t bit) {
    current_ = static_cast<std::uint8_t>((current_ << 1) | (bit & 1));
    if (++fill_ == 8) {
      bytes_.push_back(current_);
      current_ = 0;
      fill_ = 0;
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  int fill_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  std::uint64_t read(int bits) {
    OCD_EXPECTS(bits >= 0 && bits <= 64);
    std::uint64_t value = 0;
    for (int i = 0; i < bits; ++i) value = (value << 1) | read_bit();
    return value;
  }

  std::uint32_t read_u32() { return static_cast<std::uint32_t>(read(32)); }

 private:
  std::uint64_t read_bit() {
    const std::size_t byte = pos_ / 8;
    if (byte >= bytes_.size()) throw Error("schedule decoding: truncated input");
    const int shift = 7 - static_cast<int>(pos_ % 8);
    ++pos_;
    return (bytes_[byte] >> shift) & 1U;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> encode_schedule(const Schedule& schedule,
                                          std::int32_t num_arcs,
                                          std::int32_t num_tokens) {
  OCD_EXPECTS(num_arcs >= 0 && num_tokens >= 0);
  const int arc_bits = bits_for(static_cast<std::uint32_t>(num_arcs));
  const int token_bits = bits_for(static_cast<std::uint32_t>(num_tokens));
  // A per-step move count is bounded by num_arcs * num_tokens.
  const int count_bits = bits_for(static_cast<std::uint32_t>(
                             std::min<std::int64_t>(
                                 static_cast<std::int64_t>(num_arcs) *
                                     num_tokens,
                                 0x7fffffff))) +
                         1;

  BitWriter writer;
  writer.write_u32(kMagic);
  writer.write_u32(static_cast<std::uint32_t>(num_arcs));
  writer.write_u32(static_cast<std::uint32_t>(num_tokens));
  writer.write_u32(static_cast<std::uint32_t>(schedule.steps().size()));

  for (const Timestep& step : schedule.steps()) {
    writer.write(static_cast<std::uint64_t>(step.moves()), count_bits);
    for (const ArcSend& send : step.sends()) {
      OCD_EXPECTS(send.arc >= 0 && send.arc < num_arcs);
      send.tokens.for_each([&](TokenId t) {
        OCD_EXPECTS(t < num_tokens);
        writer.write(static_cast<std::uint64_t>(send.arc), arc_bits);
        writer.write(static_cast<std::uint64_t>(t), token_bits);
      });
    }
  }
  return writer.finish();
}

Schedule decode_schedule(const std::vector<std::uint8_t>& bytes) {
  BitReader reader(bytes);
  if (reader.read_u32() != kMagic)
    throw Error("schedule decoding: bad magic");
  const auto num_arcs = static_cast<std::int32_t>(reader.read_u32());
  const auto num_tokens = static_cast<std::int32_t>(reader.read_u32());
  const auto num_steps = reader.read_u32();
  if (num_arcs < 0 || num_tokens < 0)
    throw Error("schedule decoding: negative dimensions");

  const int arc_bits = bits_for(static_cast<std::uint32_t>(num_arcs));
  const int token_bits = bits_for(static_cast<std::uint32_t>(num_tokens));
  const int count_bits = bits_for(static_cast<std::uint32_t>(
                             std::min<std::int64_t>(
                                 static_cast<std::int64_t>(num_arcs) *
                                     num_tokens,
                                 0x7fffffff))) +
                         1;

  Schedule schedule;
  for (std::uint32_t i = 0; i < num_steps; ++i) {
    const auto moves = reader.read(count_bits);
    Timestep step;
    for (std::uint64_t k = 0; k < moves; ++k) {
      const auto arc = static_cast<ArcId>(reader.read(arc_bits));
      const auto token = static_cast<TokenId>(reader.read(token_bits));
      if (arc >= num_arcs || token >= num_tokens)
        throw Error("schedule decoding: id out of range");
      step.add(arc, token, static_cast<std::size_t>(num_tokens));
    }
    schedule.append(step);
  }
  return schedule;
}

std::int64_t encoded_body_bits(const Schedule& schedule,
                               std::int32_t num_arcs,
                               std::int32_t num_tokens) {
  const int arc_bits = bits_for(static_cast<std::uint32_t>(num_arcs));
  const int token_bits = bits_for(static_cast<std::uint32_t>(num_tokens));
  const int count_bits = bits_for(static_cast<std::uint32_t>(
                             std::min<std::int64_t>(
                                 static_cast<std::int64_t>(num_arcs) *
                                     num_tokens,
                                 0x7fffffff))) +
                         1;
  return schedule.length() * count_bits +
         schedule.bandwidth() * (arc_bits + token_bits);
}

}  // namespace ocd::core
