#include "ocd/util/binstream.hpp"

#include <limits>
#include <sstream>

namespace ocd::util {

namespace {

/// Bytes one LEB128-coded id below `universe` can occupy; drives the
/// deterministic raw-vs-sparse choice in put_token_set.
std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

[[noreturn]] void fail_corrupt(const char* field, const char* why) {
  std::ostringstream msg;
  msg << "binstream: corrupt stream reading '" << field << "': " << why;
  throw Error(msg.str());
}

}  // namespace

void BinStream::fail_truncated(const char* field, std::size_t need) const {
  std::ostringstream msg;
  msg << "binstream: truncated stream reading '" << field << "' (need "
      << need << " byte(s) at offset " << pos_ << ", have "
      << bytes_.size() - pos_ << ")";
  throw Error(msg.str());
}

void BinStream::require(bool cond, const char* field,
                        const char* why) const {
  if (!cond) fail_corrupt(field, why);
}

const char* BinStream::read_span(const char* field, std::size_t n) {
  if (bytes_.size() - pos_ < n) fail_truncated(field, n);
  const char* out = bytes_.data() + pos_;
  pos_ += n;
  return out;
}

void BinStream::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void BinStream::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  bytes_.push_back(static_cast<char>(v));
}

void BinStream::put_varint_signed(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void BinStream::put_bytes(const void* data, std::size_t n) {
  bytes_.append(static_cast<const char*>(data), n);
}

std::uint8_t BinStream::get_u8(const char* field) {
  return static_cast<std::uint8_t>(*read_span(field, 1));
}

std::uint64_t BinStream::get_u64(const char* field) {
  const char* p = read_span(field, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

bool BinStream::get_bool(const char* field) {
  const std::uint8_t v = get_u8(field);
  require(v <= 1, field, "boolean byte not 0/1");
  return v != 0;
}

std::uint64_t BinStream::get_varint(const char* field) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto byte =
        static_cast<std::uint8_t>(*read_span(field, 1));
    // The 10th byte may only carry the single remaining bit.
    require(shift < 63 || byte <= 1, field, "varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  fail_corrupt(field, "varint longer than 10 bytes");
}

std::int64_t BinStream::get_varint_signed(const char* field) {
  const std::uint64_t u = get_varint(field);
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

// ---------------------------------------------------------------------
// TokenSet
// ---------------------------------------------------------------------
namespace {
constexpr std::uint8_t kTokenSetRaw = 0;
constexpr std::uint8_t kTokenSetSparse = 1;
}  // namespace

void put_token_set(BinStream& stream, TokenSetView tokens) {
  const std::size_t universe = tokens.universe_size();
  const std::size_t words = tokens.num_words();
  stream.put_varint(universe);
  const std::size_t count = tokens.count();
  // Worst-case sparse size vs exact raw size; ties go to raw (one
  // memcpy-shaped decode instead of a bit-set loop).
  const std::size_t id_len = universe == 0 ? 1 : varint_len(universe - 1);
  if (count * id_len + varint_len(count) < words * 8) {
    stream.put_u8(kTokenSetSparse);
    stream.put_varint(count);
    TokenId prev = -1;
    tokens.for_each([&](TokenId t) {
      stream.put_varint(static_cast<std::uint64_t>(t - prev - 1));
      prev = t;
    });
  } else {
    stream.put_u8(kTokenSetRaw);
    for (std::size_t w = 0; w < words; ++w)
      stream.put_u64(tokens.words_data()[w]);
  }
}

namespace {

/// Shared decode core: validates and sets bits into `out`, which must
/// already span `universe` (cleared by the caller).
void decode_token_set(BinStream& stream, const char* field,
                      MutableTokenSetView out) {
  const std::size_t universe = out.universe_size();
  const std::uint8_t tag = stream.get_u8(field);
  if (tag == kTokenSetRaw) {
    const std::size_t words = out.num_words();
    for (std::size_t w = 0; w < words; ++w)
      out.mutable_words()[w] = stream.get_u64(field);
    if (universe % 64 != 0 && words > 0) {
      const std::uint64_t tail_mask = (~0ULL) >> (64 - universe % 64);
      stream.require((out.words_data()[words - 1] & ~tail_mask) == 0, field,
                     "raw bitset has bits set beyond the universe");
    }
  } else if (tag == kTokenSetSparse) {
    const std::uint64_t count = stream.get_varint(field);
    stream.require(count <= universe, field,
                   "sparse token count exceeds universe");
    std::int64_t prev = -1;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t delta = stream.get_varint(field);
      const std::int64_t t = prev + 1 + static_cast<std::int64_t>(delta);
      stream.require(t < static_cast<std::int64_t>(universe), field,
                     "token id outside the declared universe");
      out.set(static_cast<TokenId>(t));
      prev = t;
    }
  } else {
    stream.require(false, field, "unknown token-set encoding tag");
  }
}

}  // namespace

TokenSet get_token_set(BinStream& stream, const char* field) {
  const std::uint64_t universe = stream.get_varint(field);
  // An attacker-controlled universe drives the allocation below;
  // TokenId is 32-bit signed, so anything beyond its range is garbage.
  stream.require(
      universe <= static_cast<std::uint64_t>(
                      std::numeric_limits<std::int32_t>::max()),
      field, "token-set universe exceeds the TokenId range");
  TokenSet out(static_cast<std::size_t>(universe));
  decode_token_set(stream, field, MutableTokenSetView(out));
  return out;
}

void get_token_set_into(BinStream& stream, const char* field,
                        MutableTokenSetView out) {
  const std::uint64_t universe = stream.get_varint(field);
  stream.require(universe == out.universe_size(), field,
                 "token-set universe does not match the destination");
  out.clear();
  decode_token_set(stream, field, out);
}

// ---------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------
void put_schedule(BinStream& stream, const core::Schedule& schedule) {
  stream.put_varint(schedule.steps().size());
  for (const core::Timestep& step : schedule.steps()) {
    stream.put_varint(step.sends().size());
    for (const core::ArcSend& send : step.sends()) {
      stream.put_varint(static_cast<std::uint64_t>(send.arc));
      put_token_set(stream, TokenSetView(send.tokens));
    }
  }
}

core::Schedule get_schedule(BinStream& stream, const char* field) {
  const std::uint64_t num_steps = stream.get_varint(field);
  stream.require(num_steps <= stream.size(), field,
                 "timestep count exceeds remaining bytes");
  core::Schedule out;
  for (std::uint64_t s = 0; s < num_steps; ++s) {
    const std::uint64_t num_sends = stream.get_varint(field);
    stream.require(num_sends <= stream.size(), field,
                   "send count exceeds remaining bytes");
    core::Timestep step;
    step.sends().reserve(static_cast<std::size_t>(num_sends));
    for (std::uint64_t i = 0; i < num_sends; ++i) {
      const std::uint64_t arc = stream.get_varint(field);
      stream.require(arc <= static_cast<std::uint64_t>(
                                std::numeric_limits<std::int32_t>::max()),
                     field, "arc id exceeds the ArcId range");
      core::ArcSend send;
      send.arc = static_cast<ArcId>(arc);
      send.tokens = get_token_set(stream, field);
      step.sends().push_back(std::move(send));
    }
    out.append(std::move(step));
  }
  return out;
}

}  // namespace ocd::util
