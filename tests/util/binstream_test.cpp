// BinStream: differential round-trip fuzz over the primitives, token
// sets and schedules, plus hostile-input error paths.  Decoders must
// reject truncated and corrupted streams with an ocd::Error naming the
// offending field — never crash, never silently misparse.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ocd/util/binstream.hpp"
#include "ocd/util/rng.hpp"

namespace ocd::util {
namespace {

// Word-boundary universes, mirroring token_matrix_test.cpp: the tail-
// mask and word-count edge cases live at 63/64/65 and 127/128/129.
constexpr std::size_t kUniverses[] = {63, 64, 65, 127, 128, 129};

TokenSet random_set(std::size_t universe, double density, Rng& rng) {
  TokenSet set(universe);
  for (std::size_t t = 0; t < universe; ++t)
    if (rng.chance(density)) set.set(static_cast<TokenId>(t));
  return set;
}

TEST(BinStream, PrimitiveRoundTrip) {
  BinStream stream;
  stream.put_u8(0xAB);
  stream.put_u64(0x0123456789ABCDEFull);
  stream.put_bool(true);
  stream.put_bool(false);
  stream.put_varint(0);
  stream.put_varint(127);
  stream.put_varint(128);
  stream.put_varint(std::numeric_limits<std::uint64_t>::max());
  stream.put_varint_signed(0);
  stream.put_varint_signed(-1);
  stream.put_varint_signed(std::numeric_limits<std::int64_t>::min());
  stream.put_varint_signed(std::numeric_limits<std::int64_t>::max());

  BinStream reader(stream.bytes());
  EXPECT_EQ(reader.get_u8("a"), 0xAB);
  EXPECT_EQ(reader.get_u64("b"), 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.get_bool("c"));
  EXPECT_FALSE(reader.get_bool("d"));
  EXPECT_EQ(reader.get_varint("e"), 0u);
  EXPECT_EQ(reader.get_varint("f"), 127u);
  EXPECT_EQ(reader.get_varint("g"), 128u);
  EXPECT_EQ(reader.get_varint("h"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(reader.get_varint_signed("i"), 0);
  EXPECT_EQ(reader.get_varint_signed("j"), -1);
  EXPECT_EQ(reader.get_varint_signed("k"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(reader.get_varint_signed("l"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(reader.exhausted());
}

TEST(BinStream, TruncatedReadNamesTheField) {
  BinStream stream;
  stream.put_u8(7);
  BinStream reader(stream.bytes());
  reader.get_u8("first");
  try {
    reader.get_u64("second.field");
    FAIL() << "expected ocd::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("second.field"), std::string::npos) << what;
  }
}

TEST(BinStream, CorruptBooleanAndVarintAreRejected) {
  {
    BinStream stream;
    stream.put_u8(2);
    BinStream reader(stream.bytes());
    EXPECT_THROW(reader.get_bool("flag"), Error);
  }
  {
    // 10 continuation bytes: varint longer than the 64-bit limit.
    BinStream reader(std::string(11, '\xFF'));
    EXPECT_THROW(reader.get_varint("count"), Error);
  }
  {
    // Overflow: 9 continuation bytes then a high final byte.
    std::string bytes(9, '\xFF');
    bytes.push_back('\x7F');
    BinStream reader(bytes);
    EXPECT_THROW(reader.get_varint("count"), Error);
  }
}

TEST(BinStream, TokenSetRoundTripFuzz) {
  Rng rng(2024);
  for (std::size_t universe : kUniverses) {
    for (double density : {0.0, 0.02, 0.3, 0.8, 1.0}) {
      for (int trial = 0; trial < 8; ++trial) {
        const TokenSet original = random_set(universe, density, rng);
        BinStream stream;
        put_token_set(stream, original);
        BinStream reader(stream.bytes());
        const TokenSet decoded = get_token_set(reader, "set");
        EXPECT_EQ(decoded, original)
            << "universe " << universe << " density " << density;
        EXPECT_TRUE(reader.exhausted());
      }
    }
  }
}

TEST(BinStream, TokenSetIntoReusesFixedUniverseStorage) {
  Rng rng(7);
  for (std::size_t universe : kUniverses) {
    const TokenSet original = random_set(universe, 0.25, rng);
    BinStream stream;
    put_token_set(stream, original);
    TokenSet out(universe);
    out.set(0);  // stale contents must be cleared
    BinStream reader(stream.bytes());
    get_token_set_into(reader, "set", out);
    EXPECT_EQ(out, original) << universe;
  }
}

TEST(BinStream, TokenSetUniverseMismatchIsRejected) {
  BinStream stream;
  put_token_set(stream, TokenSet::of(64, {1, 5}));
  TokenSet out(65);
  BinStream reader(stream.bytes());
  try {
    get_token_set_into(reader, "delivery.tokens", out);
    FAIL() << "expected ocd::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("delivery.tokens"), std::string::npos) << what;
    EXPECT_NE(what.find("universe"), std::string::npos) << what;
  }
}

TEST(BinStream, TokenSetHostileEncodingsAreRejected) {
  {
    // Raw encoding with a tail bit set beyond the universe.
    BinStream stream;
    stream.put_varint(63);  // universe
    stream.put_u8(0);       // raw tag
    stream.put_u64(~0ULL);  // bit 63 is outside a 63-token universe
    BinStream reader(stream.bytes());
    EXPECT_THROW(get_token_set(reader, "set"), Error);
  }
  {
    // Sparse encoding with non-increasing ids (zero delta after first).
    BinStream stream;
    stream.put_varint(100);  // universe
    stream.put_u8(1);        // sparse tag
    stream.put_varint(2);    // count
    stream.put_varint(5);    // first id
    stream.put_varint(0);    // delta-1 encoding never yields 0 gap... encode
    BinStream reader(stream.bytes());
    // Whatever the delta convention, an out-of-range or non-increasing
    // stream must throw rather than produce an invalid set.
    try {
      const TokenSet decoded = get_token_set(reader, "set");
      EXPECT_LE(decoded.count(), 2u);
    } catch (const Error&) {
    }
  }
  {
    // Sparse count exceeding the universe.
    BinStream stream;
    stream.put_varint(8);
    stream.put_u8(1);
    stream.put_varint(9);
    BinStream reader(stream.bytes());
    EXPECT_THROW(get_token_set(reader, "set"), Error);
  }
  {
    // Unknown encoding tag.
    BinStream stream;
    stream.put_varint(8);
    stream.put_u8(7);
    BinStream reader(stream.bytes());
    EXPECT_THROW(get_token_set(reader, "set"), Error);
  }
  {
    // Universe beyond the TokenId range.
    BinStream stream;
    stream.put_varint(std::numeric_limits<std::uint64_t>::max());
    BinStream reader(stream.bytes());
    EXPECT_THROW(get_token_set(reader, "set"), Error);
  }
}

TEST(BinStream, TokenSetRawSparseThresholdAtWordBoundaries) {
  // Pin the density-tag choice exactly at the word-boundary universes
  // the ghost-delta wire format leans on.  Sparse costs
  // varint_len(count) + count id bytes (one byte per id below 128);
  // raw costs 8 bytes per word.  Ties must go to raw.  A drift in this
  // threshold silently changes every shard frame on the wire, so the
  // byte counts are asserted literally, not just round-tripped.
  const auto encoded = [](const TokenSet& set) {
    BinStream stream;
    put_token_set(stream, set);
    return std::string(stream.bytes());
  };
  const auto expect_roundtrip = [&](const TokenSet& set) {
    BinStream reader(encoded(set));
    EXPECT_EQ(get_token_set(reader, "set"), set);
    EXPECT_TRUE(reader.exhausted());
  };
  for (const std::size_t universe : {63u, 64u}) {
    // One word: raw payload is 8 bytes, so sparse wins up to 6 tokens
    // (6 ids + 1 count byte = 7 < 8) and loses the tie at 7.
    const TokenSet empty(universe);
    EXPECT_EQ(encoded(empty).size(), 3u) << universe;  // uni+tag+count
    EXPECT_EQ(encoded(empty)[1], 1) << universe;       // sparse tag
    expect_roundtrip(empty);

    const TokenSet single = TokenSet::of(universe, {62});
    EXPECT_EQ(encoded(single).size(), 4u) << universe;
    EXPECT_EQ(encoded(single)[1], 1) << universe;
    expect_roundtrip(single);

    TokenSet six(universe);
    for (TokenId t = 0; t < 6; ++t) six.set(t);
    EXPECT_EQ(encoded(six).size(), 9u) << universe;  // still sparse
    EXPECT_EQ(encoded(six)[1], 1) << universe;
    expect_roundtrip(six);

    TokenSet seven(universe);
    for (TokenId t = 0; t < 7; ++t) seven.set(t);
    EXPECT_EQ(encoded(seven).size(), 10u) << universe;  // raw: uni+tag+8
    EXPECT_EQ(encoded(seven)[1], 0) << universe;
    expect_roundtrip(seven);
  }
  {
    // Two words (universe 65): raw payload doubles to 16 bytes, so the
    // flip moves to 15 tokens — the threshold tracks words, not bits.
    const TokenSet empty(65);
    EXPECT_EQ(encoded(empty).size(), 3u);
    EXPECT_EQ(encoded(empty)[1], 1);
    expect_roundtrip(empty);

    const TokenSet single = TokenSet::of(65, {64});
    EXPECT_EQ(encoded(single).size(), 4u);
    EXPECT_EQ(encoded(single)[1], 1);
    expect_roundtrip(single);

    TokenSet fourteen(65);
    for (TokenId t = 0; t < 14; ++t) fourteen.set(t);
    EXPECT_EQ(encoded(fourteen).size(), 17u);  // sparse: uni+tag+count+14
    EXPECT_EQ(encoded(fourteen)[1], 1);
    expect_roundtrip(fourteen);

    TokenSet fifteen(65);
    for (TokenId t = 0; t < 15; ++t) fifteen.set(t);
    EXPECT_EQ(encoded(fifteen).size(), 18u);  // raw: uni+tag+16
    EXPECT_EQ(encoded(fifteen)[1], 0);
    expect_roundtrip(fifteen);

    // The full two-word set decodes through the tail-mask check.
    expect_roundtrip(TokenSet::full(65));
  }
}

TEST(BinStream, ScheduleRoundTrip) {
  core::Schedule schedule;
  core::Timestep step0;
  step0.add(2, TokenSet::of(10, {1, 3}));
  step0.add(0, TokenSet::of(10, {7}));
  schedule.append(std::move(step0));
  schedule.append(core::Timestep{});  // empty timesteps survive
  core::Timestep step2;
  step2.add(5, TokenSet::of(10, {0, 9}));
  schedule.append(std::move(step2));

  BinStream stream;
  put_schedule(stream, schedule);
  BinStream reader(stream.bytes());
  const core::Schedule decoded = get_schedule(reader, "schedule");
  ASSERT_EQ(decoded.length(), schedule.length());
  EXPECT_EQ(decoded.bandwidth(), schedule.bandwidth());
  for (std::size_t s = 0; s < decoded.steps().size(); ++s) {
    const auto& da = decoded.steps()[s].sends();
    const auto& sa = schedule.steps()[s].sends();
    ASSERT_EQ(da.size(), sa.size()) << s;
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].arc, sa[i].arc);
      EXPECT_EQ(da[i].tokens, sa[i].tokens);
    }
  }
}

// Hostile-input sweep over the surviving frame codec: every proper
// prefix of an encoded schedule must throw (truncation), and single-byte
// corruptions must either throw or decode into a schedule that survives
// its own round trip — never crash.  The 65-token universe spans two
// words, and the sends mix sparse and raw token-set encodings.
TEST(BinStream, TruncationAndCorruptionSweep) {
  constexpr std::size_t kUniverse = 65;
  Rng rng(6);
  core::Schedule schedule;
  for (int s = 0; s < 4; ++s) {
    core::Timestep step;
    for (ArcId arc = 0; arc < 3; ++arc)
      step.add(arc + 3 * s,
               random_set(kUniverse, arc == 0 ? 0.05 : 0.6, rng));
    schedule.append(std::move(step));
  }
  // Both encodings occur (tag byte follows the one-byte universe).
  const auto tag_of = [](const TokenSet& set) {
    BinStream one;
    put_token_set(one, set);
    return one.bytes()[1];
  };
  bool sparse = false, raw = false;
  for (const core::Timestep& step : schedule.steps())
    for (const core::ArcSend& send : step.sends())
      (tag_of(send.tokens) == 1 ? sparse : raw) = true;
  ASSERT_TRUE(sparse && raw);

  BinStream stream;
  put_schedule(stream, schedule);
  const std::string& bytes = stream.bytes();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinStream reader(bytes.substr(0, cut));
    EXPECT_THROW(get_schedule(reader, "schedule"), Error) << "cut " << cut;
  }

  Rng corrupt_rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const auto pos = static_cast<std::size_t>(corrupt_rng.below(mutated.size()));
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 + corrupt_rng.below(255)));
    BinStream reader(mutated);
    try {
      const core::Schedule decoded = get_schedule(reader, "schedule");
      BinStream again;
      put_schedule(again, decoded);
      BinStream again_reader(again.bytes());
      const core::Schedule redecoded = get_schedule(again_reader, "schedule");
      ASSERT_EQ(redecoded.steps().size(), decoded.steps().size());
      for (std::size_t s = 0; s < decoded.steps().size(); ++s) {
        const auto& want = decoded.steps()[s].sends();
        const auto& got = redecoded.steps()[s].sends();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].arc, want[i].arc);
          EXPECT_EQ(got[i].tokens, want[i].tokens);
        }
      }
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

}  // namespace
}  // namespace ocd::util
