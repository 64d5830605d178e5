// BinStream: differential round-trip fuzz over every core type plus
// hostile-input error paths.  Decoders must reject truncated and
// corrupted streams with an ocd::Error naming the offending field —
// never crash, never silently misparse.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/topology/random_graph.hpp"
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
  stream.put_u32(0xDEADBEEFu);
  stream.put_u64(0x0123456789ABCDEFull);
  stream.put_i64(-42);
  stream.put_f64(2.5);
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
  stream.put_string("hello");
  stream.put_string("");

  BinStream reader(stream.bytes());
  EXPECT_EQ(reader.get_u8("a"), 0xAB);
  EXPECT_EQ(reader.get_u32("b"), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64("c"), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.get_i64("d"), -42);
  EXPECT_EQ(reader.get_f64("e"), 2.5);
  EXPECT_TRUE(reader.get_bool("f"));
  EXPECT_FALSE(reader.get_bool("g"));
  EXPECT_EQ(reader.get_varint("h"), 0u);
  EXPECT_EQ(reader.get_varint("i"), 127u);
  EXPECT_EQ(reader.get_varint("j"), 128u);
  EXPECT_EQ(reader.get_varint("k"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(reader.get_varint_signed("l"), 0);
  EXPECT_EQ(reader.get_varint_signed("m"), -1);
  EXPECT_EQ(reader.get_varint_signed("n"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(reader.get_varint_signed("o"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(reader.get_string("p"), "hello");
  EXPECT_EQ(reader.get_string("q"), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(BinStream, TruncatedReadNamesTheField) {
  BinStream stream;
  stream.put_u32(7);
  BinStream reader(stream.bytes());
  reader.get_u32("first");
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

TEST(BinStream, TokenMatrixRoundTrip) {
  Rng rng(11);
  for (std::size_t universe : kUniverses) {
    TokenMatrix matrix(5, universe);
    for (std::size_t r = 0; r < 5; ++r)
      matrix.row(r).assign(random_set(universe, 0.3, rng));
    BinStream stream;
    put_token_matrix(stream, matrix);
    BinStream reader(stream.bytes());
    const TokenMatrix decoded = get_token_matrix(reader, "matrix");
    EXPECT_EQ(decoded, matrix) << universe;
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(BinStream, DigraphAndInstanceRoundTrip) {
  Rng rng(3);
  Digraph g = topology::random_overlay(20, rng);
  BinStream gstream;
  put_digraph(gstream, g);
  BinStream greader(gstream.bytes());
  const Digraph gd = get_digraph(greader, "graph");
  ASSERT_EQ(gd.num_vertices(), g.num_vertices());
  ASSERT_EQ(gd.num_arcs(), g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(gd.arc(a).from, g.arc(a).from);
    EXPECT_EQ(gd.arc(a).to, g.arc(a).to);
    EXPECT_EQ(gd.arc(a).capacity, g.arc(a).capacity);
  }

  Rng rng2(4);
  Digraph g2 = topology::random_overlay(15, rng2);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(g2), 9, 0);
  BinStream istream;
  put_instance(istream, inst);
  BinStream ireader(istream.bytes());
  const core::Instance decoded = get_instance(ireader, "instance");
  ASSERT_EQ(decoded.num_vertices(), inst.num_vertices());
  ASSERT_EQ(decoded.num_tokens(), inst.num_tokens());
  ASSERT_EQ(decoded.graph().num_arcs(), inst.graph().num_arcs());
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    EXPECT_EQ(decoded.have(v), inst.have(v));
    EXPECT_EQ(decoded.want(v), inst.want(v));
  }
  decoded.validate();
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

// Hostile-input sweep: every proper prefix of an encoded instance must
// throw (truncation), and single-byte corruptions must either throw or
// decode into something self-consistent — never crash.
TEST(BinStream, TruncationAndCorruptionSweep) {
  Rng rng(6);
  Digraph g = topology::random_overlay(10, rng);
  const core::Instance inst =
      core::single_source_all_receivers(std::move(g), 5, 0);
  BinStream stream;
  put_instance(stream, inst);
  const std::string& bytes = stream.bytes();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinStream reader(bytes.substr(0, cut));
    EXPECT_THROW(get_instance(reader, "instance"), Error) << "cut " << cut;
  }

  Rng corrupt_rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const auto pos = static_cast<std::size_t>(corrupt_rng.below(mutated.size()));
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 + corrupt_rng.below(255)));
    BinStream reader(mutated);
    try {
      const core::Instance decoded = get_instance(reader, "instance");
      decoded.validate();
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

// ---- checkpoint record ---------------------------------------------
// The shard checkpoint is the highest-stakes record in the codec: a
// silently misparsed one resurrects a worker with wrong state, which
// recovery then replicates into the final schedule.  Same discipline as
// the instance sweep: truncation at every byte (hence at every field
// boundary) throws a field-named error, corruption never crashes, and a
// checkpoint presented to the wrong shard is rejected by name.

shard::Checkpoint sample_checkpoint(std::int32_t shard_id) {
  shard::Checkpoint c;
  c.shard = shard_id;
  c.num_shards = 4;
  c.step = 6;
  c.unsatisfied = 9;
  c.local_unsatisfied = 3;
  c.no_progress = 1;
  Rng rng(41);
  c.possession = TokenMatrix(7, 65);
  for (std::size_t row = 0; row < 7; ++row)
    c.possession.assign_row(row, random_set(65, 0.4, rng));
  c.satisfied = {1, 0, 1, 0, 0};
  c.completion = {2, -1, 5, -1, -1};
  c.sent_by = {{0, 4}, {3, 1}, {6, 11}};
  c.holders.assign(65, 2);
  c.need.assign(65, 3);
  {
    BinStream policy;
    policy.put_u64(0xfeedfacecafebeefull);
    c.policy_state = std::move(policy).take();
  }
  if (shard_id == 0) {
    c.moves_per_step = {4, 3, 5, 2, 1, 6};
    c.lost_per_step = {0, 1, 0, 0, 2, 0};
    c.useful_total = 17;
    c.lost_total = 3;
  }
  c.has_schedule = true;
  core::Timestep step;
  step.add(1, TokenSet::of(65, {2, 64}));
  c.schedule.append(std::move(step));
  return c;
}

TEST(BinStream, CheckpointRoundTrip) {
  for (std::int32_t shard_id : {0, 2}) {
    const shard::Checkpoint original = sample_checkpoint(shard_id);
    BinStream stream;
    shard::put_checkpoint(stream, original);
    BinStream reader(stream.bytes());
    const shard::Checkpoint decoded =
        shard::get_checkpoint(reader, "checkpoint", shard_id);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(decoded.shard, original.shard);
    EXPECT_EQ(decoded.num_shards, original.num_shards);
    EXPECT_EQ(decoded.step, original.step);
    EXPECT_EQ(decoded.unsatisfied, original.unsatisfied);
    EXPECT_EQ(decoded.local_unsatisfied, original.local_unsatisfied);
    EXPECT_EQ(decoded.no_progress, original.no_progress);
    ASSERT_EQ(decoded.possession.rows(), original.possession.rows());
    for (std::size_t row = 0; row < original.possession.rows(); ++row)
      EXPECT_EQ(TokenSet(decoded.possession.row(row)),
                TokenSet(original.possession.row(row)));
    EXPECT_EQ(decoded.satisfied, original.satisfied);
    EXPECT_EQ(decoded.completion, original.completion);
    EXPECT_EQ(decoded.sent_by, original.sent_by);
    EXPECT_EQ(decoded.holders, original.holders);
    EXPECT_EQ(decoded.need, original.need);
    EXPECT_EQ(decoded.policy_state, original.policy_state);
    EXPECT_EQ(decoded.moves_per_step, original.moves_per_step);
    EXPECT_EQ(decoded.lost_per_step, original.lost_per_step);
    EXPECT_EQ(decoded.useful_total, original.useful_total);
    EXPECT_EQ(decoded.lost_total, original.lost_total);
    ASSERT_EQ(decoded.has_schedule, original.has_schedule);
    EXPECT_EQ(decoded.schedule.length(), original.schedule.length());
  }
}

TEST(BinStream, CheckpointTruncationAtEveryFieldBoundary) {
  BinStream stream;
  shard::put_checkpoint(stream, sample_checkpoint(0));
  const std::string& bytes = stream.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinStream reader(bytes.substr(0, cut));
    EXPECT_THROW(shard::get_checkpoint(reader, "checkpoint"), Error)
        << "cut " << cut;
  }
}

TEST(BinStream, CheckpointCorruptionNeverCrashes) {
  BinStream stream;
  shard::put_checkpoint(stream, sample_checkpoint(2));
  const std::string& bytes = stream.bytes();
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1 + rng.below(255)));
    BinStream reader(mutated);
    try {
      const shard::Checkpoint decoded =
          shard::get_checkpoint(reader, "checkpoint", 2);
      // Surviving decodes must still satisfy the record's invariants.
      EXPECT_EQ(decoded.shard, 2);
      EXPECT_LE(decoded.local_unsatisfied, decoded.unsatisfied);
      EXPECT_EQ(decoded.completion.size(), decoded.satisfied.size());
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST(BinStream, CheckpointFromTheWrongShardIsRejected) {
  BinStream stream;
  shard::put_checkpoint(stream, sample_checkpoint(1));
  BinStream reader(stream.bytes());
  try {
    shard::get_checkpoint(reader, "checkpoint", /*expect_shard=*/3);
    FAIL() << "expected wrong-shard rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint from the wrong shard"),
              std::string::npos)
        << e.what();
  }
  // Without an expectation the same record decodes fine.
  BinStream again(stream.bytes());
  EXPECT_EQ(shard::get_checkpoint(again, "checkpoint").shard, 1);
}

TEST(BinStream, CheckpointCorruptVarintAndBadMagicAreRejected) {
  BinStream stream;
  shard::put_checkpoint(stream, sample_checkpoint(0));
  std::string bytes = stream.bytes();
  {
    std::string bad_magic = bytes;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
    BinStream reader(bad_magic);
    EXPECT_THROW(shard::get_checkpoint(reader, "checkpoint"), Error);
  }
  {
    // An unterminated varint where the shard id lives: continuation
    // bits forever.
    std::string runaway = bytes.substr(0, 4);
    runaway.append(12, static_cast<char>(0x80));
    BinStream reader(runaway);
    EXPECT_THROW(shard::get_checkpoint(reader, "checkpoint"), Error);
  }
}

}  // namespace
}  // namespace ocd::util
