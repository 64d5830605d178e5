#include "ocd/core/encoding.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::core {
namespace {

Schedule sample_schedule() {
  Schedule s;
  Timestep a;
  a.add(0, TokenSet::of(6, {0, 3}));
  a.add(2, TokenSet::of(6, {5}));
  s.append(std::move(a));
  s.append(Timestep{});  // empty interior step survives the round-trip
  Timestep b;
  b.add(1, TokenSet::of(6, {2}));
  s.append(std::move(b));
  return s;
}

bool schedules_equal(const Schedule& a, const Schedule& b) {
  if (a.length() != b.length()) return false;
  for (std::size_t i = 0; i < a.steps().size(); ++i) {
    // Compare as (arc -> tokens) maps; order within a step is free.
    const core::Timestep sa_step = a.step(i);
    const core::SendRange sa = sa_step.sends();
    const core::Timestep sb_step = b.step(i);
    const core::SendRange sb = sb_step.sends();
    if (sa.size() != sb.size()) return false;
    for (const ArcSend& send : sa) {
      bool found = false;
      for (const ArcSend& other : sb) {
        if (other.arc == send.arc && other.tokens == send.tokens) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

TEST(Encoding, RoundTripSmall) {
  const Schedule original = sample_schedule();
  const auto bytes = encode_schedule(original, /*num_arcs=*/4,
                                     /*num_tokens=*/6);
  const Schedule decoded = decode_schedule(bytes);
  EXPECT_TRUE(schedules_equal(original, decoded));
}

TEST(Encoding, RoundTripEmptySchedule) {
  const auto bytes = encode_schedule(Schedule{}, 10, 10);
  const Schedule decoded = decode_schedule(bytes);
  EXPECT_TRUE(decoded.empty());
}

TEST(Encoding, RejectsBadMagic) {
  auto bytes = encode_schedule(sample_schedule(), 4, 6);
  bytes[0] ^= 0xff;
  EXPECT_THROW(decode_schedule(bytes), Error);
}

TEST(Encoding, RejectsTruncatedInput) {
  auto bytes = encode_schedule(sample_schedule(), 4, 6);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_schedule(bytes), Error);
}

TEST(Encoding, RejectsOutOfRangeIds) {
  Schedule s;
  Timestep a;
  a.add(7, 0, 6);
  s.append(std::move(a));
  EXPECT_THROW(encode_schedule(s, /*num_arcs=*/4, 6), ContractViolation);
}

TEST(Encoding, RoundTripRealRun) {
  Rng rng(3);
  Digraph g = topology::random_overlay(20, rng);
  const std::int32_t num_arcs = g.num_arcs();
  Instance inst = single_source_all_receivers(std::move(g), 24, 0);
  auto policy = heuristics::make_policy("global");
  const auto run = sim::run(inst, *policy);
  ASSERT_TRUE(run.success);
  const auto bytes = encode_schedule(run.schedule, num_arcs, 24);
  const Schedule decoded = decode_schedule(bytes);
  EXPECT_TRUE(schedules_equal(run.schedule, decoded));
}

TEST(Encoding, Theorem2SizeBound) {
  // O(nm(log n + log m)) bits for a pruned successful schedule: check
  // the concrete bound body_bits <= (moves)*(ceil(lg arcs)+ceil(lg m))
  // + steps * count_bits against the m(n-1) move bound of Theorem 1.
  Rng rng(5);
  Digraph g = topology::random_overlay(16, rng);
  const std::int32_t num_arcs = g.num_arcs();
  const std::int32_t n = g.num_vertices();
  const std::int32_t m = 8;
  Instance inst = single_source_all_receivers(std::move(g), m, 0);
  auto policy = heuristics::make_policy("global");
  const auto run = sim::run(inst, *policy);
  ASSERT_TRUE(run.success);

  const std::int64_t bits = encoded_body_bits(run.schedule, num_arcs, m);
  // Generous constant: 4 * nm * (log2(n^2) + log2(m) + log2(nm) + 2).
  const double logs = 2 * std::log2(static_cast<double>(n)) +
                      2 * std::log2(static_cast<double>(m)) +
                      std::log2(static_cast<double>(n) * m) + 4;
  EXPECT_LT(static_cast<double>(bits),
            4.0 * static_cast<double>(n) * m * logs);
}

}  // namespace
}  // namespace ocd::core
