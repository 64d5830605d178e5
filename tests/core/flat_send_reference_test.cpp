// Differential test for the flat send layout.  core::Timestep and
// sim::StepPlan store a step's sends as one arc id and one block of
// words per send; the reference below is the send-list layout they
// replace, copied verbatim (one heap TokenSet per send, namespaces and
// type names adjusted).  Both are driven with the same random operations
// over universes that end inside, at and past a word boundary, and must
// agree on send order, arcs and words after every operation.  A
// core::Schedule keeps each recorded send packed down to its nonzero
// words; every step it hands back must decode to the step it was given,
// minus its empty sends.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ocd/core/schedule.hpp"
#include "ocd/graph/digraph.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/util/rng.hpp"

namespace ocd {
namespace reference {

// ---- the send-list layout, verbatim ---------------------------------

/// Tokens sent across one arc during one timestep.
struct ArcSend {
  ArcId arc = -1;
  TokenSet tokens;
};

/// One timestep: a set of simultaneous moves, stored sparsely (only arcs
/// that carry at least one token appear).
class Timestep {
 public:
  Timestep() = default;

  /// Adds `tokens` to the send set of `arc` (unioning with any previous
  /// entry for that arc).
  void add(ArcId arc, const TokenSet& tokens);
  void add(ArcId arc, TokenId token, std::size_t universe);

  [[nodiscard]] const std::vector<ArcSend>& sends() const noexcept {
    return sends_;
  }
  [[nodiscard]] std::vector<ArcSend>& sends() noexcept { return sends_; }

  /// Token-transfers in this timestep.
  [[nodiscard]] std::int64_t moves() const noexcept;

  [[nodiscard]] bool empty() const noexcept;

  /// Removes arcs whose send set became empty.
  void compact();

 private:
  std::vector<ArcSend> sends_;
};

/// A full distribution schedule.
class Schedule {
 public:
  Schedule() = default;

  void append(Timestep step) { steps_.push_back(std::move(step)); }

  [[nodiscard]] const std::vector<Timestep>& steps() const noexcept {
    return steps_;
  }

  /// Number of timesteps ("moves" on the paper's evaluation figures).
  [[nodiscard]] std::int64_t length() const noexcept {
    return static_cast<std::int64_t>(steps_.size());
  }

  /// Total token-transfers ("bandwidth").
  [[nodiscard]] std::int64_t bandwidth() const noexcept;

  /// Drops empty trailing timesteps (can appear after pruning).
  void trim();

 private:
  std::vector<Timestep> steps_;
};

void Timestep::add(ArcId arc, const TokenSet& tokens) {
  OCD_EXPECTS(arc >= 0);
  if (tokens.empty()) return;
  for (ArcSend& send : sends_) {
    if (send.arc == arc) {
      send.tokens |= tokens;
      return;
    }
  }
  sends_.push_back(ArcSend{arc, tokens});
}

void Timestep::add(ArcId arc, TokenId token, std::size_t universe) {
  OCD_EXPECTS(arc >= 0);
  for (ArcSend& send : sends_) {
    if (send.arc == arc) {
      send.tokens.set(token);
      return;
    }
  }
  TokenSet s(universe);
  s.set(token);
  sends_.push_back(ArcSend{arc, std::move(s)});
}

std::int64_t Timestep::moves() const noexcept {
  std::int64_t total = 0;
  for (const ArcSend& send : sends_)
    total += static_cast<std::int64_t>(send.tokens.count());
  return total;
}

bool Timestep::empty() const noexcept {
  return std::all_of(sends_.begin(), sends_.end(),
                     [](const ArcSend& s) { return s.tokens.empty(); });
}

void Timestep::compact() {
  std::erase_if(sends_, [](const ArcSend& s) { return s.tokens.empty(); });
}

std::int64_t Schedule::bandwidth() const noexcept {
  std::int64_t total = 0;
  for (const Timestep& step : steps_) total += step.moves();
  return total;
}

void Schedule::trim() {
  for (Timestep& step : steps_) step.compact();
  while (!steps_.empty() && steps_.back().empty()) steps_.pop_back();
}

/// Branch-and-bound's plan rollback (exact/bnb.cpp).
void remove_arc(Timestep& plan, ArcId arc) {
  auto& sends = plan.sends();
  std::erase_if(sends, [arc](const ArcSend& s) { return s.arc == arc; });
}

class StepPlan {
 public:
  StepPlan() = default;

  void rebind(const Digraph& graph,
              std::span<const std::int32_t> effective_capacity);

  /// Adds tokens to an arc's send set.
  void send(ArcId arc, TokenSetView tokens);
  void send(ArcId arc, TokenId token, std::size_t universe);

  /// Capacity still unclaimed on `arc` within this plan.
  [[nodiscard]] std::int32_t remaining_capacity(ArcId arc) const;

  void mark_idle() noexcept { idle_ = true; }
  [[nodiscard]] bool idle_marked() const noexcept { return idle_; }

  [[nodiscard]] bool empty() const noexcept { return used_ == 0; }

  [[nodiscard]] std::span<const ArcSend> sends() const noexcept {
    return {pool_.data(), used_};
  }
  [[nodiscard]] std::span<ArcSend> sends() noexcept {
    return {pool_.data(), used_};
  }

  /// Copies the planned sends out as an owning Timestep (allocates;
  /// used by schedule recording and adapter-style callers, not by the
  /// simulator hot loop).  Empty send sets are skipped.
  [[nodiscard]] Timestep take() const;

 private:
  ArcSend& acquire_slot(ArcId arc);

  const Digraph* graph_ = nullptr;
  std::span<const std::int32_t> effective_capacity_;
  /// Persistent send pool; the first used_ entries are this step's plan.
  /// Slots beyond used_ hold retired TokenSet storage awaiting reuse.
  std::vector<ArcSend> pool_;
  std::size_t used_ = 0;
  /// arc -> index into pool_, -1 when absent.
  std::vector<std::int32_t> arc_slot_;
  bool idle_ = false;
};

void StepPlan::rebind(const Digraph& graph,
                      std::span<const std::int32_t> effective_capacity) {
  OCD_EXPECTS(effective_capacity.empty() ||
              effective_capacity.size() ==
                  static_cast<std::size_t>(graph.num_arcs()));
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  if (graph_ != &graph || arc_slot_.size() != num_arcs) {
    graph_ = &graph;
    arc_slot_.assign(num_arcs, -1);
  } else {
    // Same graph: undo only the slots the previous step touched.
    for (std::size_t i = 0; i < used_; ++i)
      arc_slot_[static_cast<std::size_t>(pool_[i].arc)] = -1;
  }
  effective_capacity_ = effective_capacity;
  used_ = 0;
  idle_ = false;
}

ArcSend& StepPlan::acquire_slot(ArcId arc) {
  arc_slot_[static_cast<std::size_t>(arc)] = static_cast<std::int32_t>(used_);
  if (used_ == pool_.size()) pool_.emplace_back();
  ArcSend& slot = pool_[used_++];
  slot.arc = arc;
  return slot;
}

void StepPlan::send(ArcId arc, TokenSetView tokens) {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  if (tokens.empty()) return;
  const std::int32_t slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot >= 0) {
    pool_[static_cast<std::size_t>(slot)].tokens |= tokens;
    return;
  }
  acquire_slot(arc).tokens.assign(tokens);  // reuses the slot's storage
}

void StepPlan::send(ArcId arc, TokenId token, std::size_t universe) {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  const std::int32_t slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot >= 0) {
    pool_[static_cast<std::size_t>(slot)].tokens.set(token);
    return;
  }
  ArcSend& fresh = acquire_slot(arc);
  if (fresh.tokens.universe_size() != universe) {
    fresh.tokens = TokenSet(universe);
  } else {
    fresh.tokens.clear();
  }
  fresh.tokens.set(token);
}

std::int32_t StepPlan::remaining_capacity(ArcId arc) const {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  const std::int32_t capacity =
      effective_capacity_.empty()
          ? graph_->arc(arc).capacity
          : effective_capacity_[static_cast<std::size_t>(arc)];
  const std::int32_t slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot < 0) return capacity;
  return capacity -
         static_cast<std::int32_t>(
             pool_[static_cast<std::size_t>(slot)].tokens.count());
}

Timestep StepPlan::take() const {
  Timestep step;
  for (const ArcSend& send : sends()) {
    if (send.tokens.empty()) continue;
    step.sends().push_back(send);
  }
  return step;
}

}  // namespace reference

namespace {

constexpr std::size_t kUniverses[] = {1, 8, 63, 64, 65, 512, 513};

::testing::AssertionResult same_sends(
    core::SendRange actual, std::span<const reference::ArcSend> expected) {
  if (actual.size() != expected.size())
    return ::testing::AssertionFailure()
           << actual.size() << " sends, expected " << expected.size();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const core::ArcSend send = actual[i];
    const TokenSet& tokens = expected[i].tokens;
    if (send.arc != expected[i].arc)
      return ::testing::AssertionFailure()
             << "send " << i << ": arc " << send.arc << ", expected "
             << expected[i].arc;
    if (send.tokens.universe_size() != tokens.universe_size())
      return ::testing::AssertionFailure()
             << "send " << i << ": universe " << send.tokens.universe_size()
             << ", expected " << tokens.universe_size();
    for (std::size_t w = 0; w < tokens.words().size(); ++w)
      if (send.tokens.word(w) != tokens.words()[w])
        return ::testing::AssertionFailure()
               << "send " << i << " word " << w << ": " << send.tokens.word(w)
               << ", expected " << tokens.words()[w];
  }
  return ::testing::AssertionSuccess();
}

TokenSet random_set(std::size_t universe, Rng& rng) {
  static constexpr double kDensities[] = {0.0, 0.05, 0.5, 1.0};
  const double density = kDensities[rng.below(4)];
  TokenSet s(universe);
  for (std::size_t t = 0; t < universe; ++t)
    if (rng.chance(density)) s.set(static_cast<TokenId>(t));
  return s;
}

TokenId random_token(std::size_t universe, Rng& rng) {
  return static_cast<TokenId>(rng.below(universe));
}

/// One of `size` sends (0 when there are none; callers check size).
std::size_t random_slot(std::size_t size, Rng& rng) {
  return size == 0 ? 0 : static_cast<std::size_t>(rng.below(size));
}

/// The sends packed into a schedule, as sim::run records a step, and
/// decoded again.
core::Timestep recorded(const sim::StepPlan& plan) {
  core::Schedule schedule;
  schedule.append(plan.sends());
  return schedule.step(0);
}
core::Timestep recorded(const core::Timestep& step) {
  core::Schedule schedule;
  schedule.append(step);
  return schedule.step(0);
}

Digraph random_graph(Rng& rng) {
  constexpr std::int32_t kVertices = 10;
  Digraph graph(kVertices);
  for (VertexId u = 0; u < kVertices; ++u)
    for (VertexId v = 0; v < kVertices; ++v)
      if (u != v && rng.chance(0.4))
        graph.add_arc(u, v, static_cast<std::int32_t>(rng.uniform_int(1, 70)));
  return graph;
}

// Planning with sends by token and by view, repeated arcs that union,
// remaining_capacity, in-place subtraction, resets and truncation, and
// recording (the plan packed into a schedule, as sim::run records it);
// one plan of each kind is rebound across every universe and step, so
// the flat pool also reuses storage sized for other universes.
TEST(FlatSendReference, StepPlanMatchesSendListPlan) {
  Rng rng(0xf1a7'5e4d);
  const Digraph graph = random_graph(rng);
  const auto num_arcs = static_cast<std::uint64_t>(graph.num_arcs());
  ASSERT_GT(num_arcs, 20u);
  sim::StepPlan flat;
  reference::StepPlan expected;
  std::vector<std::int32_t> capacity(num_arcs);
  std::vector<std::size_t> universes(std::begin(kUniverses),
                                     std::end(kUniverses));
  for (int round = 0; round < 8; ++round) {
    rng.shuffle(universes);
    for (const std::size_t universe : universes) {
      for (int step = 0; step < 4; ++step) {
        const std::string label = "round " + std::to_string(round) +
                                  " universe " + std::to_string(universe) +
                                  " step " + std::to_string(step);
        std::span<const std::int32_t> effective;
        if (rng.chance(0.5)) {
          for (auto& c : capacity)
            c = static_cast<std::int32_t>(rng.uniform_int(0, 70));
          effective = capacity;
        }
        flat.rebind(graph, effective);
        expected.rebind(graph, effective);
        ASSERT_TRUE(same_sends(flat.sends(), expected.sends())) << label;
        ASSERT_FALSE(flat.idle_marked()) << label;
        const auto ops = 1 + rng.below(80);
        for (std::uint64_t op = 0; op < ops; ++op) {
          const auto arc = static_cast<ArcId>(rng.below(num_arcs));
          const std::size_t count = expected.sends().size();
          const std::size_t slot = random_slot(count, rng);
          switch (rng.below(9)) {
            case 0: {  // by token
              const TokenId t = random_token(universe, rng);
              flat.send(arc, t, universe);
              expected.send(arc, t, universe);
              break;
            }
            case 1: {  // by view, possibly empty
              const TokenSet s = random_set(universe, rng);
              flat.send(arc, s);
              expected.send(arc, s);
              break;
            }
            case 2: {  // an arc already planned: the sets union
              if (count == 0) break;
              const ArcId again = expected.sends()[slot].arc;
              const TokenSet s = random_set(universe, rng);
              flat.send(again, s);
              expected.send(again, s);
              if (rng.chance(0.5)) {
                const TokenId t = random_token(universe, rng);
                flat.send(again, t, universe);
                expected.send(again, t, universe);
              }
              break;
            }
            case 3:
              EXPECT_EQ(flat.remaining_capacity(arc),
                        expected.remaining_capacity(arc))
                  << label;
              break;
            case 4: {  // in-place -=, as loss trimming does
              if (count == 0) break;
              const TokenSet mask = random_set(universe, rng);
              flat.sends()[slot].tokens -= mask;
              expected.sends()[slot].tokens -= mask;
              break;
            }
            case 5: {  // reset one token, as the reliable adapter does
              if (count == 0) break;
              const TokenId t = random_token(universe, rng);
              flat.sends()[slot].tokens.reset(t);
              expected.sends()[slot].tokens.reset(t);
              break;
            }
            case 6: {  // truncate, as an over-budget arc is trimmed
              if (count == 0) break;
              const auto k = static_cast<std::size_t>(rng.below(
                  expected.sends()[slot].tokens.count() + 2));
              flat.sends()[slot].tokens.truncate(k);
              expected.sends()[slot]
                  .tokens.truncate(k);
              break;
            }
            case 7: {  // the recorded copy
              const core::Timestep taken = recorded(flat);
              const reference::Timestep want = expected.take();
              EXPECT_TRUE(same_sends(taken.sends(), want.sends())) << label;
              EXPECT_EQ(taken.moves(), want.moves()) << label;
              break;
            }
            default:
              flat.mark_idle();
              expected.mark_idle();
              EXPECT_EQ(flat.empty(), expected.empty()) << label;
              break;
          }
          ASSERT_TRUE(same_sends(flat.sends(), expected.sends()))
              << label << " op " << op;
        }
        const core::Timestep taken = recorded(flat);
        ASSERT_TRUE(same_sends(taken.sends(), expected.take().sends()))
            << label;
      }
    }
  }
}

// Timesteps built with add() (union per arc) and raw appends, trimmed in
// place, rolled back arc by arc as branch-and-bound does, cleared and
// refilled, copied, and packed into a schedule and decoded; then whole
// schedules compared for moves, bandwidth and trim.
TEST(FlatSendReference, TimestepMatchesSendListTimestep) {
  Rng rng(0x71e5'7e95);
  constexpr std::uint64_t kArcs = 12;
  for (const std::size_t universe : kUniverses) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::string label = "universe " + std::to_string(universe) +
                                " trial " + std::to_string(trial);
      core::Schedule flat_schedule;
      reference::Schedule expected_schedule;
      const auto num_steps = rng.below(6);
      for (std::uint64_t s = 0; s < num_steps; ++s) {
        core::Timestep flat;
        reference::Timestep expected;
        const auto ops = rng.below(40);
        for (std::uint64_t op = 0; op < ops; ++op) {
          const auto arc = static_cast<ArcId>(rng.below(kArcs));
          const std::size_t count = expected.sends().size();
          const std::size_t slot = random_slot(count, rng);
          switch (rng.below(10)) {
            case 0: {
              const TokenId t = random_token(universe, rng);
              flat.add(arc, t, universe);
              expected.add(arc, t, universe);
              break;
            }
            case 1: {
              const TokenSet set = random_set(universe, rng);
              flat.add(arc, set);
              expected.add(arc, set);
              break;
            }
            case 2: {  // raw append: the arc may now appear twice
              const TokenSet set = random_set(universe, rng);
              flat.append(arc, set);
              expected.sends().push_back(reference::ArcSend{arc, set});
              break;
            }
            case 3: {
              if (count == 0) break;
              const TokenSet mask = random_set(universe, rng);
              flat.sends()[slot].tokens -= mask;
              expected.sends()[slot].tokens -= mask;
              break;
            }
            case 4: {
              if (count == 0) break;
              const auto k = static_cast<std::size_t>(rng.below(
                  expected.sends()[slot]
                      .tokens.count() +
                  2));
              flat.sends()[slot].tokens.truncate(k);
              expected.sends()[slot]
                  .tokens.truncate(k);
              break;
            }
            case 5:  // B&B rollback of one arc's choice
              flat.erase(arc);
              reference::remove_arc(expected, arc);
              break;
            case 6: {  // a copy owns the same sends
              const core::Timestep copy = flat;
              EXPECT_TRUE(same_sends(copy.sends(), expected.sends()))
                  << label;
              break;
            }
            case 7: {  // the recorded copy keeps the non-empty sends
              reference::Timestep want;
              for (const reference::ArcSend& send : expected.sends())
                if (!send.tokens.empty()) want.sends().push_back(send);
              const core::Timestep copy = recorded(flat);
              EXPECT_TRUE(same_sends(copy.sends(), want.sends())) << label;
              break;
            }
            case 8:  // cleared storage is reused by the next sends
              if (rng.chance(0.3)) {
                flat.clear();
                expected.sends().clear();
              }
              break;
            default:
              break;
          }
          ASSERT_TRUE(same_sends(flat.sends(), expected.sends()))
              << label << " op " << op;
          EXPECT_EQ(flat.moves(), expected.moves()) << label;
          EXPECT_EQ(flat.empty(), expected.empty()) << label;
        }
        flat_schedule.append(flat);
        expected_schedule.append(std::move(expected));
      }
      EXPECT_EQ(flat_schedule.bandwidth(), expected_schedule.bandwidth())
          << label;
      flat_schedule.trim();
      expected_schedule.trim();
      ASSERT_EQ(flat_schedule.length(), expected_schedule.length()) << label;
      for (std::size_t s = 0; s < flat_schedule.steps().size(); ++s) {
        const core::Timestep step = flat_schedule.steps()[s];
        EXPECT_TRUE(same_sends(step.sends(),
                               expected_schedule.steps()[s].sends()))
            << label << " step " << s;
      }
    }
  }
}

/// A set whose words follow `shape`: 0 leaves every word empty, 1 puts
/// at least one token in every word, 2 fills a random subset of words,
/// and 3 draws tokens at random_set's densities.
TokenSet shaped_set(std::size_t universe, std::uint64_t shape, Rng& rng) {
  TokenSet s(universe);
  if (shape == 3) return random_set(universe, rng);
  if (shape == 0) return s;
  for (std::size_t lo = 0; lo < universe; lo += 64) {
    if (shape == 2 && rng.chance(0.5)) continue;
    const std::size_t span = std::min<std::size_t>(64, universe - lo);
    const auto tokens = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < tokens; ++k)
      s.set(static_cast<TokenId>(lo + rng.below(span)));
  }
  return s;
}

// Packing keeps each send's nonzero words behind a word mask (none at
// one word per row).  Steps mixing empty sends, sends with every word
// present and random word masks, over universes that end inside, at and
// past a word and a mask byte, must read back through steps(), step(),
// the packed form and a copy of the schedule as the step they were
// packed from without its empty sends; bandwidth() must equal the sum
// of the steps' moves().
TEST(FlatSendReference, PackedStepsRoundTrip) {
  Rng rng(0x9ac4'ed57);
  for (const std::size_t universe : kUniverses) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::string label = "universe " + std::to_string(universe) +
                                " trial " + std::to_string(trial);
      core::Schedule schedule;
      std::vector<reference::Timestep> expected;
      std::int64_t moves = 0;
      const auto num_steps = rng.below(6);
      for (std::uint64_t s = 0; s < num_steps; ++s) {
        core::Timestep step;
        reference::Timestep want;
        const auto sends = rng.below(12);
        for (std::uint64_t k = 0; k < sends; ++k) {
          const auto arc = static_cast<ArcId>(rng.below(20));
          const TokenSet tokens = shaped_set(universe, rng.below(4), rng);
          step.append(arc, tokens);
          if (!tokens.empty())
            want.sends().push_back(reference::ArcSend{arc, tokens});
        }
        moves += step.moves();
        schedule.append(step);
        expected.push_back(std::move(want));
      }
      ASSERT_EQ(schedule.length(), static_cast<std::int64_t>(num_steps))
          << label;
      EXPECT_EQ(schedule.bandwidth(), moves) << label;
      const core::Schedule copy = schedule;
      EXPECT_EQ(copy.bandwidth(), moves) << label;
      std::size_t s = 0;
      for (const core::Timestep& step : schedule.steps()) {
        const std::string at = label + " step " + std::to_string(s);
        const std::vector<reference::ArcSend>& want = expected[s].sends();
        const core::Timestep by_index = schedule.step(s);
        const core::Timestep copied = copy.steps()[s];
        EXPECT_TRUE(same_sends(step.sends(), want)) << at;
        EXPECT_TRUE(same_sends(by_index.sends(), want)) << at;
        EXPECT_TRUE(same_sends(copied.sends(), want)) << at;
        // The packed form stores exactly the nonzero words, in order.
        const core::PackedStep packed = schedule.packed(s);
        ASSERT_EQ(packed.size(), want.size()) << at;
        std::size_t i = 0;
        for (const core::PackedSend send : packed) {
          EXPECT_EQ(send.arc(), want[i].arc) << at;
          std::vector<std::uint64_t> stored;
          std::size_t tokens = 0;
          send.for_each_word([&](std::size_t w, std::uint64_t word) {
            EXPECT_EQ(word, want[i].tokens.words()[w]) << at;
            stored.push_back(word);
            tokens += static_cast<std::size_t>(std::popcount(word));
          });
          std::vector<std::uint64_t> nonzero;
          for (const std::uint64_t word : want[i].tokens.words())
            if (word != 0) nonzero.push_back(word);
          EXPECT_EQ(stored, nonzero) << at << " send " << i;
          EXPECT_EQ(send.present(), nonzero.size()) << at;
          EXPECT_EQ(tokens, want[i].tokens.count()) << at;
          ++i;
        }
        ++s;
      }
      EXPECT_EQ(s, num_steps) << label;
    }
  }
}

}  // namespace
}  // namespace ocd
