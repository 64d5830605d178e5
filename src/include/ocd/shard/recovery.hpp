// Crash tolerance for the vertex-sharded runtime.
//
// Three pieces:
//
//   * Checkpoint — the complete restartable state of one ShardWorker
//     (possession rows incl. ghosts, replicated decision state, policy
//     RNG/cursor state, shard-0 series, schedule fragment),
//     BinStream-encoded with the codec's usual hostile-input
//     discipline: every field is named, counts are bounds-checked, a
//     checkpoint presented to the wrong shard is rejected.
//
//   * CrashPlan — scripted crash injection, the failure-side mirror of
//     faults::FaultPlan: exact (shard, step, phase) kill points plus a
//     seeded random model whose decisions derive per (seed, shard,
//     step, phase) so they are identical across respawns.  Scripted
//     points and the random model fire only on a worker's first
//     incarnation (so a respawned worker makes progress);
//     crash_always() points fire on every incarnation (for
//     respawn-exhaustion tests).
//
//   * RecoveryOptions — the knobs run_sharded threads into the driver:
//     checkpoint cadence (0 = off), the per-shard respawn budget, and
//     an optional CrashPlan.
//
// The recovery invariant (pinned by tests/shard/recovery_test.cpp): a
// run with any schedule of injected crashes produces a schedule and
// RunStats bit-identical to the crash-free run, except the four
// recovery counters.  See docs/MODEL.md "Crash model & recovery".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ocd/core/schedule.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::util {
class BinStream;
}

namespace ocd::shard {

/// The barrier phases a worker can be killed in front of.  A crash
/// "at" a phase destroys the worker before the phase executes.  kWave
/// (the coordinated planner's election round) fires only on runs that
/// actually execute a wave round — "bandwidth" on > 1 shard; the
/// numeric values of the original three phases are pinned so seeded
/// random crash schedules stay stable.
enum class CrashPhase : std::uint8_t {
  kPlan = 0,
  kApply = 1,
  kCommit = 2,
  kWave = 3,
};

[[nodiscard]] const char* crash_phase_name(CrashPhase phase) noexcept;

/// Scripted crash injection.  Build once, pass by pointer through
/// RecoveryOptions; the driver only queries it, so a const CrashPlan is
/// safe to share.
class CrashPlan {
 public:
  /// Kill `shard` immediately before `phase` of `step` — first
  /// incarnation only, so the respawned worker completes the phase.
  CrashPlan& crash(std::int32_t shard, std::int64_t step, CrashPhase phase);
  /// Kill on every incarnation — the point never clears, so the shard
  /// exhausts its respawn budget (graceful-degradation tests).
  CrashPlan& crash_always(std::int32_t shard, std::int64_t step,
                          CrashPhase phase);
  /// Seeded random crashes: each (shard, step, phase) of a first
  /// incarnation crashes with probability `rate`, derived per
  /// coordinate (never drawn from a sequential stream), so the crash
  /// schedule is reproducible.  Throws ocd::Error unless `rate` is a
  /// number in [0, 1].
  CrashPlan& random_crashes(double rate, std::uint64_t seed);

  /// Whether a worker about to execute (shard, step, phase) in its
  /// `incarnation`-th life (0 = original) crashes there.
  [[nodiscard]] bool crashes(std::int32_t shard, std::int64_t step,
                             CrashPhase phase,
                             std::int32_t incarnation) const;

  [[nodiscard]] bool empty() const noexcept {
    return points_.empty() && rate_ <= 0.0;
  }

 private:
  /// Kill point -> whether it fires on every incarnation.
  std::map<std::tuple<std::int32_t, std::int64_t, std::uint8_t>, bool>
      points_;
  double rate_ = 0.0;
  std::uint64_t seed_ = 0;
};

/// Recovery knobs, embedded in ShardOptions.
struct RecoveryOptions {
  /// Checkpoint every N committed steps; 0 = off, negative throws.
  /// Checkpointing or a crash_plan arms recovery: the driver logs the
  /// committed message rows so a crashed worker can be rebuilt.
  /// Without a checkpoint, a rebuild replays from the init round.
  std::int64_t checkpoint_interval = 0;
  /// Respawn budget per shard; exceeding it throws an ocd::Error naming
  /// the shard, step, and phase.  0 = never respawn.
  std::int32_t max_respawns = 3;
  /// Optional scripted crash injection; must outlive the run.
  const CrashPlan* crash_plan = nullptr;
};

/// One worker's complete restartable state.  The codec (put_checkpoint
/// / get_checkpoint) is a plain record over the BinStream primitives so
/// the binstream hostile-encoding suite can hammer it directly;
/// ShardWorker::restore_checkpoint adds the shape checks that need the
/// live worker (row counts, universe, schedule presence).
struct Checkpoint {
  std::int32_t shard = 0;
  std::int32_t num_shards = 0;
  /// Committed steps at capture == the step the next plan would run.
  std::int64_t step = 0;
  std::int64_t unsatisfied = 0;
  std::int64_t local_unsatisfied = 0;
  std::int64_t no_progress = 0;
  /// Barrier traffic counters (sim/stats.hpp): checkpointed so a
  /// recovered run reports the crash-free totals — replay re-counts
  /// only the steps after the restore point.
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t summary_entries = 0;
  /// Owned + ghost possession rows, in the worker's row order.
  util::TokenMatrix possession;
  std::vector<char> satisfied;            ///< per owned slot
  std::vector<std::int64_t> completion;   ///< per owned slot, -1 pending
  /// Sparse upload counters: (vertex, count), vertex strictly
  /// increasing, count > 0.
  std::vector<std::pair<std::int64_t, std::int64_t>> sent_by;
  /// Replicated aggregate vectors; empty when the policy's knowledge
  /// class does not maintain them.
  std::vector<std::int32_t> holders;
  std::vector<std::int32_t> need;
  /// Opaque Policy::save_state payload.
  std::string policy_state;
  /// Shard-0-only global series (empty elsewhere).
  std::vector<std::int64_t> moves_per_step;
  std::vector<std::int64_t> lost_per_step;
  std::int64_t useful_total = 0;
  std::int64_t lost_total = 0;
  bool has_schedule = false;
  core::Schedule schedule;  ///< this shard's fragment (when recording)
};

void put_checkpoint(util::BinStream& out, const Checkpoint& checkpoint);

/// Decodes and validates a checkpoint record.  `expect_shard` >= 0
/// rejects a checkpoint captured by a different shard ("checkpoint from
/// the wrong shard") — the guard against the driver handing a
/// respawned worker a peer's state.
Checkpoint get_checkpoint(util::BinStream& in, const char* field,
                          std::int32_t expect_shard = -1);

/// Recovery counters the driver reports back to run_sharded; folded
/// into RunStats verbatim.
struct RecoveryStats {
  std::int64_t worker_crashes = 0;
  std::int64_t recoveries = 0;
  std::int64_t replayed_steps = 0;
  std::int64_t checkpoint_bytes = 0;
};

}  // namespace ocd::shard
