#include "ocd/shard/transport.hpp"

#include <map>
#include <memory>
#include <string>

#include "ocd/faults/model.hpp"
#include "ocd/util/parallel.hpp"

namespace ocd::shard {

namespace {

/// Everything the driver must remember about one executed step to
/// rebuild a dead worker: the message rows each shard received in the
/// plan and apply rounds, plus (with faults) each shard's recorded loss
/// trace.  Entries live from execution until the next checkpoint trims
/// them, so the log is bounded by the checkpoint interval.
struct StepMailLog {
  std::vector<std::vector<std::string>> wave_in;   ///< [shard][peer], coordinated
  std::vector<std::vector<std::string>> plan_in;   ///< [shard][peer]
  std::vector<std::vector<std::string>> apply_in;  ///< [shard][peer]
  std::vector<std::string> losses;                 ///< [shard]
};

}  // namespace

TransportResult run_in_process(const RunContext& ctx) {
  const std::int32_t num_shards = ctx.partition->num_shards;
  const auto count = static_cast<std::size_t>(num_shards);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  workers.reserve(count);
  for (std::int32_t s = 0; s < num_shards; ++s)
    workers.push_back(std::make_unique<ShardWorker>(ctx, s));

  // Two mailbox grids per round trip: workers write their outbox row in
  // parallel, the driver transposes at the barrier, then workers read
  // their inbox — a phase never reads a grid a peer is still writing.
  std::vector<std::vector<std::string>> outbox(count), inbox(count);
  for (auto& row : inbox) row.assign(count, {});
  const auto transpose = [&] {
    for (std::size_t src = 0; src < count; ++src)
      for (std::size_t dst = 0; dst < count; ++dst)
        if (src != dst) inbox[dst][src] = std::move(outbox[src][dst]);
  };
  const auto each = [&](auto&& fn) {
    util::parallel_for(count, 1, [&](util::ChunkRange chunk) {
      for (std::size_t s = chunk.begin; s < chunk.end; ++s) fn(s);
    });
  };

  // Recovery bookkeeping — all of it on the driver thread, strictly
  // between the parallel phases, so the suite is TSan-clean.
  TransportResult result;
  RecoveryStats& rec = result.recovery;
  const bool recovery = ctx.recovery_armed;
  const bool faulted = ctx.sim.faults != nullptr;
  const bool coordinated = ctx.coordinated && count > 1;
  std::vector<std::int32_t> incarnation(count, 0);
  std::vector<std::vector<std::string>> init_in;
  std::map<std::int64_t, StepMailLog> log;
  std::vector<std::string> checkpoints(count);
  std::int64_t ckpt_step = -1;

  // Rebuild shard `s` as if it died immediately before `phase` of the
  // in-flight step: fresh worker, restore the latest checkpoint (or
  // re-absorb the logged init round), replay every committed step from
  // the delivery log, then silently re-run the in-flight step's earlier
  // phases — their outputs were already delivered, so they are
  // discarded, and recorded loss traces stand in for the shared fault
  // model, whose chain is already at the live step.
  const auto recover = [&](std::size_t s, CrashPhase phase,
                           std::int64_t step) {
    if (incarnation[s] >= ctx.max_respawns)
      throw Error("shard recovery: shard " + std::to_string(s) +
                  " exhausted max_respawns (" +
                  std::to_string(ctx.max_respawns) + ") at step " +
                  std::to_string(step) + ", phase " +
                  crash_phase_name(phase));
    ++incarnation[s];
    workers[s] = std::make_unique<ShardWorker>(ctx, static_cast<std::int32_t>(s));
    std::vector<std::string> discard;
    std::int64_t from = 0;
    if (ckpt_step >= 0) {
      workers[s]->restore_checkpoint(checkpoints[s]);
      from = ckpt_step;
    } else {
      // Silent init round: it re-counts the bytes the dead worker sent.
      workers[s]->phase_init(discard);
      workers[s]->absorb_init(init_in[s]);
    }
    for (std::int64_t k = from; k < step; ++k) {
      const StepMailLog& l = log.at(k);
      if (coordinated) {
        workers[s]->phase_wave(discard);
        workers[s]->absorb_wave(l.wave_in[s]);
      }
      workers[s]->phase_plan(discard, faulted ? &l.losses[s] : nullptr);
      workers[s]->phase_apply(l.plan_in[s], discard);
      workers[s]->phase_commit(l.apply_in[s]);
    }
    rec.replayed_steps += step - from;
    if (coordinated ? phase != CrashPhase::kWave
                    : phase != CrashPhase::kPlan) {
      const StepMailLog& l = log.at(step);
      if (coordinated) {
        workers[s]->phase_wave(discard);
        workers[s]->absorb_wave(l.wave_in[s]);
      }
      if (phase != CrashPhase::kPlan) {
        workers[s]->phase_plan(discard, faulted ? &l.losses[s] : nullptr);
        if (phase == CrashPhase::kCommit)
          workers[s]->phase_apply(l.plan_in[s], discard);
      }
    }
    ++rec.recoveries;
  };

  // Scripted injection at the barrier the phase is about to cross.  The
  // loop re-queries after each respawn so crash_always() points burn
  // the respawn budget.
  const auto inject = [&](CrashPhase phase, std::int64_t step) {
    if (ctx.crash_plan == nullptr) return;
    for (std::size_t s = 0; s < count; ++s) {
      while (ctx.crash_plan->crashes(static_cast<std::int32_t>(s), step, phase,
                                     incarnation[s])) {
        ++rec.worker_crashes;
        recover(s, phase, step);
      }
    }
  };

  each([&](std::size_t s) { workers[s]->phase_init(outbox[s]); });
  transpose();
  if (recovery) init_in = inbox;
  each([&](std::size_t s) { workers[s]->absorb_init(inbox[s]); });

  while (workers[0]->running()) {
    const std::int64_t step = workers[0]->step();
    // One shared fault model, advanced once per step by the driver.
    if (faulted) ctx.sim.faults->begin_step(step, ctx.instance->graph());
    StepMailLog* l = recovery ? &log[step] : nullptr;
    if (coordinated) {
      inject(CrashPhase::kWave, step);
      each([&](std::size_t s) { workers[s]->phase_wave(outbox[s]); });
      transpose();
      if (recovery) l->wave_in = inbox;
      each([&](std::size_t s) { workers[s]->absorb_wave(inbox[s]); });
    }
    inject(CrashPhase::kPlan, step);
    each([&](std::size_t s) { workers[s]->phase_plan(outbox[s]); });
    if (recovery && faulted) {
      l->losses.resize(count);
      for (std::size_t s = 0; s < count; ++s)
        l->losses[s] = workers[s]->loss_record();
    }
    transpose();
    if (recovery) l->plan_in = inbox;
    inject(CrashPhase::kApply, step);
    each([&](std::size_t s) { workers[s]->phase_apply(inbox[s], outbox[s]); });
    transpose();
    if (recovery) l->apply_in = inbox;
    inject(CrashPhase::kCommit, step);
    each([&](std::size_t s) { workers[s]->phase_commit(inbox[s]); });
    for (std::size_t s = 1; s < count; ++s)
      OCD_ASSERT_MSG(workers[s]->running() == workers[0]->running(),
                     "shards disagree on continuation");
    if (recovery && ctx.checkpoint_interval > 0 && workers[0]->running() &&
        workers[0]->step() % ctx.checkpoint_interval == 0) {
      for (std::size_t s = 0; s < count; ++s) {
        checkpoints[s] = workers[s]->save_checkpoint();
        rec.checkpoint_bytes +=
            static_cast<std::int64_t>(checkpoints[s].size());
      }
      ckpt_step = workers[0]->step();
      log.erase(log.begin(), log.lower_bound(ckpt_step));
    }
  }

  result.fragments.resize(count);
  for (std::size_t s = 0; s < count; ++s)
    result.fragments[s] = workers[s]->finish_fragment();
  return result;
}

}  // namespace ocd::shard
