#include "ocd/shard/transport.hpp"

#include <memory>
#include <string>

#include "ocd/faults/model.hpp"
#include "ocd/util/parallel.hpp"

namespace ocd::shard {

std::vector<std::string> run_in_process(const RunContext& ctx) {
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

  const bool faulted = ctx.sim.faults != nullptr;
  const bool coordinated = ctx.coordinated && count > 1;

  each([&](std::size_t s) { workers[s]->phase_init(outbox[s]); });
  transpose();
  each([&](std::size_t s) { workers[s]->absorb_init(inbox[s]); });

  while (workers[0]->running()) {
    const std::int64_t step = workers[0]->step();
    // One shared fault model, advanced once per step by the driver.
    if (faulted) ctx.sim.faults->begin_step(step, ctx.instance->graph());
    if (coordinated) {
      each([&](std::size_t s) { workers[s]->phase_wave(outbox[s]); });
      transpose();
      each([&](std::size_t s) { workers[s]->absorb_wave(inbox[s]); });
    }
    each([&](std::size_t s) { workers[s]->phase_plan(outbox[s]); });
    transpose();
    each([&](std::size_t s) { workers[s]->phase_apply(inbox[s], outbox[s]); });
    transpose();
    each([&](std::size_t s) { workers[s]->phase_commit(inbox[s]); });
    for (std::size_t s = 1; s < count; ++s)
      OCD_ASSERT_MSG(workers[s]->running() == workers[0]->running(),
                     "shards disagree on continuation");
  }

  std::vector<std::string> fragments(count);
  for (std::size_t s = 0; s < count; ++s)
    fragments[s] = workers[s]->finish_fragment();
  return fragments;
}

}  // namespace ocd::shard
