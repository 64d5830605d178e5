// Deterministic coarse-grained parallelism: a lazily started,
// process-shared worker pool plus a parallel_for primitive whose results
// are bit-identical for ANY worker count.
//
// Two callers fan out through it: the bench sweep grid (run_grid in
// bench/bench_common.hpp, one experiment row per chunk) and the sharded
// plan phase (src/shard/runtime.cpp, one shard per chunk).  A plain
// sim::run never does — it runs on the calling thread.
//
// The determinism contract both rely on:
//  * Chunking is FIXED: the number of chunks and their boundaries are a
//    pure function of (range size, grain) — never of the thread count,
//    the machine, or scheduling.  parallel_chunk_count/parallel_chunk
//    expose the exact split so callers can pre-size per-chunk scratch.
//  * Each chunk writes only to storage indexed by its chunk index (or
//    disjoint slices of shared output), so which worker executes a
//    chunk — the only scheduling freedom — cannot change any output.
//  * Exceptions propagate deterministically: every chunk always runs
//    (no cancellation), and the pending exception of the LOWEST chunk
//    index is rethrown on the caller once the region drains.
//
// Worker budget: OCD_JOBS when set (validated — garbage or non-positive
// values throw ocd::Error), a set_parallel_jobs() override for tests
// and benchmarks, hardware concurrency otherwise.  OCD_JOBS=1 runs
// every primitive inline on the caller with no pool interaction at all:
// the serial path is the jobs==1 special case of the same code.
//
// Nesting: a parallel_for issued from inside a pool worker (e.g. a
// sharded run inside a bench sweep row) runs inline and
// serially on that worker.  The two levels therefore share one budget
// instead of multiplying, and the pool cannot deadlock on itself.
//
// Allocation: publishing a region allocates nothing — the callable is
// type-erased through a stack-held context pointer, completion is a
// mutex/condvar handshake, and per-chunk bookkeeping lives in fixed
// pool storage.  Worker threads are spawned lazily on first use (and
// grown on demand).
#pragma once

#include <cstddef>
#include <utility>

#include "ocd/util/error.hpp"

namespace ocd::util {

/// Hard cap on chunks per region.  Small enough that per-chunk
/// bookkeeping stays cheap, large enough to load-balance any realistic
/// OCD_JOBS.
inline constexpr std::size_t kMaxParallelChunks = 64;

/// One contiguous slice [begin, end) of a parallel range, plus its
/// fixed chunk index (stable across thread counts).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t index = 0;
};

/// Parses an OCD_JOBS-style value.  Throws ocd::Error naming the
/// variable unless `text` is a plain positive integer.
unsigned parse_jobs_value(const char* text);

/// The current worker budget: the set_parallel_jobs override when set,
/// else OCD_JOBS from the environment (validated via parse_jobs_value),
/// else hardware concurrency (minimum 1).
unsigned parallel_jobs();

/// Programmatic budget override (tests, benchmarks).  0 clears the
/// override, restoring environment/hardware resolution.
void set_parallel_jobs(unsigned jobs);

/// True on a pool worker thread (where parallel primitives run inline).
bool on_parallel_worker();

/// Number of chunks [0, kMaxParallelChunks] a range of `n` items splits
/// into with at least `grain` items per chunk.  Pure function of its
/// arguments — the heart of the determinism contract.
inline std::size_t parallel_chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  const std::size_t wanted = (n + grain - 1) / grain;
  return wanted < kMaxParallelChunks ? wanted : kMaxParallelChunks;
}

/// Bounds of chunk `index` of the fixed split of [0, n).  Chunks are
/// contiguous, non-overlapping, cover the range exactly, and differ in
/// size by at most one item.
inline ChunkRange parallel_chunk(std::size_t n, std::size_t grain,
                                 std::size_t index) {
  const std::size_t chunks = parallel_chunk_count(n, grain);
  OCD_EXPECTS(index < chunks);
  return {index * n / chunks, (index + 1) * n / chunks, index};
}

namespace detail {

/// Runs chunks [0, n_chunks) of the published region on the shared
/// pool, using at most `workers` threads (caller included).  Returns
/// false — having run nothing — when the region should run inline
/// instead (single chunk, budget of one, or already on a worker).
/// Rethrows the lowest-chunk exception after the region drains.
bool pool_run(std::size_t n_chunks, unsigned workers,
              void (*invoke)(void*, std::size_t), void* ctx);

}  // namespace detail

/// Runs fn(ChunkRange) for every chunk of the fixed split of [0, n),
/// using at most `workers` threads (an explicit cap that OVERRIDES the
/// parallel_jobs() budget — bench sweeps pass their own count through
/// here).  Blocks until all chunks finished.  fn must write only
/// chunk-indexed / disjoint outputs (see the determinism contract
/// above); it may be invoked concurrently.
template <typename Fn>
void parallel_for_capped(std::size_t n, std::size_t grain, unsigned workers,
                         Fn&& fn) {
  const std::size_t chunks = parallel_chunk_count(n, grain);
  if (chunks == 0) return;
  struct Ctx {
    Fn* fn;
    std::size_t n, grain;
  } ctx{&fn, n, grain};
  const auto invoke = [](void* p, std::size_t index) {
    Ctx* c = static_cast<Ctx*>(p);
    (*c->fn)(parallel_chunk(c->n, c->grain, index));
  };
  if (chunks == 1 || !detail::pool_run(chunks, workers, +invoke, &ctx)) {
    for (std::size_t i = 0; i < chunks; ++i)
      fn(parallel_chunk(n, grain, i));
  }
}

/// parallel_for_capped with the full parallel_jobs() budget.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  parallel_for_capped(n, grain, parallel_jobs(), std::forward<Fn>(fn));
}

}  // namespace ocd::util
