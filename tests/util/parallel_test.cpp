// The deterministic parallel runtime (ocd/util/parallel.hpp): fixed
// chunking must be a pure function of (n, grain), every primitive must
// produce the same result for any worker budget (including on a pool
// worker, where it runs inline), worker exceptions must propagate
// deterministically, and OCD_JOBS-style values must be validated.
#include "ocd/util/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "ocd/util/error.hpp"

namespace ocd::util {
namespace {

/// Forces a worker budget for the duration of a test and restores
/// environment/hardware resolution afterwards.
class JobsOverride {
 public:
  explicit JobsOverride(unsigned jobs) { set_parallel_jobs(jobs); }
  ~JobsOverride() { set_parallel_jobs(0); }
};

TEST(ParallelChunking, EmptyRangeHasNoChunks) {
  EXPECT_EQ(parallel_chunk_count(0, 1), 0u);
  EXPECT_EQ(parallel_chunk_count(0, 64), 0u);
}

TEST(ParallelChunking, GrainBoundsChunkCount) {
  EXPECT_EQ(parallel_chunk_count(1, 1), 1u);
  EXPECT_EQ(parallel_chunk_count(64, 64), 1u);
  EXPECT_EQ(parallel_chunk_count(65, 64), 2u);
  EXPECT_EQ(parallel_chunk_count(128, 64), 2u);
  // Grain 0 is treated as 1.
  EXPECT_EQ(parallel_chunk_count(3, 0), 3u);
  // The chunk count caps at kMaxParallelChunks however fine the grain.
  EXPECT_EQ(parallel_chunk_count(65, 1), kMaxParallelChunks);
  EXPECT_EQ(parallel_chunk_count(1'000'000, 1), kMaxParallelChunks);
}

// The off-by-one trap: chunks must tile [0, n) exactly — contiguous,
// non-overlapping, sizes differing by at most one — for every n and
// grain, including n just above/below multiples of the chunk count.
TEST(ParallelChunking, ChunksTileTheRangeExactly) {
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 100u, 127u, 128u, 129u}) {
    for (const std::size_t grain : {1u, 2u, 7u, 64u}) {
      const std::size_t chunks = parallel_chunk_count(n, grain);
      ASSERT_GE(chunks, 1u);
      std::size_t expected_begin = 0;
      std::size_t min_size = n;
      std::size_t max_size = 0;
      for (std::size_t i = 0; i < chunks; ++i) {
        const ChunkRange c = parallel_chunk(n, grain, i);
        EXPECT_EQ(c.index, i);
        EXPECT_EQ(c.begin, expected_begin) << "n=" << n << " grain=" << grain;
        EXPECT_LT(c.begin, c.end);
        expected_begin = c.end;
        min_size = std::min(min_size, c.end - c.begin);
        max_size = std::max(max_size, c.end - c.begin);
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " grain=" << grain;
      EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  const JobsOverride jobs(8);
  int calls = 0;
  parallel_for(0, 1, [&](ChunkRange) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleChunkRunsInline) {
  const JobsOverride jobs(8);
  int calls = 0;
  parallel_for(10, 64, [&](ChunkRange c) {
    ++calls;
    EXPECT_EQ(c.begin, 0u);
    EXPECT_EQ(c.end, 10u);
    EXPECT_FALSE(on_parallel_worker());  // never left the caller
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EveryIndexVisitedOnceAnyBudget) {
  for (const unsigned budget : {1u, 2u, 8u}) {
    const JobsOverride jobs(budget);
    std::vector<int> visits(1000, 0);
    parallel_for(visits.size(), 16,
                 [&](ChunkRange c) {
                   for (std::size_t i = c.begin; i < c.end; ++i) ++visits[i];
                 });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000)
        << "budget=" << budget;
    for (const int v : visits) ASSERT_EQ(v, 1);
  }
}

TEST(ParallelFor, ExplicitCapOverridesBudget) {
  // A caller-supplied worker count must fan out even when the
  // environment budget says serial — run_grid depends on this.
  const JobsOverride jobs(1);
  std::vector<int> visits(64, 0);
  parallel_for_capped(visits.size(), 1, 8, [&](ChunkRange c) {
    for (std::size_t i = c.begin; i < c.end; ++i) ++visits[i];
  });
  for (const int v : visits) ASSERT_EQ(v, 1);
}

TEST(ParallelFor, LowestChunkExceptionWins) {
  const JobsOverride jobs(8);
  // Two chunks throw; whichever worker reaches them, the rethrown
  // exception must be chunk 5's (the lowest index), every time.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      parallel_for(64, 1, [&](ChunkRange c) {
        if (c.index == 5 || c.index == 37)
          throw std::runtime_error("chunk " + std::to_string(c.index));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 5");
    }
  }
}

TEST(ParallelFor, AllChunksRunDespiteException) {
  const JobsOverride jobs(8);
  std::vector<int> visits(64, 0);
  EXPECT_THROW(parallel_for(visits.size(), 1,
                            [&](ChunkRange c) {
                              ++visits[c.index];
                              if (c.index == 0) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  // No cancellation: an exception must not leave later chunks unrun
  // (callers rely on complete side effects to keep outputs a pure
  // function of the inputs).
  for (const int v : visits) ASSERT_EQ(v, 1);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  const JobsOverride jobs(4);
  std::vector<std::size_t> totals(8, 0);
  parallel_for(8, 1, [&](ChunkRange outer) {
    EXPECT_TRUE(on_parallel_worker());
    // A nested primitive on a pool worker must run inline (shared
    // budget) and still produce the full result.
    std::size_t sum = 0;
    parallel_for(100, 10, [&](ChunkRange inner) {
      for (std::size_t i = inner.begin; i < inner.end; ++i) sum += i;
    });
    totals[outer.index] = sum;
  });
  EXPECT_FALSE(on_parallel_worker());
  for (const std::size_t t : totals) EXPECT_EQ(t, 4950u);
}

TEST(ParallelJobs, ParseRejectsGarbage) {
  EXPECT_THROW(parse_jobs_value(nullptr), Error);
  EXPECT_THROW(parse_jobs_value(""), Error);
  EXPECT_THROW(parse_jobs_value("0"), Error);
  EXPECT_THROW(parse_jobs_value("-3"), Error);
  EXPECT_THROW(parse_jobs_value("eight"), Error);
  EXPECT_THROW(parse_jobs_value("8x"), Error);
  EXPECT_THROW(parse_jobs_value("2.5"), Error);
  EXPECT_THROW(parse_jobs_value("99999999999999999999"), Error);
  EXPECT_EQ(parse_jobs_value("1"), 1u);
  EXPECT_EQ(parse_jobs_value("8"), 8u);
  try {
    parse_jobs_value("bogus");
    FAIL() << "expected ocd::Error";
  } catch (const Error& e) {
    // The message must name the variable so a typo'd environment is
    // diagnosable from the error alone.
    EXPECT_NE(std::string(e.what()).find("OCD_JOBS"), std::string::npos);
  }
}

TEST(ParallelJobs, OverrideBeatsEnvironment) {
  ASSERT_EQ(setenv("OCD_JOBS", "3", 1), 0);
  EXPECT_EQ(parallel_jobs(), 3u);
  set_parallel_jobs(5);
  EXPECT_EQ(parallel_jobs(), 5u);
  set_parallel_jobs(0);  // cleared: back to the environment
  EXPECT_EQ(parallel_jobs(), 3u);
  ASSERT_EQ(unsetenv("OCD_JOBS"), 0);
  EXPECT_GE(parallel_jobs(), 1u);
}

TEST(ParallelJobs, InvalidEnvironmentThrowsOnUse) {
  ASSERT_EQ(setenv("OCD_JOBS", "garbage", 1), 0);
  EXPECT_THROW(parallel_jobs(), Error);
  ASSERT_EQ(unsetenv("OCD_JOBS"), 0);
}

}  // namespace
}  // namespace ocd::util
