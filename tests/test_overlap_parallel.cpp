// Property-based differential tests for the union implementations and the
// pool-parallel trace merge.
//
// The paper ships its own oracle: three agreeing union implementations
// (Figure-3 verbatim, sort-and-merge on the interval-union kernel, O(n^2)
// brute force). They must match exactly — not approximately — on every
// input shape we can generate. The same differential treatment covers the
// pool-parallel trace merge at every pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "metrics/overlap.hpp"
#include "trace/merge.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {
namespace {

using trace::TimeInterval;

// One random interval set. Density knobs widen from "everything overlaps"
// to "mostly disjoint"; degenerate shapes (zero-length, duplicate
// timestamps) are mixed in at a fixed rate.
std::vector<TimeInterval> random_set(Rng& rng, std::size_t count,
                                     std::int64_t time_range,
                                     std::int64_t max_len) {
  std::vector<TimeInterval> v;
  v.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(time_range)));
    std::int64_t len = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(max_len)));
    if (rng.uniform() < 0.1) len = 0;  // zero-length interval
    v.push_back({start, start + len});
    if (rng.uniform() < 0.15 && !v.empty()) {
      // Duplicate timestamps: reuse an existing start and/or whole interval.
      const auto& prev = v[rng.uniform_u64(v.size())];
      if (rng.uniform() < 0.5) {
        v.push_back(prev);  // exact duplicate
      } else {
        v.push_back({prev.start_ns, prev.start_ns + len});
      }
    }
  }
  return v;
}

// ThreadPool unit behavior the differential layer leans on.
TEST(ThreadPool, InlineWhenSingleThreaded) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.run_all({[&] { ++calls; }, [&] { ++calls; }});
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(hits.size()))
        << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForEmptyAndTiny) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ZeroResolvesToHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, ResolveThreadsFromConfig) {
  const char* argv[] = {"--threads=6"};
  EXPECT_EQ(resolve_threads(Config::from_args(1, argv)), 6u);
  const char* argv0[] = {"--threads=0"};
  EXPECT_EQ(resolve_threads(Config::from_args(1, argv0)),
            ThreadPool::hardware_threads());
  EXPECT_EQ(resolve_threads(Config{}), 1u);          // absent -> default
  EXPECT_EQ(resolve_threads(Config{}, "threads", 4), 4u);
}

// The tentpole property: on thousands of seeded-random interval sets,
// merged equals paper and (on sets small enough for O(n^2)) brute force —
// exactly.
class OverlapParallelProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapParallelProperty, AllImplementationsAgree) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  for (int round = 0; round < 60; ++round) {
    const std::size_t count = rng.uniform_u64(240);  // includes empty sets
    // Density sweep: tight ranges force heavy overlap, wide ranges gaps.
    const std::int64_t range = 1 + static_cast<std::int64_t>(
        rng.uniform_u64(1'000'000));
    const std::int64_t max_len =
        1 + static_cast<std::int64_t>(rng.uniform_u64(10'000));
    const auto v = random_set(rng, count, range, max_len);

    const auto expected = overlap_time_merged(v).ns();
    EXPECT_EQ(overlap_time_paper(v).ns(), expected);
    EXPECT_EQ(overlap_time_bruteforce(v).ns(), expected);
  }
}

// Large dense and sparse sets (brute force sits this one out).
TEST_P(OverlapParallelProperty, ShardedPathMatchesOnLargeSets) {
  Rng rng(GetParam() ^ 0x5eedULL);
  const std::size_t count = 20'000 + rng.uniform_u64(20'000);
  const auto dense = random_set(rng, count, 500'000, 2'000);
  const auto sparse = random_set(rng, count, 1'000'000'000, 100);
  for (const auto& v : {dense, sparse}) {
    const auto expected = overlap_time_merged(v).ns();
    EXPECT_EQ(overlap_time_paper(v).ns(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OverlapParallelProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---------------------------------------------------------------------------
// Pool-parallel trace utilities.
// ---------------------------------------------------------------------------

std::vector<std::vector<trace::IoRecord>> random_traces(Rng& rng,
                                                        std::size_t sources) {
  std::vector<std::vector<trace::IoRecord>> traces(sources);
  for (auto& t : traces) {
    const std::size_t n = rng.uniform_u64(400);
    for (std::size_t i = 0; i < n; ++i) {
      trace::IoRecord r;
      r.pid = static_cast<std::uint32_t>(rng.uniform_u64(5));
      r.blocks = rng.uniform_u64(1000);
      r.start_ns = static_cast<std::int64_t>(rng.uniform_u64(100'000));
      r.end_ns = r.start_ns + static_cast<std::int64_t>(rng.uniform_u64(500));
      if (rng.uniform() < 0.05) r.flags = trace::kIoFailed;
      t.push_back(r);
    }
  }
  return traces;
}

class MergeParallelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeParallelProperty, MatchesSerialMergeAtEveryPoolWidth) {
  Rng rng(GetParam() ^ 0xfeedULL);
  const auto traces = random_traces(rng, 1 + rng.uniform_u64(6));
  for (trace::TimeAlignment align :
       {trace::TimeAlignment::keep, trace::TimeAlignment::align_starts}) {
    trace::MergeOptions opts;
    opts.alignment = align;
    const auto serial = trace::merge_traces(traces, opts);

    std::vector<trace::IoRecord> reference;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      const auto parallel = trace::merge_traces_parallel(traces, pool, opts);
      ASSERT_EQ(parallel.size(), serial.size());
      // Same global ordering key as the serial merge...
      for (std::size_t i = 0; i + 1 < parallel.size(); ++i) {
        const bool ordered =
            parallel[i].start_ns < parallel[i + 1].start_ns ||
            (parallel[i].start_ns == parallel[i + 1].start_ns &&
             parallel[i].end_ns <= parallel[i + 1].end_ns);
        ASSERT_TRUE(ordered) << "at " << i;
      }
      // ...same multiset of records...
      auto a = serial, b = parallel;
      auto key = [](const trace::IoRecord& x, const trace::IoRecord& y) {
        return std::tie(x.start_ns, x.end_ns, x.pid, x.blocks, x.flags) <
               std::tie(y.start_ns, y.end_ns, y.pid, y.blocks, y.flags);
      };
      std::sort(a.begin(), a.end(), key);
      std::sort(b.begin(), b.end(), key);
      EXPECT_EQ(a, b);
      // ...and bit-identical output across pool widths (full determinism).
      if (reference.empty()) {
        reference = parallel;
      } else {
        EXPECT_EQ(parallel, reference) << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MergeParallelProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace bpsio::metrics
