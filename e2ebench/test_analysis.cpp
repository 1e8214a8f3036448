// Scripted-input tests of the benchmark's arithmetic: the percentile-rank
// rule, the visible-lag estimator and span self time.
#include <gtest/gtest.h>

#include <vector>

#include "analysis.hpp"

namespace e2e {
namespace {

TEST(PercentileRule, NearestRankAndTenBeyond) {
  EXPECT_EQ(nearest_rank(0.5, 10), 5u);
  EXPECT_EQ(nearest_rank(0.99, 1000), 990u);
  EXPECT_EQ(nearest_rank(0.99, 1001), 991u);  // ceil(990.99)
  EXPECT_EQ(nearest_rank(0.0, 7), 1u);
  EXPECT_EQ(nearest_rank(1.0, 7), 7u);
  // p99 leaves exactly 10 samples beyond at n = 1000, 9 at n = 999.
  EXPECT_TRUE(reportable(0.99, 1000));
  EXPECT_FALSE(reportable(0.99, 999));
  EXPECT_TRUE(reportable(0.5, 20));
  EXPECT_FALSE(reportable(0.5, 19));
  EXPECT_FALSE(reportable(0.5, 0));
}

TEST(PercentileRule, HistogramMatchesSortedSamples) {
  std::vector<std::uint64_t> raw;
  Histogram h;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t v = (i * 7919) % 1000 + (i % 100 == 0 ? Histogram::kLinear : 0);
    raw.push_back(v);
    h.add(v);
  }
  for (const double p : {0.01, 0.5, 0.9, 0.99, 0.995, 1.0}) {
    std::vector<std::uint64_t> copy = raw;
    EXPECT_EQ(h.percentile(p), percentile_of(copy, p)) << "p=" << p;
  }
  Histogram a, b;
  a.add(5);
  b.add(Histogram::kLinear + 3);
  b.add(1);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.at_rank(1), 1u);
  EXPECT_EQ(a.at_rank(2), 5u);
  EXPECT_EQ(a.at_rank(3), Histogram::kLinear + 3);
}

TEST(LagEstimator, MatchesCountersToMergedCompletionTimes) {
  // Two generator threads log completions; events arrive unsorted.
  std::vector<Completion> events = {
      {100, 2}, {300, 2},  // thread A: records 1-2 done at 100, 3-4 at 300
      {200, 1}, {400, 3},  // thread B
  };
  // Global completion order: t=100 -> 2, 200 -> 3, 300 -> 5, 400 -> 8.
  const std::vector<Observation> obs = {
      {150, 0},   // nothing visible yet: no sample
      {250, 2},   // 2nd record completed at 100
      {350, 3},   // 3rd at 200
      {360, 4},   // 4th at 300
      {500, 8},   // 8th at 400
      {600, 9},   // more than ever completed: counted, no sample
  };
  const LagResult r = visible_lags(events, obs);
  EXPECT_EQ(r.lags_ns, (std::vector<std::int64_t>{150, 150, 60, 100}));
  EXPECT_EQ(r.over_count, 1u);
}

TEST(LagEstimator, NoEventsMeansEveryPositiveCountIsOver) {
  const std::vector<Observation> obs = {{10, 1}, {20, 0}};
  const LagResult r = visible_lags({}, obs);
  EXPECT_TRUE(r.lags_ns.empty());
  EXPECT_EQ(r.over_count, 1u);
}

TEST(SpanSelfTime, SubtractsUnionOfChildrenClippedToParent) {
  const std::vector<Span> spans = {
      {"root", 0, 0, 100, -1},
      {"stage.a", 1, 10, 30, 0},
      {"stage.b", 1, 20, 50, 0},   // overlaps a: union of a and b is [10, 50)
      {"inner", 1, 25, 35, 2},     // child of b
      {"stage.c", 2, 90, 120, 0},  // runs past the root: clipped to [90, 100)
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 30);
}

TEST(SpanSelfTime, NestedTreeAddsBackUpToRoot) {
  const std::vector<Span> spans = {
      {"root", 0, 0, 100, -1},
      {"stage.a", 1, 10, 30, 0},
      {"stage.b", 2, 40, 70, 0},
      {"inner", 2, 50, 60, 2},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{50, 20, 20, 10}));
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  EXPECT_EQ(sum, 100);
}

TEST(Digest, IndependentOfOrderAndBatching) {
  std::vector<bpsio::trace::IoRecord> recs(5);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    recs[i].pid = static_cast<std::uint32_t>(i);
    recs[i].blocks = i + 1;
    recs[i].start_ns = static_cast<std::int64_t>(i * 10);
    recs[i].end_ns = static_cast<std::int64_t>(i * 10 + 5);
  }
  Digest whole, parts;
  whole.add(recs);
  Digest first;
  first.add(std::span(recs).subspan(3));
  parts.add(std::span(recs).first(3));
  parts.merge(first);
  EXPECT_EQ(whole, parts);
  EXPECT_EQ(whole.records, 5u);
  EXPECT_EQ(whole.blocks, 15u);
  recs[2].end_ns += 1;
  Digest changed;
  changed.add(recs);
  EXPECT_NE(changed, whole);
}

}  // namespace
}  // namespace e2e
