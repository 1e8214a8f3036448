#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "metrics/overlap.hpp"
#include "metrics/timeline.hpp"

namespace bpsio::metrics {
namespace {

using trace::make_record;

constexpr std::int64_t kSec = 1'000'000'000;

trace::TraceCollector two_phase_trace() {
  // Phase 1: [0, 2s) busy with 2000 blocks. Idle [2s, 4s).
  // Phase 2: [4s, 5s) busy with 4000 blocks (more intense).
  trace::TraceCollector c;
  c.add(make_record(1, 1000, SimTime(0), SimTime(kSec)));
  c.add(make_record(1, 1000, SimTime(kSec), SimTime(2 * kSec)));
  c.add(make_record(1, 4000, SimTime(4 * kSec), SimTime(5 * kSec)));
  return c;
}

TEST(Timeline, WindowsCoverTheSpan) {
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 5u);
  EXPECT_EQ(tl.windows.front().start_ns, 0);
  EXPECT_EQ(tl.windows.back().end_ns, 5 * kSec);
}

TEST(Timeline, BlocksAreConserved) {
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  double total = 0;
  for (const auto& w : tl.windows) total += w.blocks;
  EXPECT_NEAR(total, 6000.0, 1e-6);
}

TEST(Timeline, IdleWindowsReadAsIdle) {
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  EXPECT_DOUBLE_EQ(tl.windows[2].io_time_s, 0.0);  // [2s,3s)
  EXPECT_DOUBLE_EQ(tl.windows[2].bps, 0.0);
  EXPECT_DOUBLE_EQ(tl.windows[3].io_time_s, 0.0);  // [3s,4s)
  EXPECT_NEAR(tl.idle_window_fraction(), 2.0 / 5.0, 1e-12);
}

TEST(Timeline, WindowedBpsTracksIntensity) {
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  EXPECT_NEAR(tl.windows[0].bps, 1000.0, 1e-6);
  EXPECT_NEAR(tl.windows[4].bps, 4000.0, 1e-6);
  EXPECT_DOUBLE_EQ(tl.peak_bps(), tl.windows[4].bps);
}

TEST(Timeline, SpanningAccessIsProRated) {
  trace::TraceCollector c;
  // One access [0.5s, 2.5s) with 200 blocks: 25% / 50% / 25% per window.
  c.add(make_record(1, 200, SimTime(kSec / 2), SimTime(5 * kSec / 2)));
  const auto tl = build_timeline(c, SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 2u);  // span starts at 0.5s: [0.5,1.5),[1.5,2.5)
  EXPECT_NEAR(tl.windows[0].blocks, 100.0, 1e-9);
  EXPECT_NEAR(tl.windows[1].blocks, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(tl.windows[0].busy_fraction, 1.0);
}

TEST(Timeline, ConcurrentAccessesCountOnceInIoTime) {
  trace::TraceCollector c;
  c.add(make_record(1, 100, SimTime(0), SimTime(kSec)));
  c.add(make_record(2, 100, SimTime(0), SimTime(kSec)));
  const auto tl = build_timeline(c, SimDuration::from_seconds(1.0));
  ASSERT_EQ(tl.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(tl.windows[0].io_time_s, 1.0);
  EXPECT_NEAR(tl.windows[0].bps, 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(tl.windows[0].avg_concurrency, 2.0);
  EXPECT_EQ(tl.windows[0].accesses_active, 2u);
}

TEST(Timeline, EmptyTraceYieldsEmptyTimeline) {
  const auto tl =
      build_timeline(trace::TraceCollector{}, SimDuration::from_seconds(1.0));
  EXPECT_TRUE(tl.windows.empty());
  EXPECT_DOUBLE_EQ(tl.peak_bps(), 0.0);
  EXPECT_TRUE(tl.to_string().empty());
}

TEST(Timeline, RenderingHasOneLinePerWindow) {
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(1.0));
  const auto s = tl.to_string();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(Timeline, ExplicitWindowBoundsClipTheSpan) {
  trace::RecordFilter f;
  f.window_start_ns = kSec;      // analyze [1s, 2s) only
  f.window_end_ns = 2 * kSec;
  const auto tl = build_timeline(two_phase_trace(),
                                 SimDuration::from_seconds(0.5), f);
  ASSERT_EQ(tl.windows.size(), 2u);
  EXPECT_EQ(tl.windows.front().start_ns, kSec);
  EXPECT_EQ(tl.windows.back().end_ns, 2 * kSec);
  double blocks = 0;
  for (const auto& w : tl.windows) blocks += w.blocks;
  // Only the second half of phase 1 lies inside the window.
  EXPECT_NEAR(blocks, 1000.0, 1e-6);
}

// Every window's T equals the Figure-3 transcription run on the intervals
// clipped to that window, on seeded random traces: dense and sparse,
// zero-length and touching intervals, with default and explicit bounds.
TEST(Timeline, PerWindowIoTimeMatchesPaperOnClippedIntervals) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    trace::TraceCollector c;
    const std::int64_t range = 1 + static_cast<std::int64_t>(
        rng.uniform_u64(100'000));
    const std::int64_t max_len =
        1 + static_cast<std::int64_t>(rng.uniform_u64(5'000));
    const std::size_t count = 1 + rng.uniform_u64(150);
    std::int64_t prev_end = 0;
    for (std::size_t i = 0; i < count; ++i) {
      auto start = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(range)));
      if (rng.uniform() < 0.1) start = prev_end;  // touches an earlier end
      std::int64_t len = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(max_len)));
      if (rng.uniform() < 0.1) len = 0;
      c.add(make_record(static_cast<std::uint32_t>(i % 4), 1 + i % 7,
                        SimTime(start), SimTime(start + len)));
      prev_end = start + len;
    }
    const SimDuration window(
        1 + static_cast<std::int64_t>(rng.uniform_u64(20'000)));
    trace::RecordFilter f;
    if (round % 2 == 1) {
      f.window_start_ns = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(range)));
      f.window_end_ns = *f.window_start_ns + 1 +
                        static_cast<std::int64_t>(rng.uniform_u64(50'000));
    }
    const auto tl = build_timeline(c, window, f);
    const auto col_time = c.col_time();
    for (std::size_t i = 0; i < tl.windows.size(); ++i) {
      const TimelineWindow& w = tl.windows[i];
      std::vector<trace::TimeInterval> clipped;
      for (const auto& iv : col_time) {
        const std::int64_t s = std::max(iv.start_ns, w.start_ns);
        const std::int64_t e = std::min(iv.end_ns, w.end_ns);
        if (s < e) clipped.push_back({s, e});
      }
      EXPECT_EQ(w.io_time_s, overlap_time_paper(clipped).seconds())
          << "round " << round << " window " << i;
    }
  }
}

TEST(ConcurrencyProfile, SplitsBusyTimeByLevel) {
  trace::TraceCollector c;
  // [0,1s) single, [1s,2s) double.
  c.add(make_record(1, 1, SimTime(0), SimTime(2 * kSec)));
  c.add(make_record(2, 1, SimTime(kSec), SimTime(2 * kSec)));
  const auto profile = concurrency_profile(c);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_NEAR(profile[0], 0.5, 1e-12);
  EXPECT_NEAR(profile[1], 0.5, 1e-12);
}

TEST(ConcurrencyProfile, EmptyTrace) {
  EXPECT_TRUE(concurrency_profile(trace::TraceCollector{}).empty());
}

}  // namespace
}  // namespace bpsio::metrics
