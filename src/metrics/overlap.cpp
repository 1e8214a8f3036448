#include "metrics/overlap.hpp"

#include <algorithm>

#include "metrics/interval_union.hpp"

namespace bpsio::metrics {

namespace {

void sort_by_start(std::vector<TimeInterval>& v) {
  std::sort(v.begin(), v.end(), [](const TimeInterval& a, const TimeInterval& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns < b.end_ns;
  });
}

}  // namespace

SimDuration overlap_time_paper(std::vector<TimeInterval> col_time) {
  if (col_time.empty()) return SimDuration::zero();

  // "sort all records in col_time according to the start time of each record"
  sort_by_start(col_time);

  // Figure 3, transcribed. tempRecord carries the growing merged interval;
  // when the next record is disjoint, the finished interval's length is
  // accumulated into T (the pseudocode writes "T = ..." for both
  // accumulation sites, but the worked example in Figure 2 — T = dt1 + dt2 —
  // makes clear the intent is accumulation).
  std::int64_t T = 0;
  TimeInterval tempRecord = col_time.front();
  for (std::size_t i = 1; i < col_time.size(); ++i) {
    TimeInterval nextRecord = col_time[i];
    if (tempRecord.end_ns < nextRecord.start_ns) {
      T += tempRecord.end_ns - tempRecord.start_ns;
    } else {
      nextRecord.start_ns = tempRecord.start_ns;
      if (nextRecord.end_ns < tempRecord.end_ns) {
        nextRecord.end_ns = tempRecord.end_ns;
      }
    }
    tempRecord = nextRecord;
  }
  T += tempRecord.end_ns - tempRecord.start_ns;
  return SimDuration(T);
}

std::vector<TimeInterval> merge_intervals(std::vector<TimeInterval> col_time) {
  std::vector<TimeInterval> merged;
  sort_by_start(col_time);
  IntervalUnion u;
  for (const TimeInterval& iv : col_time) {
    u.add(iv, [&merged](const TimeInterval& run) { merged.push_back(run); });
  }
  if (u.any()) merged.push_back(u.last_run());
  return merged;
}

SimDuration overlap_time_merged(std::vector<TimeInterval> col_time) {
  sort_by_start(col_time);
  IntervalUnion u;
  for (const TimeInterval& iv : col_time) u.add(iv);
  return SimDuration(u.measure_ns());
}

SimDuration overlap_time_bruteforce(const std::vector<TimeInterval>& col_time) {
  // For interval i, count only the portion of [start_i, end_i) not covered
  // by any interval j < i. Subtract overlaps segment by segment.
  std::int64_t T = 0;
  for (std::size_t i = 0; i < col_time.size(); ++i) {
    // Collect the parts of interval i already covered by earlier intervals.
    std::vector<TimeInterval> uncovered{col_time[i]};
    if (uncovered.back().end_ns <= uncovered.back().start_ns) continue;
    for (std::size_t j = 0; j < i && !uncovered.empty(); ++j) {
      std::vector<TimeInterval> next;
      for (const auto& seg : uncovered) {
        const std::int64_t s = std::max(seg.start_ns, col_time[j].start_ns);
        const std::int64_t e = std::min(seg.end_ns, col_time[j].end_ns);
        if (s >= e) {
          next.push_back(seg);  // no overlap with j
          continue;
        }
        if (seg.start_ns < s) next.push_back({seg.start_ns, s});
        if (e < seg.end_ns) next.push_back({e, seg.end_ns});
      }
      uncovered = std::move(next);
    }
    for (const auto& seg : uncovered) T += seg.end_ns - seg.start_ns;
  }
  return SimDuration(T);
}

SimDuration overlap_time_windowed(const std::vector<TimeInterval>& col_time,
                                  std::int64_t window_start_ns,
                                  std::int64_t window_end_ns) {
  std::vector<TimeInterval> clipped;
  clipped.reserve(col_time.size());
  for (const auto& iv : col_time) {
    const std::int64_t s = std::max(iv.start_ns, window_start_ns);
    const std::int64_t e = std::min(iv.end_ns, window_end_ns);
    if (s < e) clipped.push_back({s, e});
  }
  return overlap_time_merged(std::move(clipped));
}

SimDuration idle_time(const std::vector<TimeInterval>& col_time) {
  if (col_time.empty()) return SimDuration::zero();
  std::int64_t lo = col_time.front().start_ns;
  std::int64_t hi = col_time.front().end_ns;
  for (const auto& iv : col_time) {
    lo = std::min(lo, iv.start_ns);
    hi = std::max(hi, iv.end_ns);
  }
  return SimDuration(hi - lo) - overlap_time_merged(col_time);
}

std::size_t peak_concurrency(const std::vector<TimeInterval>& col_time) {
  // Sweep over sorted boundary events. Zero-length intervals contribute no
  // measure, so end events at time t are processed before start events at t.
  std::vector<std::pair<std::int64_t, int>> events;
  events.reserve(col_time.size() * 2);
  for (const auto& iv : col_time) {
    if (iv.end_ns <= iv.start_ns) continue;
    events.emplace_back(iv.start_ns, +1);
    events.emplace_back(iv.end_ns, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // -1 before +1 at the same time
            });
  std::size_t active = 0, peak = 0;
  for (const auto& [t, delta] : events) {
    (void)t;
    if (delta > 0) {
      ++active;
      peak = std::max(peak, active);
    } else {
      --active;
    }
  }
  return peak;
}

double average_concurrency(const std::vector<TimeInterval>& col_time) {
  std::int64_t total = 0;
  for (const auto& iv : col_time) {
    if (iv.end_ns > iv.start_ns) total += iv.end_ns - iv.start_ns;
  }
  const auto uni = overlap_time_merged(col_time);
  if (uni.ns() <= 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(uni.ns());
}

}  // namespace bpsio::metrics
