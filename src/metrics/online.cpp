#include "metrics/online.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"
#include "metrics/interval_union.hpp"

namespace bpsio::metrics {

void OnlineBpsCounter::access_started(SimTime t) {
  if (active_ == 0) open_since_ = t;
  ++active_;
  ++started_;
}

void OnlineBpsCounter::access_finished(SimTime t, std::uint64_t blocks) {
  if (active_ == 0) {
    // Feeder contract violation (previously a bare assert that was a no-op
    // in Release, letting active_ wrap to ~4 billion): drop the event and
    // record the violation instead of corrupting B and T.
    ++unmatched_finishes_;
    BPSIO_WARN("online counter: finish at t=%lldns (%llu blocks) without a "
               "matching start; dropped",
               static_cast<long long>(t.ns()),
               static_cast<unsigned long long>(blocks));
    return;
  }
  blocks_ += blocks;
  ++finished_;
  --active_;
  if (active_ == 0) busy_ns_ += (t - open_since_).ns();
}

SimDuration OnlineBpsCounter::busy_time(SimTime now) const {
  std::int64_t total = busy_ns_;
  if (active_ > 0) total += (now - open_since_).ns();
  return SimDuration(total);
}

double OnlineBpsCounter::bps(SimTime now) const {
  const auto t = busy_time(now);
  if (t.ns() <= 0) return 0.0;
  return static_cast<double>(blocks_) / t.seconds();
}

void OnlineBpsCounter::reset() { *this = OnlineBpsCounter{}; }

double WindowTotals::bps() const {
  if (busy_ns <= 0) return 0.0;
  return static_cast<double>(blocks) / SimDuration(busy_ns).seconds();
}

double WindowTotals::iops() const {
  return static_cast<double>(records) / SimDuration(window_ns).seconds();
}

double WindowTotals::arpt_s() const {
  if (records == 0) return 0.0;
  return static_cast<double>(response_sum_ns) / 1e9 /
         static_cast<double>(records);
}

double WindowTotals::bandwidth_bps(Bytes block_size) const {
  return static_cast<double>(blocks_to_bytes(blocks, block_size)) /
         SimDuration(window_ns).seconds();
}

namespace {

// Heap order for the run-head min-heap (earliest end on top).
constexpr auto end_later = [](const auto& a, const auto& b) {
  return a.end_ns > b.end_ns;
};

}  // namespace

SlidingWindowMetrics::SlidingWindowMetrics(SimDuration window) {
  BPSIO_CHECK(window.ns() > 0, "sliding window length must be positive");
  totals_.window_ns = window.ns();
}

std::int64_t SlidingWindowMetrics::window_start_ns() const {
  // Saturating: with now near the epoch (captured traces start at boot
  // monotonic 0 or huge monotonic values; synthetic tests at small ints),
  // now - W must not wrap below INT64_MIN.
  const std::int64_t now_ns = totals_.now_ns;
  const std::int64_t min_ns = std::numeric_limits<std::int64_t>::min();
  if (now_ns < min_ns + totals_.window_ns) return min_ns;
  return now_ns - totals_.window_ns;
}

void SlidingWindowMetrics::add(std::span<const trace::IoRecord> records) {
  // The window state is a function of the record multiset (the shuffled
  // differential tests prove order-independence), so a batch may advance
  // `now` once, accumulate, union once, and evict once — equivalent to
  // one-record spans in turn, minus all the intermediate searches.
  std::int64_t max_end = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (r.valid() && r.end_ns > max_end) max_end = r.end_ns;
  }
  if (max_end == std::numeric_limits<std::int64_t>::min()) return;
  if (!any_ || max_end > totals_.now_ns) totals_.now_ns = max_end;
  any_ = true;
  const std::int64_t ws = window_start_ns();

  // The batch's live records become one eviction run, and its clipped
  // intervals one sorted batch for the union splice.
  batch_.clear();
  const std::uint32_t run = open_run();
  std::vector<Live>& live = runs_[run].records;
  live.reserve(records.size());
  bool start_ordered = true;
  bool end_ordered = true;
  std::int64_t prev_start = std::numeric_limits<std::int64_t>::min();
  for (const trace::IoRecord& r : records) {
    if (!r.valid() || r.end_ns <= ws) continue;
    if (!live.empty() && r.end_ns < live.back().end_ns) end_ordered = false;
    live.push_back(Live{r.end_ns, r.blocks, r.end_ns - r.start_ns});
    ++totals_.records;
    totals_.blocks += r.blocks;
    totals_.response_sum_ns += live.back().response_ns;
    const std::int64_t clipped_start = std::max(r.start_ns, ws);
    if (r.end_ns > clipped_start) {
      if (clipped_start < prev_start) start_ordered = false;
      prev_start = clipped_start;
      batch_.push_back(trace::TimeInterval{clipped_start, r.end_ns});
    }
  }
  if (live.empty()) {
    free_runs_.push_back(run);
  } else {
    if (!end_ordered) {
      std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
        return a.end_ns < b.end_ns;
      });
    }
    push_head(run);
  }
  if (!batch_.empty()) {
    if (!start_ordered) {
      std::sort(batch_.begin(), batch_.end(),
                [](const trace::TimeInterval& a, const trace::TimeInterval& b) {
                  return a.start_ns < b.start_ns;
                });
    }
    splice(batch_);
  }
  evict();
}

void SlidingWindowMetrics::advance(SimTime now) {
  if (!any_ || now.ns() <= totals_.now_ns) return;
  totals_.now_ns = now.ns();
  evict();
}

std::uint32_t SlidingWindowMetrics::open_run() {
  if (!free_runs_.empty()) {
    const std::uint32_t run = free_runs_.back();
    free_runs_.pop_back();
    return run;
  }
  BPSIO_CHECK(runs_.size() < kNoRun, "sliding window run slots exhausted");
  runs_.emplace_back();
  return static_cast<std::uint32_t>(runs_.size() - 1);
}

void SlidingWindowMetrics::push_head(std::uint32_t run) {
  const Run& r = runs_[run];
  run_heads_.push_back(RunHead{r.records[r.head].end_ns, run});
  std::push_heap(run_heads_.begin(), run_heads_.end(), end_later);
}

void SlidingWindowMetrics::splice(
    std::span<const trace::TimeInterval> sorted) {
  // Hinted batched union: binary-search the first stored run the batch can
  // touch, feed the batch and the stored runs up to the batch's union end,
  // in start order, to the union kernel, and write the result back over
  // that slice. Everything before/after the slice is untouched: stored runs
  // are disjoint and non-touching, so none past the slice can reach it.
  const auto lo = std::lower_bound(
      merged_.begin(), merged_.end(), sorted.front().start_ns,
      [](const trace::TimeInterval& iv, std::int64_t v) {
        return iv.end_ns < v;
      });
  IntervalUnion u;
  union_out_.clear();
  const auto keep = [this](const trace::TimeInterval& run) {
    union_out_.push_back(run);
  };
  std::int64_t removed = 0;
  auto hi = lo;
  const auto take_stored_through = [&](std::int64_t t) {
    for (; hi != merged_.end() && hi->start_ns <= t; ++hi) {
      removed += hi->end_ns - hi->start_ns;
      u.add(*hi, keep);
    }
  };
  for (const trace::TimeInterval& iv : sorted) {
    take_stored_through(iv.start_ns);
    u.add(iv, keep);
  }
  take_stored_through(u.last_run().end_ns);
  totals_.busy_ns += u.measure_ns() - removed;

  if (union_out_.empty()) {
    // The slice and the batch union to one run (always so for a single
    // interval): write it in place, no scratch copy.
    if (lo == hi) {
      merged_.insert(lo, u.last_run());
    } else {
      *lo = u.last_run();
      merged_.erase(lo + 1, hi);
    }
    return;
  }
  union_out_.push_back(u.last_run());
  const auto lo_idx = static_cast<std::size_t>(lo - merged_.begin());
  const auto hi_idx = static_cast<std::size_t>(hi - merged_.begin());
  if (union_out_.size() == hi_idx - lo_idx) {
    std::copy(union_out_.begin(), union_out_.end(),
              merged_.begin() + static_cast<std::ptrdiff_t>(lo_idx));
  } else {
    merged_.erase(lo, hi);
    merged_.insert(merged_.begin() + static_cast<std::ptrdiff_t>(lo_idx),
                   union_out_.begin(), union_out_.end());
  }
}

void SlidingWindowMetrics::evict_runs(std::int64_t ws) {
  // Every run whose oldest record expired: walk its expired prefix, then
  // requeue its new head or recycle the drained slot.
  std::uint64_t gone_records = 0;
  std::uint64_t gone_blocks = 0;
  std::int64_t gone_response_ns = 0;
  while (!run_heads_.empty() && run_heads_.front().end_ns <= ws) {
    std::pop_heap(run_heads_.begin(), run_heads_.end(), end_later);
    const std::uint32_t index = run_heads_.back().run;
    run_heads_.pop_back();
    Run& run = runs_[index];
    while (run.head < run.records.size() &&
           run.records[run.head].end_ns <= ws) {
      const Live& gone = run.records[run.head++];
      ++gone_records;
      gone_blocks += gone.record_blocks;
      gone_response_ns += gone.response_ns;
    }
    if (run.head < run.records.size()) {
      push_head(index);
      continue;
    }
    run.records.clear();
    run.head = 0;
    free_runs_.push_back(index);
  }
  totals_.records -= gone_records;
  totals_.blocks -= gone_blocks;
  totals_.response_sum_ns -= gone_response_ns;
}

void SlidingWindowMetrics::evict() {
  const std::int64_t ws = window_start_ns();
  if (!run_heads_.empty() && run_heads_.front().end_ns <= ws) evict_runs(ws);
  // Clip the merged union at the window's left edge: drop fully-expired
  // intervals in one erase, clamp the straddler in place.
  std::size_t drop = 0;
  while (drop < merged_.size() && merged_[drop].end_ns <= ws) {
    totals_.busy_ns -= merged_[drop].end_ns - merged_[drop].start_ns;
    ++drop;
  }
  if (drop > 0) {
    merged_.erase(merged_.begin(),
                  merged_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  if (!merged_.empty() && merged_.front().start_ns < ws) {
    totals_.busy_ns -= ws - merged_.front().start_ns;
    merged_.front().start_ns = ws;
  }
}

void SlidingWindowMetrics::reset() { *this = SlidingWindowMetrics(window()); }

WindowTotals combined_totals(
    std::span<const WindowTotals> keys,
    std::span<const std::span<const trace::TimeInterval>> runs,
    SimDuration window) {
  WindowTotals all;
  all.window_ns = window.ns();
  if (keys.empty()) return all;
  if (keys.size() == 1) return keys.front();
  all.now_ns = keys.front().now_ns;
  for (const WindowTotals& key : keys) {
    all.records += key.records;
    all.blocks += key.blocks;
    all.response_sum_ns += key.response_sum_ns;
    all.now_ns = std::max(all.now_ns, key.now_ns);
  }
  BPSIO_CHECK(runs.size() == keys.size(),
              "combined window needs every key's busy runs (%zu of %zu)",
              runs.size(), keys.size());
  // k-way merge in start order: a min-heap of the lists' unread rests,
  // keyed on each rest's first run.
  std::vector<std::span<const trace::TimeInterval>> rest;
  for (const auto& list : runs) {
    if (!list.empty()) rest.push_back(list);
  }
  const auto starts_later = [](const auto& a, const auto& b) {
    return a.front().start_ns > b.front().start_ns;
  };
  std::make_heap(rest.begin(), rest.end(), starts_later);
  IntervalUnion u;
  while (!rest.empty()) {
    std::pop_heap(rest.begin(), rest.end(), starts_later);
    u.add(rest.back().front());
    rest.back() = rest.back().subspan(1);
    if (rest.back().empty()) {
      rest.pop_back();
    } else {
      std::push_heap(rest.begin(), rest.end(), starts_later);
    }
  }
  all.busy_ns = u.measure_ns();
  return all;
}

std::string OnlineBpsCounter::to_string(SimTime now) const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "online BPS=%.6g (B=%llu, T=%.6gs, in-flight=%u)", bps(now),
                static_cast<unsigned long long>(blocks_),
                busy_time(now).seconds(), active_);
  return buf;
}

}  // namespace bpsio::metrics
