#include "metrics/online.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "common/log.hpp"

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

// Heap order for the run-head and single-record min-heaps (earliest end on
// top).
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

void SlidingWindowMetrics::count_in(const Live& live) {
  ++totals_.records;
  totals_.blocks += live.record_blocks;
  totals_.response_sum_ns += live.response_ns;
}

void SlidingWindowMetrics::add(const trace::IoRecord& record) {
  if (!record.valid()) return;  // end < start: never corrupt the union
  if (!any_ || record.end_ns > totals_.now_ns) totals_.now_ns = record.end_ns;
  any_ = true;
  const std::int64_t ws = window_start_ns();
  if (record.end_ns <= ws) {
    evict();  // a late record older than the window changes nothing
    return;
  }
  const Live live{record.end_ns, record.blocks,
                  record.end_ns - record.start_ns};
  count_in(live);
  singles_.push_back(live);
  std::push_heap(singles_.begin(), singles_.end(), end_later);
  const std::int64_t clipped_start = std::max(record.start_ns, ws);
  if (record.end_ns > clipped_start) {
    insert_interval(clipped_start, record.end_ns);
  }
  evict();
}

void SlidingWindowMetrics::add(std::span<const trace::IoRecord> records) {
  // The window state is a function of the record multiset (the shuffled
  // differential tests prove order-independence), so a batch may advance
  // `now` once, accumulate, union once, and evict once — equivalent to the
  // per-record loop, minus all the intermediate searches.
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
    count_in(live.back());
    const std::int64_t clipped_start = std::max(r.start_ns, ws);
    if (r.end_ns > clipped_start) {
      if (clipped_start < prev_start) start_ordered = false;
      prev_start = clipped_start;
      batch_.push_back(BusyInterval{clipped_start, r.end_ns});
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
                [](const BusyInterval& a, const BusyInterval& b) {
                  return a.start_ns < b.start_ns;
                });
    }
    // Coalesce overlapping/touching neighbours in place: a start-ordered
    // frame collapses to a handful of disjoint runs.
    std::size_t w = 0;
    for (std::size_t i = 1; i < batch_.size(); ++i) {
      if (batch_[i].start_ns <= batch_[w].end_ns) {
        batch_[w].end_ns = std::max(batch_[w].end_ns, batch_[i].end_ns);
      } else {
        batch_[++w] = batch_[i];
      }
    }
    batch_.resize(w + 1);
    insert_runs();
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

void SlidingWindowMetrics::insert_interval(std::int64_t start_ns,
                                           std::int64_t end_ns) {
  // Merge [start, end) into the disjoint set; absorb every interval it
  // overlaps or touches, keeping totals_.busy_ns the exact total measure.
  auto it = std::lower_bound(merged_.begin(), merged_.end(), start_ns,
                             [](const BusyInterval& iv, std::int64_t v) {
                               return iv.end_ns < v;
                             });
  auto last = it;
  while (last != merged_.end() && last->start_ns <= end_ns) {
    start_ns = std::min(start_ns, last->start_ns);
    end_ns = std::max(end_ns, last->end_ns);
    totals_.busy_ns -= last->end_ns - last->start_ns;
    ++last;
  }
  if (it == last) {
    merged_.insert(it, BusyInterval{start_ns, end_ns});
  } else {
    it->start_ns = start_ns;
    it->end_ns = end_ns;
    merged_.erase(it + 1, last);
  }
  totals_.busy_ns += end_ns - start_ns;
}

void SlidingWindowMetrics::insert_runs() {
  // Hinted batched union: binary-search the slice of merged_ that the batch
  // can touch, two-pointer union both sorted lists into a scratch, splice
  // the result back. Everything before/after the slice is untouched.
  const auto lo = std::lower_bound(merged_.begin(), merged_.end(),
                                   batch_.front().start_ns,
                                   [](const BusyInterval& iv, std::int64_t v) {
                                     return iv.end_ns < v;
                                   });
  const auto hi = std::upper_bound(lo, merged_.end(), batch_.back().end_ns,
                                   [](std::int64_t v, const BusyInterval& iv) {
                                     return v < iv.start_ns;
                                   });
  std::int64_t removed = 0;
  for (auto it = lo; it != hi; ++it) removed += it->end_ns - it->start_ns;

  union_out_.clear();
  const auto push = [this](const BusyInterval& iv) {
    if (!union_out_.empty() && iv.start_ns <= union_out_.back().end_ns) {
      union_out_.back().end_ns =
          std::max(union_out_.back().end_ns, iv.end_ns);
    } else {
      union_out_.push_back(iv);
    }
  };
  auto a = lo;
  std::size_t b = 0;
  while (a != hi || b < batch_.size()) {
    if (b >= batch_.size() ||
        (a != hi && a->start_ns <= batch_[b].start_ns)) {
      push(*a++);
    } else {
      push(batch_[b++]);
    }
  }
  std::int64_t added = 0;
  for (const BusyInterval& iv : union_out_) added += iv.end_ns - iv.start_ns;
  totals_.busy_ns += added - removed;

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
  while (!singles_.empty() && singles_.front().end_ns <= ws) {
    std::pop_heap(singles_.begin(), singles_.end(), end_later);
    const Live& gone = singles_.back();
    --totals_.records;
    totals_.blocks -= gone.record_blocks;
    totals_.response_sum_ns -= gone.response_ns;
    singles_.pop_back();
  }
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

std::string OnlineBpsCounter::to_string(SimTime now) const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "online BPS=%.6g (B=%llu, T=%.6gs, in-flight=%u)", bps(now),
                static_cast<unsigned long long>(blocks_),
                busy_time(now).seconds(), active_);
  return buf;
}

}  // namespace bpsio::metrics
