// The interval-union kernel: every ordered computation of T (the measure of
// the union of [start, end) access intervals, Figure 3) runs on this loop.
//
// Intervals arrive in nondecreasing start order. The kernel keeps one open
// run; an interval that overlaps or touches it extends it, any other closes
// it (reporting the closed run to the caller's sink) and opens the next.
// measure_ns() is the exact integer union measure of everything added so far.
// merge_intervals, OverlapConsumer, TimelineConsumer, bpsio_report's per-pid
// T, SlidingWindowMetrics' splice and combined_totals' k-way merge of the
// per-key windows all use it; overlap_time_paper (the
// Figure-3 transcription) and overlap_time_bruteforce stay separate as the
// reference and the oracle the kernel is tested against.
#pragma once

#include <algorithm>
#include <cstdint>

#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

class IntervalUnion {
 public:
  /// Add `iv`, which must start no earlier than every interval added before.
  /// `on_close(run)` receives the run this closes, if any.
  template <typename OnClose>
  void add(const trace::TimeInterval& iv, OnClose&& on_close) {
    if (open_ && iv.start_ns <= run_.end_ns) {
      run_.end_ns = std::max(run_.end_ns, iv.end_ns);
      return;
    }
    if (open_) {
      closed_ns_ += run_.end_ns - run_.start_ns;
      on_close(run_);
    }
    run_ = iv;
    open_ = true;
  }
  void add(const trace::TimeInterval& iv) {
    add(iv, [](const trace::TimeInterval&) {});
  }

  /// True once an interval has been added.
  bool any() const { return open_; }
  /// The open run: the union's last run so far (valid when any()).
  const trace::TimeInterval& last_run() const { return run_; }
  /// Union measure of every interval added so far.
  std::int64_t measure_ns() const {
    return open_ ? closed_ns_ + (run_.end_ns - run_.start_ns) : closed_ns_;
  }

 private:
  trace::TimeInterval run_{};
  std::int64_t closed_ns_ = 0;
  bool open_ = false;
};

}  // namespace bpsio::metrics
