// Single-pass metric pipeline — the push side of the streaming architecture.
//
// A MetricPipeline pulls ordered record chunks from a trace::RecordSource
// and pushes them through attached MetricConsumers, computing a full
// MetricSample in one pass and O(chunk + concurrency) memory. The overlap
// consumer feeds the ordered intervals to the interval-union kernel
// (interval_union.hpp), so T is the exact integer union measure the batch
// algorithms compute; B, ARPT and peak concurrency accumulate in integers.
// Every accumulator is either order-independent (integer sums) or consumes
// the canonical (start, end) order, which is why the streaming path is
// bit-identical to the batch path — the differential tests in
// tests/test_metric_pipeline.cpp assert it.
//
//   sources (trace/record_source.hpp)        consumers (this header)
//   ---------------------------------        -----------------------------
//   VectorSource / collector_source   \      BlocksConsumer        -> B
//   SpilledTraceSource                 } ->  OverlapConsumer       -> T, peak
//   MergedSource (k-way)              /      ArptConsumer          -> ARPT
//   FilteredSource                           Histogram/ForEach/... -> tails
//                                            TimelineConsumer      -> windows
//                                     MetricPipeline::run() -> MetricSample
//
// The legacy batch entry points (measure_run, bps, arpt, BpsMeter::measure,
// build_timeline, latency_summary, ...) are thin adapters over this pipeline
// via collector_source()/collector_view(), so both paths run the same code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "metrics/calculators.hpp"
#include "metrics/interval_union.hpp"
#include "metrics/timeline.hpp"
#include "stats/histogram.hpp"
#include "trace/record_source.hpp"

namespace bpsio::metrics {

/// Sink interface: receives ordered record chunks, then one finish() call.
class MetricConsumer {
 public:
  virtual ~MetricConsumer() = default;

  /// One chunk of the stream. Records across consume() calls are in
  /// nondecreasing (start_ns, end_ns) order unless the driving pipeline ran
  /// with check_order(false) (only valid for order-insensitive consumers).
  virtual void consume(std::span<const trace::IoRecord> chunk) = 0;

  /// The stream is exhausted; flush any open state.
  virtual void finish() {}
};

/// B accumulator: exact integer record and block counts (unsigned addition
/// is associative, so the result is independent of chunking and order).
class BlocksConsumer final : public MetricConsumer {
 public:
  void consume(std::span<const trace::IoRecord> chunk) override;

  std::uint64_t record_count() const { return records_; }
  std::uint64_t blocks() const { return blocks_; }
  Bytes bytes(Bytes block_size = kDefaultBlockSize) const {
    return blocks_to_bytes(blocks_, block_size);
  }

 private:
  std::uint64_t records_ = 0;
  std::uint64_t blocks_ = 0;
};

/// ARPT accumulator: integer-ns response-time total in 128-bit arithmetic,
/// divided once at the end — exact and order-independent, unlike a running
/// double sum (which is why the batch arpt() adapter also runs on this).
class ArptConsumer final : public MetricConsumer {
 public:
#ifdef __SIZEOF_INT128__
  using TotalNs = __int128;
#else
  using TotalNs = std::int64_t;  // ~292 years of summed response time
#endif

  void consume(std::span<const trace::IoRecord> chunk) override;

  std::uint64_t count() const { return count_; }
  /// Mean response time in seconds; 0 for an empty stream.
  double arpt_s() const;

 private:
  std::uint64_t count_ = 0;
  TotalNs total_ns_ = 0;
};

namespace detail {

/// Streaming interval sweep — the OnlineBpsCounter transition logic over a
/// min-heap of pending end times. Feed [s, e) intervals with nondecreasing
/// s; tracks the active count and its peak, and hands every maximal
/// constant-concurrency segment to the caller's `on_segment(t0, t1, level)`
/// (level >= 1) in chronological order. Ends retire before a start at the
/// same timestamp, matching the batch event sweep's "-1 before +1" tie rule.
/// Zero-length intervals must be skipped by the caller, as the batch sweeps
/// do. The callback is a template parameter, so the peak-only sweep compiles
/// to the count update alone.
class IntervalSweep {
 public:
  template <typename OnSegment>
  void add(std::int64_t start_ns, std::int64_t end_ns,
           OnSegment&& on_segment) {
    retire_through(start_ns, on_segment);
    if (active_ > 0 && start_ns > prev_) on_segment(prev_, start_ns, active_);
    prev_ = start_ns;
    peak_ = std::max(peak_, ++active_);
    ends_.push_back(end_ns);
    std::push_heap(ends_.begin(), ends_.end(), std::greater<>{});
  }
  void add(std::int64_t start_ns, std::int64_t end_ns) {
    add(start_ns, end_ns, [](std::int64_t, std::int64_t, std::size_t) {});
  }

  /// Retire every pending end.
  template <typename OnSegment>
  void finish(OnSegment&& on_segment) {
    retire_through(std::numeric_limits<std::int64_t>::max(), on_segment);
  }
  void finish() {
    finish([](std::int64_t, std::int64_t, std::size_t) {});
  }

  std::size_t peak() const { return peak_; }

 private:
  /// Retire every pending end <= t, in increasing time order.
  template <typename OnSegment>
  void retire_through(std::int64_t t, OnSegment& on_segment) {
    while (!ends_.empty() && ends_.front() <= t) {
      const std::int64_t end = ends_.front();
      std::pop_heap(ends_.begin(), ends_.end(), std::greater<>{});
      ends_.pop_back();
      if (end > prev_) on_segment(prev_, end, active_);
      prev_ = end;
      --active_;
    }
  }

  std::vector<std::int64_t> ends_;  ///< pending end times, min-heap
  std::size_t active_ = 0;
  std::size_t peak_ = 0;
  std::int64_t prev_ = 0;
};

}  // namespace detail

/// T accumulator: exact integer union measure of the access intervals, plus
/// the span statistics of the same stream (peak and average concurrency,
/// idle time). When a filter window is given, intervals are clamped to it
/// exactly as TraceCollector::col_time() clamps — blocks are never clamped,
/// only time is.
class OverlapConsumer final : public MetricConsumer {
 public:
  OverlapConsumer() = default;
  /// Adopts the filter's window bounds (the other predicate fields are the
  /// FilteredSource/FilteredConsumer's job, not this consumer's).
  explicit OverlapConsumer(const trace::RecordFilter& filter)
      : window_start_(filter.window_start_ns),
        window_end_(filter.window_end_ns) {}

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;

  /// T over everything consumed so far.
  SimDuration io_time() const { return SimDuration(union_.measure_ns()); }
  /// Only valid after finish().
  std::size_t peak_concurrency() const { return sweep_.peak(); }
  /// sum(interval lengths) / T; 0 when T is 0.
  double avg_concurrency() const;
  /// Span of the (clamped) intervals minus T; 0 for an empty stream.
  SimDuration idle_time() const;

 private:
  std::optional<std::int64_t> window_start_;
  std::optional<std::int64_t> window_end_;
  IntervalUnion union_;
  detail::IntervalSweep sweep_;  ///< peak concurrency only
  bool any_interval_ = false;
  std::int64_t sum_len_ns_ = 0;
  std::int64_t lo_ns_ = 0;
  std::int64_t hi_ns_ = 0;
};

/// Distinct-pid counter (BpsReading::processes).
class ProcessCountConsumer final : public MetricConsumer {
 public:
  void consume(std::span<const trace::IoRecord> chunk) override;
  std::size_t process_count() const { return pids_.size(); }

 private:
  std::unordered_set<std::uint32_t> pids_;
};

/// Adds each record's response time (seconds) to a caller-owned histogram.
class HistogramConsumer final : public MetricConsumer {
 public:
  explicit HistogramConsumer(stats::LogHistogram& hist) : hist_(&hist) {}
  void consume(std::span<const trace::IoRecord> chunk) override;

 private:
  stats::LogHistogram* hist_;
};

/// Time-at-concurrency-level profile (metrics::concurrency_profile), driven
/// by the same chronological sweep as the batch event sort — the double
/// accumulation happens in the identical order, hence identical results.
class ConcurrencyProfileConsumer final : public MetricConsumer {
 public:
  ConcurrencyProfileConsumer() = default;
  explicit ConcurrencyProfileConsumer(const trace::RecordFilter& filter)
      : window_start_(filter.window_start_ns),
        window_end_(filter.window_end_ns) {}

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;

  /// Normalized time-at-level fractions — only valid after finish().
  const std::vector<double>& profile() const { return at_level_; }

 private:
  /// Adds one sweep segment [t0, t1) at `level` to the profile.
  void add_segment(std::int64_t t0, std::int64_t t1, std::size_t level);

  std::optional<std::int64_t> window_start_;
  std::optional<std::int64_t> window_end_;
  detail::IntervalSweep sweep_;
  std::vector<double> at_level_;
  double busy_total_ = 0;
};

/// Windowed timeline builder (metrics::build_timeline) with O(windows)
/// state: one interval-union kernel per window instead of per-window
/// interval lists. Window bounds default to the stream's span; explicit
/// bounds come from the analysis filter.
class TimelineConsumer final : public MetricConsumer {
 public:
  TimelineConsumer(SimDuration window,
                   std::optional<std::int64_t> lo = std::nullopt,
                   std::optional<std::int64_t> hi = std::nullopt);

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override;

  /// The finished timeline — only valid after finish(); moves it out.
  Timeline take() { return std::move(timeline_); }

 private:
  /// One window's clipped intervals: their union and their total length.
  struct WindowBusy {
    IntervalUnion busy;
    std::int64_t sum_len_ns = 0;
  };

  void ensure_windows(std::size_t count);

  std::int64_t window_ns_;
  std::optional<std::int64_t> lo_override_;
  std::optional<std::int64_t> hi_override_;
  std::int64_t lo_ = 0;
  std::int64_t max_end_ = 0;
  bool any_ = false;
  Timeline timeline_;
  std::vector<WindowBusy> busy_;
};

/// Applies an arbitrary callback per record — the escape hatch for analyses
/// that genuinely need every record (e.g. exact percentiles).
class ForEachConsumer final : public MetricConsumer {
 public:
  explicit ForEachConsumer(std::function<void(const trace::IoRecord&)> fn)
      : fn_(std::move(fn)) {}
  void consume(std::span<const trace::IoRecord> chunk) override;

 private:
  std::function<void(const trace::IoRecord&)> fn_;
};

/// Forwards only the records matching a RecordFilter to an inner consumer —
/// the consumer-side twin of trace::FilteredSource, for driving filtered and
/// unfiltered consumers off one stream in a single pass.
class FilteredConsumer final : public MetricConsumer {
 public:
  FilteredConsumer(trace::RecordFilter filter, MetricConsumer& inner)
      : filter_(std::move(filter)), inner_(&inner) {}

  void consume(std::span<const trace::IoRecord> chunk) override;
  void finish() override { inner_->finish(); }

 private:
  trace::RecordFilter filter_;
  MetricConsumer* inner_;
  std::vector<trace::IoRecord> buf_;
};

/// Drives one source through the attached consumers in a single pass.
class MetricPipeline {
 public:
  /// Attach a consumer (not owned; must outlive run()).
  MetricPipeline& attach(MetricConsumer& consumer);

  /// Verify the stream is in nondecreasing (start, end) order (default on).
  /// Disable only when every attached consumer is order-independent (counts,
  /// ARPT, latency, histograms) — the overlap/timeline consumers are not.
  MetricPipeline& check_order(bool enabled);

  /// Pull the source dry, pushing each chunk through every consumer, then
  /// finish() them. Fails on an unordered stream or a failed source;
  /// consumer state is unspecified after a failure.
  Status run(trace::RecordSource& source);

  std::uint64_t records_processed() const { return processed_; }

 private:
  std::vector<MetricConsumer*> consumers_;
  bool check_order_ = true;
  std::uint64_t processed_ = 0;
};

/// Compute a full MetricSample from an ordered record stream in one pass and
/// bounded memory — the streaming equivalent of measure_run(). T is the
/// integer union measure every overlap implementation computes (see
/// overlap.hpp); the differential tests assert equality against the Figure-3
/// transcription and the sort-and-merge.
Result<MetricSample> measure_stream(trace::RecordSource& source,
                                    Bytes moved_bytes, SimDuration exec_time,
                                    Bytes block_size = kDefaultBlockSize);

}  // namespace bpsio::metrics
