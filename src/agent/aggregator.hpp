// Live metric aggregation for bpsio_agentd.
//
// The daemon end of the paper's "global collection" (Section III.B): every
// frame a capture client ships lands here record by record. The aggregator
// keeps
//
//   * lifetime totals (records, blocks, failed/sync accesses) — exact
//     counters over everything ever received, and
//   * one sliding window (metrics/online.hpp) per pid seen, so /metrics
//     answers "what is BPS right now" instead of "what was BPS over the
//     whole run".
// The pid="all" row is derived at render (metrics::combined_totals()).
//
// Timestamps are CLOCK_MONOTONIC ns (common/wallclock.hpp), shared by every
// process on the machine, so records from different clients interleave on
// one meaningful time axis and advance(monotonic_ns()) keeps the windows
// sliding while traffic is idle.
//
// The aggregator is deliberately single-threaded (the daemon's poll() loop
// owns it); it does no I/O and never blocks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "agent/forward.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "ingest/exposition.hpp"
#include "ingest/node.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::agent {

class MetricAggregator {
 public:
  MetricAggregator(SimDuration window, Bytes block_size);

  /// Ingest one frame's records (any arrival order across clients).
  /// Invalid records (end < start) are counted in invalid_total() and
  /// otherwise ignored — a live daemon must not die on one malformed
  /// producer. The span is grouped into maximal same-pid runs, each run
  /// costing one per-pid window lookup and one span-batch add().
  void add(std::span<const trace::IoRecord> records);

  /// Slide every window forward to one right edge: `now` (monotonic ns),
  /// or the latest pid window's own edge when that is later.
  void advance(SimTime now);

  std::uint64_t records_total() const { return totals_.records_total; }
  std::uint64_t blocks_total() const { return totals_.blocks_total; }
  std::uint64_t failed_total() const { return totals_.failed_total; }
  std::uint64_t sync_total() const { return totals_.sync_total; }
  std::uint64_t invalid_total() const { return totals_.invalid_total; }
  std::uint64_t pids_seen() const { return per_pid_.size(); }
  SimDuration window() const { return window_; }

  /// The pid="all" window. Like the renders below, it first advances every
  /// pid window to the latest pid's edge, so every row has one window.
  metrics::WindowTotals global();

  /// Prometheus plaintext exposition (text/plain; version 0.0.4): lifetime
  /// and transport counters, forwarding figures when `forward.enabled`,
  /// and per-window gauges labelled
  /// pid="all" plus one label set per pid.
  std::string prometheus_text(const ingest::Counters& transport,
                              const ForwardStats& forward = {});

  /// CSV snapshot: one row per pid plus an "all" row, same windowed figures
  /// as /metrics. Written periodically by the daemon when --csv is given.
  std::string csv_snapshot();

 private:
  metrics::SlidingWindowMetrics& window_for(std::uint32_t pid);

  SimDuration window_;
  Bytes block_size_;
  std::map<std::uint32_t, metrics::SlidingWindowMetrics> per_pid_;
  ingest::LifetimeCounters totals_;
};

}  // namespace bpsio::agent
