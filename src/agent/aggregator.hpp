// Live metric aggregation for bpsio_agentd.
//
// The daemon end of the paper's "global collection" (Section III.B): every
// frame a capture client ships lands here record by record. The aggregator
// keeps
//
//   * lifetime totals (records, blocks, failed/sync accesses) — exact
//     counters over everything ever received, and
//   * sliding-window online metrics (metrics/online.hpp) for the global
//     stream and for each pid seen, so /metrics answers "what is BPS right
//     now" instead of "what was BPS over the whole run".
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
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::agent {

/// Transport-side counters the server owns but /metrics reports alongside
/// the record metrics.
struct TransportStats {
  std::uint64_t clients_connected_total = 0;  ///< accepted connections ever
  std::uint64_t clients_active = 0;           ///< currently-open connections
  std::uint64_t frames_total = 0;             ///< complete frames decoded
  std::uint64_t bad_frames_total = 0;         ///< connections killed on a bad frame
  /// Upstream forwarding figures (agent/forward.hpp); only exported when
  /// forward.enabled (the daemon was started with --forward).
  ForwardStats forward;
};

class MetricAggregator {
 public:
  MetricAggregator(SimDuration window, Bytes block_size);

  /// Ingest one record (any arrival order across clients). Invalid records
  /// (end < start) are counted in invalid_total() and otherwise ignored —
  /// a live daemon must not die on one malformed producer.
  void add(const trace::IoRecord& record);

  /// Batch ingest of one frame's records — same final state as add()-ing
  /// each in turn. A capture client batches per thread, so a frame is
  /// usually one pid's ordered burst: the span is grouped into maximal
  /// same-pid runs, each run costing one per-pid window lookup instead of
  /// one per record, and the windows take whole runs through their own
  /// span-batch add().
  void add(std::span<const trace::IoRecord> records);

  /// Slide every window forward to `now` (monotonic ns). No-op for windows
  /// already past it.
  void advance(SimTime now);

  std::uint64_t records_total() const { return totals_.records_total; }
  std::uint64_t blocks_total() const { return totals_.blocks_total; }
  std::uint64_t failed_total() const { return totals_.failed_total; }
  std::uint64_t sync_total() const { return totals_.sync_total; }
  std::uint64_t invalid_total() const { return totals_.invalid_total; }
  std::uint64_t pids_seen() const { return per_pid_.size(); }
  SimDuration window() const { return window_; }

  const metrics::SlidingWindowMetrics& global() const { return global_; }

  /// Prometheus plaintext exposition (text/plain; version 0.0.4): lifetime
  /// counters, transport stats, and per-window gauges labelled
  /// pid="all" plus one label set per pid.
  std::string prometheus_text(const TransportStats& transport) const;

  /// CSV snapshot: one row per pid plus an "all" row, same windowed figures
  /// as /metrics. Written periodically by the daemon when --csv is given.
  std::string csv_snapshot() const;

 private:
  metrics::SlidingWindowMetrics& window_for(std::uint32_t pid);

  SimDuration window_;
  Bytes block_size_;
  metrics::SlidingWindowMetrics global_;
  std::map<std::uint32_t, metrics::SlidingWindowMetrics> per_pid_;
  ingest::LifetimeCounters totals_;
};

}  // namespace bpsio::agent
