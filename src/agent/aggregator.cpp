#include "agent/aggregator.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace bpsio::agent {

MetricAggregator::MetricAggregator(SimDuration window, Bytes block_size)
    : window_(window), block_size_(block_size) {
  BPSIO_CHECK(block_size > 0, "aggregator block size must be positive, got %llu",
              static_cast<unsigned long long>(block_size));
}

metrics::SlidingWindowMetrics& MetricAggregator::window_for(std::uint32_t pid) {
  return per_pid_.try_emplace(pid, window_).first->second;
}

void MetricAggregator::add(std::span<const trace::IoRecord> records) {
  std::size_t i = 0;
  while (i < records.size()) {
    const std::uint32_t pid = records[i].pid;
    std::size_t j = i + 1;
    while (j < records.size() && records[j].pid == pid) ++j;
    const auto run = records.subspan(i, j - i);
    // A run of only invalid records must not conjure a per-pid window.
    if (totals_.count(run) > 0) window_for(pid).add(run);
    i = j;
  }
}

void MetricAggregator::advance(SimTime now) {
  SimTime edge = now;
  for (const auto& [pid, w] : per_pid_) edge = std::max(edge, w.now());
  for (auto& [pid, w] : per_pid_) w.advance(edge);
}

metrics::WindowTotals MetricAggregator::global() {
  advance(SimTime(std::numeric_limits<std::int64_t>::min()));
  std::vector<metrics::WindowTotals> keys;
  std::vector<std::span<const trace::TimeInterval>> runs;
  for (const auto& [pid, w] : per_pid_) {
    keys.push_back(w.totals());
    if (per_pid_.size() > 1) runs.push_back(w.busy_runs());
  }
  return metrics::combined_totals(keys, runs, window_);
}

std::string MetricAggregator::prometheus_text(
    const ingest::Counters& transport, const ForwardStats& forward) {
  const metrics::WindowTotals all = global();
  using ingest::metric;
  std::string out;
  out.reserve(2048 + per_pid_.size() * 512);
  metric(out, "bpsio_records_total", "counter",
         "I/O access records received.", totals_.records_total);
  metric(out, "bpsio_blocks_total", "counter",
         "Application-required blocks received (B).", totals_.blocks_total);
  metric(out, "bpsio_failed_records_total", "counter",
         "Records flagged as failed accesses (still counted in B).",
         totals_.failed_total);
  metric(out, "bpsio_sync_records_total", "counter",
         "fsync/fdatasync records (zero-block, time-only).",
         totals_.sync_total);
  metric(out, "bpsio_invalid_records_total", "counter",
         "Records rejected (end < start).", totals_.invalid_total);
  metric(out, "bpsio_clients_connected_total", "counter",
         "Capture connections accepted.", transport.connected_total);
  metric(out, "bpsio_clients_active", "gauge",
         "Capture connections currently open.", transport.active);
  metric(out, "bpsio_frames_total", "counter",
         "Complete record frames decoded.", transport.frames_total);
  metric(out, "bpsio_bad_frames_total", "counter",
         "Connections dropped on a malformed frame.",
         transport.bad_frames_total);
  if (forward.enabled) {
    metric(out, "bpsio_forward_frames_total", "counter",
           "Tagged frames shipped to the upstream collector.",
           forward.frames_forwarded);
    metric(out, "bpsio_forward_records_total", "counter",
           "Records shipped upstream.", forward.records_forwarded);
    metric(out, "bpsio_forward_spilled_records_total", "counter",
           "Records diverted to the forward spill fallback.",
           forward.records_spilled);
    metric(out, "bpsio_forward_dropped_records_total", "counter",
           "Records dropped with no upstream and no spill dir.",
           forward.records_dropped);
  }
  metric(out, "bpsio_pids_seen", "gauge", "Distinct process ids observed.",
         per_pid_.size());
  ingest::window_settings(out, window_, block_size_);
  ingest::family(out, "bpsio_window_bps", "gauge",
                 "Windowed BPS (blocks per second of busy time) per pid; "
                 "pid=\"all\" is the global stream.");
  ingest::window_gauges(out, "pid", "all", {all, block_size_});
  for (const auto& [pid, w] : per_pid_) {
    ingest::window_gauges(out, "pid", std::to_string(pid),
                          {w.totals(), block_size_});
  }
  return out;
}

std::string MetricAggregator::csv_snapshot() {
  std::string out =
      "pid,window_records,window_blocks,window_io_s,window_bps,window_iops,"
      "window_bw_Bps,window_arpt_s\n";
  const auto row = [&](const std::string& label,
                       const metrics::WindowTotals& w) {
    out += label;
    ingest::csv_cells(out, {w, block_size_});
    out += "\n";
  };
  row("all", global());
  for (const auto& [pid, w] : per_pid_) row(std::to_string(pid), w.totals());
  return out;
}

}  // namespace bpsio::agent
