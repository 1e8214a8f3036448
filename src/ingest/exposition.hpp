// Per-key figures both ingest roles keep and export, and their rendering.
//
// The agent keys its live metrics by pid, the collector by tenant; beyond
// that label key they keep the same figures per key — exact lifetime
// counters plus one sliding window — and print them in the same Prometheus
// plaintext and CSV shapes. This header is the one copy of those counters
// and formatters; agent/aggregator.cpp and collector/tenant_shards.cpp
// decide only which families they emit and in what order. Scrapers (the CI
// awk assertions, e2ebench/run.py) parse these names, so tests pin the
// rendered bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::ingest {

/// Exact counters over every record ever ingested under one key.
struct LifetimeCounters {
  std::uint64_t records_total = 0;  ///< valid records
  std::uint64_t blocks_total = 0;   ///< B; failed accesses still count
  std::uint64_t failed_total = 0;
  std::uint64_t sync_total = 0;
  std::uint64_t invalid_total = 0;  ///< rejected (end < start), else ignored

  /// Count every record of `records`; returns how many were valid.
  std::uint64_t count(std::span<const trace::IoRecord> records);

  LifetimeCounters& operator+=(const LifetimeCounters& other);
};

/// One sliding window's exported figures, read off a window (or a copy of
/// one taken under a lock, so the accessors run outside it).
struct WindowFigures {
  WindowFigures(const metrics::SlidingWindowMetrics& w, Bytes block_size);

  std::uint64_t records;
  std::uint64_t blocks;
  double io_s;
  double bps;
  double iops;
  double bw_bps;
  double arpt_s;
};

/// "# HELP <name> <help>" and "# TYPE <name> <type>" lines.
void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help);

/// A family with its one unlabelled sample.
void metric(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, std::uint64_t value);
void metric(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, const std::string& value);

/// The bpsio_window_seconds and bpsio_block_size_bytes gauges.
void window_settings(std::string& out, SimDuration window, Bytes block_size);

/// The five lifetime counter samples labelled {<key>="<label>"}.
void lifetime_samples(std::string& out, std::string_view key,
                      std::string_view label, const LifetimeCounters& c);

/// The seven bpsio_window_* gauge samples labelled {<key>="<label>"}.
void window_gauges(std::string& out, std::string_view key,
                   std::string_view label, const WindowFigures& w);

/// The window figures as seven CSV cells, each preceded by a comma.
void csv_cells(std::string& out, const WindowFigures& w);

}  // namespace bpsio::ingest
