#include "ingest/exposition.hpp"

#include "common/format.hpp"

namespace bpsio::ingest {
namespace {

std::string labels(std::string_view key, std::string_view label) {
  std::string tag = "{";
  tag += key;
  tag += "=\"";
  tag += label;
  tag += "\"}";
  return tag;
}

void sample(std::string& out, std::string_view name, const std::string& tag,
            const std::string& value) {
  out += name;
  out += tag + " " + value + "\n";
}

}  // namespace

std::uint64_t LifetimeCounters::count(
    std::span<const trace::IoRecord> records) {
  LifetimeCounters delta;
  for (const trace::IoRecord& r : records) {
    if (!r.valid()) {
      ++delta.invalid_total;
      continue;
    }
    ++delta.records_total;
    delta.blocks_total += r.blocks;
    if (r.failed()) ++delta.failed_total;
    if (r.sync()) ++delta.sync_total;
  }
  *this += delta;
  return delta.records_total;
}

LifetimeCounters& LifetimeCounters::operator+=(const LifetimeCounters& other) {
  records_total += other.records_total;
  blocks_total += other.blocks_total;
  failed_total += other.failed_total;
  sync_total += other.sync_total;
  invalid_total += other.invalid_total;
  return *this;
}

WindowFigures::WindowFigures(const metrics::WindowTotals& w, Bytes block_size)
    : records(w.records),
      blocks(w.blocks),
      io_s(SimDuration(w.busy_ns).seconds()),
      bps(w.bps()),
      iops(w.iops()),
      bw_bps(w.bandwidth_bps(block_size)),
      arpt_s(w.arpt_s()) {}

void family(std::string& out, std::string_view name, std::string_view type,
            std::string_view help) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " ";
  out += type;
  out += "\n";
}

void metric(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, std::uint64_t value) {
  metric(out, name, type, help, std::to_string(value));
}

void metric(std::string& out, std::string_view name, std::string_view type,
            std::string_view help, const std::string& value) {
  family(out, name, type, help);
  sample(out, name, "", value);
}

void window_settings(std::string& out, SimDuration window, Bytes block_size) {
  metric(out, "bpsio_window_seconds", "gauge", "Sliding-window length.",
         fmt_double(window.seconds(), 3));
  metric(out, "bpsio_block_size_bytes", "gauge",
         "Block unit used for bandwidth.", std::uint64_t{block_size});
}

void lifetime_samples(std::string& out, std::string_view key,
                      std::string_view label, const LifetimeCounters& c) {
  const std::string tag = labels(key, label);
  sample(out, "bpsio_records_total", tag, std::to_string(c.records_total));
  sample(out, "bpsio_blocks_total", tag, std::to_string(c.blocks_total));
  sample(out, "bpsio_failed_records_total", tag,
         std::to_string(c.failed_total));
  sample(out, "bpsio_sync_records_total", tag, std::to_string(c.sync_total));
  sample(out, "bpsio_invalid_records_total", tag,
         std::to_string(c.invalid_total));
}

void window_gauges(std::string& out, std::string_view key,
                   std::string_view label, const WindowFigures& w) {
  const std::string tag = labels(key, label);
  sample(out, "bpsio_window_records", tag, std::to_string(w.records));
  sample(out, "bpsio_window_blocks", tag, std::to_string(w.blocks));
  sample(out, "bpsio_window_io_seconds", tag, fmt_double(w.io_s, 9));
  sample(out, "bpsio_window_bps", tag, fmt_double(w.bps, 3));
  sample(out, "bpsio_window_iops", tag, fmt_double(w.iops, 3));
  sample(out, "bpsio_window_bw_bytes_per_second", tag, fmt_double(w.bw_bps, 3));
  sample(out, "bpsio_window_arpt_seconds", tag, fmt_double(w.arpt_s, 9));
}

void csv_cells(std::string& out, const WindowFigures& w) {
  out += "," + std::to_string(w.records) + "," + std::to_string(w.blocks) +
         "," + fmt_double(w.io_s, 9) + "," + fmt_double(w.bps, 3) + "," +
         fmt_double(w.iops, 3) + "," + fmt_double(w.bw_bps, 3) + "," +
         fmt_double(w.arpt_s, 9);
}

}  // namespace bpsio::ingest
