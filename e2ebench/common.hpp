// Small helpers shared by the benchmark's subcommands: flag parsing, a flat
// JSON line writer, clocks, /metrics scraping, and the collector_fanin
// record plan (built identically by the load generator and the ledger).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/io_record.hpp"

namespace e2e {

/// `--key=value` flags; a bare `--key` maps to "1".
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string str(const std::string& key, const std::string& fallback = "") const;
  long long num(const std::string& key, long long fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One flat JSON object, keys in insertion order, printed on one line.
class JsonLine {
 public:
  void put(const std::string& key, double value);
  void put(const std::string& key, std::int64_t value);
  void put(const std::string& key, std::uint64_t value);
  void put(const std::string& key, const std::string& value);
  void put_bool(const std::string& key, bool value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::int64_t now_ns();  ///< CLOCK_MONOTONIC, the clock the capture uses

/// Opens `path` for writing with a raw system call. The capture interposer
/// only records I/O on descriptors its own open() wrapper handed out, so
/// result files written through this descriptor never show up in the
/// captured stream the benchmark is checking.
int open_unrecorded(const std::string& path);
bool write_all(int fd, const void* data, std::size_t size);

/// GET /metrics from 127.0.0.1:`port`; nullopt on any failure.
std::optional<std::string> scrape(int port);

/// Value of the first sample of `metric` whose label set contains `label`
/// (empty = an unlabelled sample); nullopt when absent.
std::optional<double> metric_value(const std::string& body,
                                   const std::string& metric,
                                   const std::string& label = "");

/// Reads every record of a v2 .bpstrace file with the benchmark's own
/// parser (independent of the library's readers it is checking).
bool read_trace_raw(const std::string& path,
                    std::vector<bpsio::trace::IoRecord>& out,
                    std::string& error);

/// Every *.bpstrace file directly under `dir`, sorted by name.
std::vector<std::string> trace_files(const std::string& dir);

// ---------------------------------------------------------------------------
// collector_fanin plan: `conns` agent connections, each one tenant's agent,
// each multiplexing `streams` origin streams. Connections [0, conns/2) (at
// least one) belong to the hot tenant; the rest round-robin over up to three
// cold tenants. Records of one stream are start-ordered and overlap records
// of the other streams. One tile per connection is the unit the generator
// cycles through (shifted forward in time on every pass).
// ---------------------------------------------------------------------------

struct FaninFrame {
  std::uint64_t stream = 0;
  std::vector<bpsio::trace::IoRecord> records;
};

struct FaninConn {
  std::string tenant;
  std::vector<FaninFrame> frames;  ///< one tile, in send order
  std::int64_t span_ns = 0;        ///< last end minus first start of the tile
};

inline constexpr std::uint32_t kFaninStreams = 16;
inline constexpr std::uint32_t kFaninFrameRecords = 512;
inline constexpr std::uint32_t kFaninTileFrames = 128;

std::vector<FaninConn> fanin_plan(std::uint64_t seed, std::uint32_t conns);

}  // namespace e2e
