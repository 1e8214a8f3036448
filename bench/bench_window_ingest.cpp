// Harness bench: SlidingWindowMetrics ingest — the live daemons' window
// hot path (incremental windowed interval-union + end-ordered expiry).
//
// Two cases, both ingesting a pre-generated stream into a fresh
// SlidingWindowMetrics per sample; throughput is ingested records/sec.
//
//  * window_ingest: shuffled arrival, one one-record span per record — the
//    adversarial order, where every record is its own eviction run.
//    Window length from --window. Emits BENCH_window_ingest.json.
//  * window_ingest_frames: the shape a daemon sees — per-thread streams
//    monotone in start and end, cut into 4096-record frames that
//    interleave, each frame one add(span). The window is an eighth of the
//    stream's span, so most of the run is steady-state eviction of whole
//    end-ordered runs. Emits BENCH_window_ingest_frames.json.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

std::vector<trace::IoRecord> shuffled_stream(std::uint64_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::IoRecord> records;
  records.reserve(n);
  std::int64_t t = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_u64(500));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(20'000)) + 1;
    records.push_back(trace::make_record(static_cast<std::uint32_t>(i % 32 + 1),
                                         rng.uniform_u64(64) + 1, SimTime(t),
                                         SimTime(t + len)));
  }
  std::shuffle(records.begin(), records.end(), rng);
  return records;
}

constexpr std::size_t kFrameRecords = 4096;
constexpr std::size_t kStreams = 4;

/// Frames of kStreams per-thread streams, interleaved round-robin; every
/// stream is monotone in start and end. Returns the records frame after
/// frame, each frame kFrameRecords long (the last one of a stream may be
/// shorter), and stores the frame boundaries in `frames`.
std::vector<trace::IoRecord> framed_stream(
    std::uint64_t n, std::uint64_t seed,
    std::vector<std::span<const trace::IoRecord>>* frames) {
  Rng rng(seed);
  std::vector<std::vector<trace::IoRecord>> streams(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::int64_t start = static_cast<std::int64_t>(s) * 100;
    std::int64_t end = start;
    for (std::uint64_t i = s; i < n; i += kStreams) {
      start += static_cast<std::int64_t>(rng.uniform_u64(2'000)) + 1;
      end = std::max(end,
                     start + static_cast<std::int64_t>(rng.uniform_u64(1'500)));
      streams[s].push_back(trace::make_record(
          static_cast<std::uint32_t>(s + 1), rng.uniform_u64(64) + 1,
          SimTime(start), SimTime(end)));
    }
  }
  std::vector<trace::IoRecord> records;
  records.reserve(n);
  std::vector<std::size_t> bounds = {0};
  for (std::size_t at = 0; records.size() < n; at += kFrameRecords) {
    for (const auto& stream : streams) {
      if (at >= stream.size()) continue;
      const std::size_t len = std::min(kFrameRecords, stream.size() - at);
      records.insert(records.end(),
                     stream.begin() + static_cast<std::ptrdiff_t>(at),
                     stream.begin() + static_cast<std::ptrdiff_t>(at + len));
      bounds.push_back(records.size());
    }
  }
  frames->clear();
  for (std::size_t f = 1; f < bounds.size(); ++f) {
    frames->emplace_back(records.data() + bounds[f - 1],
                         bounds[f] - bounds[f - 1]);
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  double window_ms = 10.0;
  cli::ArgParser parser("bench_window_ingest",
                        "SlidingWindowMetrics ingest throughput, with a "
                        "statistical harness: a shuffled-arrival stream "
                        "added record by record, then interleaved "
                        "end-ordered frames added span by span.");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  parser.add_positive_double("--window", &window_ms, "MS",
                             "sliding window length of the shuffled case "
                             "in milliseconds (default 10)");
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 100'000, 2'000'000);
  const auto records = shuffled_stream(n, static_cast<std::uint64_t>(args.seed));
  const SimDuration window = SimDuration::from_ms(window_ms);
  std::printf("=== window ingest: %llu shuffled records, window=%.1f ms, "
              "seed=%llu ===\n",
              static_cast<unsigned long long>(n), window_ms,
              static_cast<unsigned long long>(args.seed));

  int rc = 0;
  {
    const auto cfg = bench::make_harness_config("window_ingest", args);
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      metrics::SlidingWindowMetrics live(window);
      for (const auto& record : records) live.add({&record, 1});
      BPSIO_CHECK(live.any(), "ingest produced no live window state");
      return static_cast<double>(records.size());
    });
    rc |= bench::report_result(args, cfg, result,
                               {{"records", std::to_string(n)},
                                {"window_ms", std::to_string(window_ms)},
                                {"profile", args.profile}});
  }

  std::vector<std::span<const trace::IoRecord>> frames;
  const auto framed =
      framed_stream(n, static_cast<std::uint64_t>(args.seed), &frames);
  std::int64_t last_end = 0;
  for (const auto& record : framed) last_end = std::max(last_end, record.end_ns);
  const SimDuration frame_window(std::max<std::int64_t>(last_end / 8, 1));
  std::printf("=== window ingest: %llu records in %zu interleaved frames of "
              "%zu, window=%.3f ms (1/8 of the span) ===\n",
              static_cast<unsigned long long>(framed.size()), frames.size(),
              kFrameRecords, frame_window.seconds() * 1e3);
  {
    const auto cfg = bench::make_harness_config("window_ingest_frames", args);
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      metrics::SlidingWindowMetrics live(frame_window);
      for (const auto& frame : frames) live.add(frame);
      BPSIO_CHECK(live.any() && live.accesses() < framed.size(),
                  "framed ingest evicted nothing");
      return static_cast<double>(framed.size());
    });
    rc |= bench::report_result(
        args, cfg, result,
        {{"records", std::to_string(framed.size())},
         {"frame_records", std::to_string(kFrameRecords)},
         {"streams", std::to_string(kStreams)},
         {"window_ns", std::to_string(frame_window.ns())},
         {"profile", args.profile}});
  }
  return rc;
}
