// Harness bench: agent ingest — decoded BPSF frames into MetricAggregator.
//
// This is the daemon's end-to-end hot path after the zero-copy substrate:
// FrameDecoder hands each completed frame to the sink as a
// std::span<const IoRecord> over the connection buffer, and the sink feeds
// the whole span to MetricAggregator::add(span) (one pid-run grouping, one
// bulk window update per run). The measured workload is the wire stream
// record_shipper produces: one pid per frame, frames cycling over 16 pids.
//
// Each aggregator keeps one sliding window per pid; the pid="all" row is
// derived from them at render, so each record is spliced into one window.
// Each sample decodes the pre-encoded stream and ingests it into a fresh
// aggregator. A second harness pass measures the per-record baseline
// (decode to a vector, then one one-record span per record) on the same
// wire bytes; the reported BENCH_agent_ingest.json carries
// `speedup_vs_per_record`, and both paths must land on identical aggregator
// state (csv_snapshot equality) or the bench fails.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "agent/aggregator.hpp"
#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "trace/frame.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

constexpr std::size_t kRecordsPerFrame = 1024;  // one client flush per frame
constexpr std::size_t kReadChunk = 64 * 1024;  // typical socket read size
constexpr std::uint32_t kPids = 16;
// Per-client inter-access gap and access length, in ns. Sparse short
// accesses: every pid window holds hundreds of disjoint busy intervals —
// the regime the batched interval splice exists for (a per-record middle
// insert memmoves the tail of the flat interval vector on every single
// record).
constexpr std::uint64_t kGapSpreadNs = 8000;
constexpr std::uint64_t kLenSpreadNs = 120;
// Window covering ~2 frame rounds: old enough that nothing from the
// round-robin interleave is spuriously expired, short enough to keep the
// interval store at realistic size.
constexpr double kWindowMs =
    2 * kRecordsPerFrame * (kGapSpreadNs / 2) * kPids / 1e6;

// One pid per frame, frames round-robin over 16 clients with independent
// clocks: the shape a multi-client daemon actually sees. Each client ships
// its own spill batches, so consecutive frames cover overlapping time
// ranges, and the derived all row unions 16 overlapping run lists.
std::vector<char> encode_workload(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::IoRecord> frame;
  frame.reserve(kRecordsPerFrame);
  std::vector<char> wire;
  wire.reserve(n * sizeof(trace::IoRecord) + (n / kRecordsPerFrame + 1) * 8);
  std::int64_t clocks[kPids] = {};
  std::uint32_t frame_index = 0;
  for (std::uint64_t emitted = 0; emitted < n;) {
    const std::uint32_t pid = frame_index % kPids + 1;
    std::int64_t& t = clocks[pid - 1];
    const std::size_t take =
        std::min<std::uint64_t>(kRecordsPerFrame, n - emitted);
    for (std::size_t i = 0; i < take; ++i) {
      t += static_cast<std::int64_t>(rng.uniform_u64(kGapSpreadNs)) + 1;
      const auto len =
          static_cast<std::int64_t>(rng.uniform_u64(kLenSpreadNs)) + 1;
      frame.push_back(trace::make_record(pid, rng.uniform_u64(64) + 1,
                                         SimTime(t), SimTime(t + len)));
    }
    trace::encode_frame(frame, wire);
    frame.clear();
    emitted += take;
    ++frame_index;
  }
  return wire;
}

agent::MetricAggregator make_aggregator() {
  return agent::MetricAggregator(SimDuration::from_ms(kWindowMs), 512);
}

void feed_stream(const std::vector<char>& wire, trace::FrameDecoder& decoder,
                 const trace::FrameDecoder::FrameSink& sink) {
  for (std::size_t off = 0; off < wire.size(); off += kReadChunk) {
    const std::size_t len = std::min(kReadChunk, wire.size() - off);
    (void)decoder.feed(wire.data() + off, len, sink);
  }
  BPSIO_CHECK(decoder.status().ok(), "decoder poisoned mid-bench");
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  cli::ArgParser parser("bench_agent_ingest",
                        "Daemon ingest throughput: BPSF frames through the "
                        "zero-copy decoder sink into MetricAggregator, vs "
                        "the per-record baseline.");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 200'000, 4'000'000);
  const auto wire = encode_workload(n, static_cast<std::uint64_t>(args.seed));
  std::printf("=== agent ingest: %llu records, %u pids, %.1f MiB on the "
              "wire, seed=%llu ===\n",
              static_cast<unsigned long long>(n), kPids,
              static_cast<double>(wire.size()) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(args.seed));

  // Equality self-check before any timing: the span path and the per-record
  // path must produce byte-identical exposition output.
  std::string batched_csv;
  {
    agent::MetricAggregator batched = make_aggregator();
    trace::FrameDecoder decoder;
    const trace::FrameDecoder::FrameSink sink =
        [&batched](std::span<const trace::IoRecord> frame) {
          batched.add(frame);
        };
    feed_stream(wire, decoder, sink);
    BPSIO_CHECK(batched.records_total() == n, "batched ingest lost records");
    batched_csv = batched.csv_snapshot();
  }
  {
    agent::MetricAggregator scalar = make_aggregator();
    trace::FrameDecoder decoder;
    const trace::FrameDecoder::FrameSink sink =
        [&scalar](std::span<const trace::IoRecord> frame) {
          for (const auto& record : frame) scalar.add({&record, 1});
        };
    feed_stream(wire, decoder, sink);
    BPSIO_CHECK(scalar.csv_snapshot() == batched_csv,
                "span and per-record ingest disagree");
  }

  // Reported number: the batched span path.
  const auto cfg = bench::make_harness_config("agent_ingest", args);
  const bench::BenchHarness harness(cfg);
  const auto batched_result = harness.run([&] {
    agent::MetricAggregator agg = make_aggregator();
    trace::FrameDecoder decoder;
    const trace::FrameDecoder::FrameSink sink =
        [&agg](std::span<const trace::IoRecord> frame) { agg.add(frame); };
    feed_stream(wire, decoder, sink);
    return static_cast<double>(agg.records_total());
  });

  // Baseline: decode to a scratch vector, then one one-record span per
  // record. Measured with the same harness so the speedup compares converged
  // means, but only the batched record is published.
  auto base_cfg = cfg;
  base_cfg.name = "agent_ingest_per_record";
  const bench::BenchHarness base_harness(base_cfg);
  std::vector<trace::IoRecord> scratch;
  scratch.reserve(kRecordsPerFrame);
  const auto baseline_result = base_harness.run([&] {
    agent::MetricAggregator agg = make_aggregator();
    trace::FrameDecoder decoder;
    const trace::FrameDecoder::FrameSink sink =
        [&scratch](std::span<const trace::IoRecord> frame) {
          scratch.insert(scratch.end(), frame.begin(), frame.end());
        };
    for (std::size_t off = 0; off < wire.size(); off += kReadChunk) {
      const std::size_t len = std::min(kReadChunk, wire.size() - off);
      (void)decoder.feed(wire.data() + off, len, sink);
      for (const auto& record : scratch) agg.add({&record, 1});
      scratch.clear();
    }
    BPSIO_CHECK(decoder.status().ok(), "decoder poisoned mid-bench");
    return static_cast<double>(agg.records_total());
  });

  const double speedup = baseline_result.est.mean > 0
                             ? batched_result.est.mean / baseline_result.est.mean
                             : 0.0;
  std::printf("  per-record baseline: %.3g records/sec; span path %.2fx\n",
              baseline_result.est.mean, speedup);

  char speedup_str[32];
  std::snprintf(speedup_str, sizeof speedup_str, "%.4f", speedup);
  return bench::report_result(args, cfg, batched_result,
                              {{"records", std::to_string(n)},
                               {"pids", std::to_string(kPids)},
                               {"read_chunk", std::to_string(kReadChunk)},
                               {"speedup_vs_per_record", speedup_str},
                               {"profile", args.profile}});
}
