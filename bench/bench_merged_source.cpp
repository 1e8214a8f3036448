// Harness bench: k-way MergedSource streaming merge — the drain/report hot
// path that combines per-thread capture spools into one ordered stream.
//
// Pre-generates sorted per-source record vectors once; each sample wraps
// them in zero-copy VectorSource views, k-way merges through MergedSource,
// and pulls the stream dry. Two records, throughput in merged records/sec:
//
//  * merged_source: K (--sources, default 8) finely interleaved streams —
//    the merge's copy loop, record by record. Counts the chunks' records,
//    as when its baseline was recorded.
//  * merged_source_runs: 2 streams that take turns in runs of 2000-4000
//    records (median ~3000), the shape of a pinned two-thread capture —
//    the merge's zero-copy run pass-through, with bpsio_report's merge
//    options (no pid remap). Also sums every record's blocks, so the spans
//    handed out without a copy are read too.
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "trace/io_record.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"

using namespace bpsio;

namespace {

std::vector<std::vector<trace::IoRecord>> sorted_sources(std::uint64_t total,
                                                         std::size_t k,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<trace::IoRecord>> sources(k);
  const std::uint64_t per_source = total / k;
  for (std::size_t s = 0; s < k; ++s) {
    auto& records = sources[s];
    records.reserve(per_source);
    std::int64_t t = static_cast<std::int64_t>(rng.uniform_u64(1000));
    for (std::uint64_t i = 0; i < per_source; ++i) {
      t += static_cast<std::int64_t>(rng.uniform_u64(800));
      const auto len = static_cast<std::int64_t>(rng.uniform_u64(4000)) + 1;
      records.push_back(trace::make_record(static_cast<std::uint32_t>(s + 1),
                                           rng.uniform_u64(32) + 1, SimTime(t),
                                           SimTime(t + len)));
    }
  }
  return sources;
}

/// Two sources that take turns in runs of 2000-4000 records each.
std::vector<std::vector<trace::IoRecord>> run_sources(std::uint64_t total,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<trace::IoRecord>> sources(2);
  std::int64_t t = 0;
  std::size_t s = 0;
  for (std::uint64_t emitted = 0; emitted < total; s ^= 1) {
    const std::uint64_t run = 2000 + rng.uniform_u64(2001);
    for (std::uint64_t i = 0; i < run && emitted < total; ++i, ++emitted) {
      t += static_cast<std::int64_t>(rng.uniform_u64(800)) + 1;
      const auto len = static_cast<std::int64_t>(rng.uniform_u64(400)) + 1;
      sources[s].push_back(trace::make_record(static_cast<std::uint32_t>(s + 1),
                                              rng.uniform_u64(32) + 1,
                                              SimTime(t), SimTime(t + len)));
    }
  }
  return sources;
}

/// One timed sample: merge `sources` through MergedSource under `options`
/// and pull the stream dry; with `blocks`, also sum every record's blocks
/// and check them. Returns the merged record count.
double merge_drain(const std::vector<std::vector<trace::IoRecord>>& sources,
                   std::uint64_t total, const trace::MergeOptions& options,
                   std::optional<std::uint64_t> blocks) {
  std::vector<std::unique_ptr<trace::RecordSource>> children;
  children.reserve(sources.size());
  for (const auto& source : sources) {
    children.push_back(std::make_unique<trace::VectorSource>(
        trace::VectorSource::view(source)));
  }
  trace::MergedSource merged(std::move(children), options);
  std::uint64_t pulled = 0;
  std::uint64_t summed = 0;
  for (auto chunk = merged.next_chunk(); !chunk.empty();
       chunk = merged.next_chunk()) {
    pulled += chunk.size();
    if (blocks) {
      for (const auto& record : chunk) summed += record.blocks;
    }
  }
  BPSIO_CHECK(merged.status().ok() && pulled == total &&
                  (!blocks || summed == *blocks),
              "merge mismatch: %llu of %llu records",
              static_cast<unsigned long long>(pulled),
              static_cast<unsigned long long>(total));
  return static_cast<double>(pulled);
}

std::pair<std::uint64_t, std::uint64_t> totals(
    const std::vector<std::vector<trace::IoRecord>>& sources) {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  for (const auto& source : sources) {
    records += source.size();
    for (const auto& record : source) blocks += record.blocks;
  }
  return {records, blocks};
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  long long k_sources = 8;
  cli::ArgParser parser("bench_merged_source",
                        "k-way MergedSource streaming-merge throughput over "
                        "sorted in-memory sources, with a statistical "
                        "harness.");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  parser.add_int("--sources", &k_sources, 2, 256, "K",
                 "number of per-source streams to merge (default 8)");
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 200'000, 4'000'000);
  const auto k = static_cast<std::size_t>(k_sources);
  int rc = 0;
  {
    const auto sources =
        sorted_sources(n, k, static_cast<std::uint64_t>(args.seed));
    const std::uint64_t total = totals(sources).first;
    std::printf("=== merged source: %llu records across %zu sorted streams, "
                "seed=%llu ===\n",
                static_cast<unsigned long long>(total), k,
                static_cast<unsigned long long>(args.seed));
    const auto cfg = bench::make_harness_config("merged_source", args);
    const bench::BenchHarness harness(cfg);
    const auto result =
        harness.run([&] {
          return merge_drain(sources, total, trace::MergeOptions{},
                             std::nullopt);
        });
    rc |= bench::report_result(args, cfg, result,
                               {{"records", std::to_string(total)},
                                {"sources", std::to_string(k)},
                                {"profile", args.profile}});
  }
  {
    const auto sources = run_sources(n, static_cast<std::uint64_t>(args.seed));
    const auto [total, blocks] = totals(sources);
    std::printf("=== merged source: %llu records across 2 streams in runs of "
                "2000-4000, seed=%llu ===\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(args.seed));
    // bpsio_report's default: no pid remap, so children are served in place
    // and a run leaves as a span over the source itself.
    trace::MergeOptions in_place;
    in_place.pid_stride = 0;
    const auto cfg = bench::make_harness_config("merged_source_runs", args);
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run(
        [&] { return merge_drain(sources, total, in_place, blocks); });
    rc |= bench::report_result(args, cfg, result,
                               {{"records", std::to_string(total)},
                                {"sources", "2"},
                                {"run_records", "2000-4000"},
                                {"pid_stride", "0"},
                                {"profile", args.profile}});
  }
  return rc;
}
