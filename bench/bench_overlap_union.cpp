// Harness bench: interval-union overlap time (the Step-3 hot path), the
// sort-and-merge on the interval-union kernel. Two records over the same
// seeded random interval set, throughput in intervals/sec:
//
//  * overlap_union_serial: overlap_time_merged over a fresh copy of the
//    set — the copy, the sort and the kernel.
//  * overlap_union_kernel: the kernel alone (metrics::IntervalUnion) over a
//    copy sorted once, before timing starts.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_cli.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "metrics/interval_union.hpp"
#include "metrics/overlap.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

std::vector<trace::TimeInterval> random_intervals(std::uint64_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<trace::TimeInterval> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto start = static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(10'000'000));
    out.push_back({start, start + len});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  cli::ArgParser parser("bench_overlap_union",
                        "Throughput of the interval-union overlap time "
                        "with a statistical harness.");
  bench::register_common_flags(parser, &args, /*with_threads=*/false);
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 100'000, 2'000'000);
  const auto intervals =
      random_intervals(n, static_cast<std::uint64_t>(args.seed));
  std::printf("=== overlap union: %llu intervals, seed=%llu ===\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(args.seed));

  const std::map<std::string, std::string> extra = {
      {"records", std::to_string(n)}, {"profile", args.profile}};
  int rc = 0;
  {
    const auto cfg = bench::make_harness_config("overlap_union_serial", args);
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      auto copy = intervals;
      const auto t = metrics::overlap_time_merged(std::move(copy));
      return t.ns() >= 0 ? static_cast<double>(n) : 0.0;
    });
    rc |= bench::report_result(args, cfg, result, extra);
  }
  {
    auto sorted = intervals;
    std::sort(sorted.begin(), sorted.end(),
              [](const trace::TimeInterval& a, const trace::TimeInterval& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.end_ns < b.end_ns;
              });
    const std::int64_t expected = metrics::overlap_time_merged(intervals).ns();
    const auto cfg = bench::make_harness_config("overlap_union_kernel", args);
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      metrics::IntervalUnion u;
      for (const auto& iv : sorted) u.add(iv);
      BPSIO_CHECK(u.measure_ns() == expected, "kernel T %lld != %lld",
                  static_cast<long long>(u.measure_ns()),
                  static_cast<long long>(expected));
      return static_cast<double>(n);
    });
    rc |= bench::report_result(args, cfg, result, extra);
  }
  return rc;
}
