// Statistically rigorous benchmark runner — the shared engine behind every
// BENCH_*.json-emitting bench binary.
//
// The harness wraps an arbitrary timed closure and applies the methodology
// docs/BENCHMARKS.md describes:
//
//   1. collect throughput samples (the closure reports units of work done,
//      the harness times each invocation);
//   2. trim the warm-up transient with the changepoint-on-means detector
//      (stats::detect_warmup) — cold caches and first-touch page faults
//      belong to no steady-state claim;
//   3. summarize the remainder with an autocorrelation-corrected Student-t
//      interval (stats::estimate);
//   4. keep sampling until the CI half-width is below the configured
//      fraction of the mean, or the sample cap is hit (`converged` records
//      which exit was taken).
//
// The clock is injectable, so the whole control loop — warm-up trimming,
// adaptive stop, slowdown simulation — is unit-testable with a scripted
// fake clock and no real timing anywhere (tests/test_bench_harness.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "stats/inference.hpp"

namespace bpsio::bench {

struct HarnessConfig {
  std::string name;                    ///< bench identity (JSON file name)
  std::string unit = "records_per_sec";
  std::size_t min_samples = 10;        ///< collected before the first CI check
  std::size_t max_samples = 200;       ///< hard cap (converged=false past it)
  double confidence = 0.95;
  double target_rel_half_width = 0.05; ///< adaptive stop: half-width <= 5% of mean
  double warmup_max_fraction = 0.5;    ///< changepoint search range
  /// Multiplies every measured duration. 1.0 = measure honestly; the CI
  /// bench-regression job runs one bench at 2.0 to prove the gate trips on
  /// a real slowdown (see .github/workflows/ci.yml).
  double simulate_slowdown = 1.0;
  std::uint64_t seed = 42;             ///< recorded so the run is reproducible
  int threads = 1;                     ///< recorded in the JSON
};

struct BenchResult {
  stats::Estimate est;                 ///< over the post-warm-up samples
  std::size_t samples_collected = 0;
  std::size_t warmup_discarded = 0;
  bool converged = false;
  std::vector<double> samples;         ///< all collected throughput samples

  /// The JSON-ready record (git SHA resolved from $BPSIO_GIT_SHA /
  /// $GITHUB_SHA; `extra` lands in the record's config map, next to the
  /// build type and the CPU model).
  BenchRecord to_record(const HarnessConfig& cfg,
                        std::map<std::string, std::string> extra = {}) const;
};

class BenchHarness {
 public:
  /// Nanosecond monotonic clock; default reads bpsio::monotonic_ns().
  using ClockFn = std::function<std::int64_t()>;

  explicit BenchHarness(HarnessConfig config, ClockFn clock = {});

  /// Run the adaptive loop. `op` performs one batch of work and returns the
  /// units completed (e.g. records processed); the harness times each call.
  /// A non-positive measured duration is clamped to 1 ns.
  BenchResult run(const std::function<double()>& op) const;

  const HarnessConfig& config() const { return config_; }

 private:
  HarnessConfig config_;
  ClockFn clock_;
};

/// One-line human summary: mean ± half-width [unit], sample accounting.
std::string summary_line(const BenchRecord& record);

}  // namespace bpsio::bench
