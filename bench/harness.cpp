#include "bench/harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/wallclock.hpp"

namespace bpsio::bench {

namespace {

std::string resolved_git_sha() {
  for (const char* var : {"BPSIO_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* sha = std::getenv(var); sha != nullptr && sha[0] != '\0') {
      return sha;
    }
  }
  return "unknown";
}

/// The CPU model the record was measured on ("unknown" off Linux).
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t first = line.find_first_not_of(" \t", colon + 1);
    if (first != std::string::npos) return line.substr(first);
  }
  return "unknown";
}

}  // namespace

BenchHarness::BenchHarness(HarnessConfig config, ClockFn clock)
    : config_(std::move(config)), clock_(std::move(clock)) {
  BPSIO_CHECK(config_.min_samples >= 4, "need at least 4 samples for a CI");
  BPSIO_CHECK(config_.max_samples >= config_.min_samples,
              "max_samples < min_samples");
  BPSIO_CHECK(config_.simulate_slowdown > 0, "slowdown factor must be > 0");
  if (!clock_) clock_ = [] { return monotonic_ns(); };
}

BenchResult BenchHarness::run(const std::function<double()>& op) const {
  BenchResult result;
  result.samples.reserve(config_.max_samples);

  const auto take_sample = [&] {
    const std::int64_t t0 = clock_();
    const double units = op();
    const std::int64_t t1 = clock_();
    double elapsed_ns =
        static_cast<double>(t1 - t0) * config_.simulate_slowdown;
    if (elapsed_ns <= 0) elapsed_ns = 1;
    result.samples.push_back(units * 1e9 / elapsed_ns);
  };

  for (std::size_t i = 0; i < config_.min_samples; ++i) take_sample();

  while (true) {
    result.warmup_discarded =
        stats::detect_warmup(result.samples, config_.warmup_max_fraction);
    const std::span<const double> kept(
        result.samples.data() + result.warmup_discarded,
        result.samples.size() - result.warmup_discarded);
    result.est = stats::estimate(kept, config_.confidence);
    if (kept.size() >= 4 &&
        result.est.rel_half_width() <= config_.target_rel_half_width) {
      result.converged = true;
      break;
    }
    if (result.samples.size() >= config_.max_samples) {
      result.converged = false;
      break;
    }
    take_sample();
  }
  result.samples_collected = result.samples.size();
  return result;
}

BenchRecord BenchResult::to_record(
    const HarnessConfig& cfg, std::map<std::string, std::string> extra) const {
  BenchRecord r;
  r.name = cfg.name;
  r.unit = cfg.unit;
  r.git_sha = resolved_git_sha();
  r.seed = cfg.seed;
  r.threads = cfg.threads;
  r.confidence = cfg.confidence;
  r.target_rel_half_width = cfg.target_rel_half_width;
  r.converged = converged;
  r.samples_collected = samples_collected;
  r.warmup_discarded = warmup_discarded;
  r.samples_used = est.count;
  r.mean = est.mean;
  r.stddev = est.stddev;
  r.ci_lo = est.ci_lo;
  r.ci_hi = est.ci_hi;
  r.rel_half_width = est.rel_half_width();
  r.lag1_autocorr = est.lag1;
  r.ess = est.ess;
  r.config = std::move(extra);
  r.config.emplace("build_type", BPSIO_BENCH_BUILD_TYPE);
  r.config.emplace("cpu", cpu_model());
  if (cfg.simulate_slowdown != 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", cfg.simulate_slowdown);
    r.config["simulate_slowdown"] = buf;
  }
  r.samples_raw.assign(samples.begin() + static_cast<std::ptrdiff_t>(warmup_discarded),
                       samples.end());
  return r;
}

std::string summary_line(const BenchRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-28s %12.3g ±%.3g %s (%.0f%% CI, n=%llu/%llu, warmup=%llu, "
                "lag1=%.2f, ess=%.1f%s)",
                r.name.c_str(), r.mean, r.ci_hi - r.mean, r.unit.c_str(),
                r.confidence * 100.0,
                static_cast<unsigned long long>(r.samples_used),
                static_cast<unsigned long long>(r.samples_collected),
                static_cast<unsigned long long>(r.warmup_discarded),
                r.lag1_autocorr, r.ess,
                r.converged ? "" : ", NOT CONVERGED");
  return buf;
}

}  // namespace bpsio::bench
