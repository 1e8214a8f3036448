// Pure arithmetic shared by the end-to-end benchmark's tools and tested on
// scripted inputs by test_analysis.cpp: the percentile-rank rule, the
// visible-lag estimator, span self time, and the order-independent record
// digest every traced stage must reproduce.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "trace/io_record.hpp"

namespace e2e {

// ---------------------------------------------------------------------------
// Percentiles. Nearest-rank: the p-quantile of n sorted samples is the one at
// 1-based rank ceil(p * n). A percentile is reportable only when at least
// kMinBeyond samples lie above that rank, so p99 needs n >= 1000.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kMinBeyond = 10;

inline std::uint64_t nearest_rank(double p, std::uint64_t n) {
  if (n == 0) return 0;
  const double exact = p * static_cast<double>(n);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

inline bool reportable(double p, std::uint64_t n) {
  return n > 0 && n - nearest_rank(p, n) >= kMinBeyond;
}

/// Exact integer histogram: one bucket per value below `kLinear`, the rare
/// larger values kept verbatim. Percentiles read from it equal the
/// nearest-rank percentile of the raw samples.
class Histogram {
 public:
  static constexpr std::uint64_t kLinear = std::uint64_t{1} << 20;

  Histogram() : buckets_(kLinear, 0) {}

  void add(std::uint64_t v) {
    ++count_;
    if (v < kLinear) {
      ++buckets_[v];
    } else {
      overflow_.push_back(v);
    }
  }
  void merge(const Histogram& other) {
    for (std::uint64_t i = 0; i < kLinear; ++i) buckets_[i] += other.buckets_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    count_ += other.count_;
  }
  std::uint64_t count() const { return count_; }

  /// Value at 1-based rank `rank` (1 <= rank <= count()).
  std::uint64_t at_rank(std::uint64_t rank) {
    std::uint64_t seen = 0;
    for (std::uint64_t i = 0; i < kLinear; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return i;
    }
    std::sort(overflow_.begin(), overflow_.end());
    return overflow_[rank - seen - 1];
  }
  std::uint64_t percentile(double p) { return at_rank(nearest_rank(p, count_)); }

 private:
  std::vector<std::uint32_t> buckets_;
  std::vector<std::uint64_t> overflow_;
  std::uint64_t count_ = 0;
};

/// Nearest-rank percentile of unsorted samples (partially reorders them).
template <typename T>
T percentile_of(std::vector<T>& samples, double p) {
  const std::uint64_t rank = nearest_rank(p, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

// ---------------------------------------------------------------------------
// Visible lag. The load generator logs completion events (time, records
// completed by that event); an observer polls a counter V of records it can
// see. The lag of one observation is its time minus the time the V-th
// record completed, in global completion order. The observer reads V after
// those records completed, so a lag is never negative for a causal counter.
// ---------------------------------------------------------------------------

struct Completion {
  std::int64_t t_ns = 0;
  std::uint64_t records = 0;
};

struct Observation {
  std::int64_t t_ns = 0;
  std::uint64_t visible = 0;
};

struct LagResult {
  std::vector<std::int64_t> lags_ns;  ///< one per observation with V > 0
  std::uint64_t over_count = 0;  ///< observations showing more than completed
};

/// `events` from any number of generator threads, in any order.
inline LagResult visible_lags(std::vector<Completion> events,
                              std::span<const Observation> observations) {
  std::sort(events.begin(), events.end(),
            [](const Completion& a, const Completion& b) { return a.t_ns < b.t_ns; });
  std::vector<std::uint64_t> cumulative(events.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    sum += events[i].records;
    cumulative[i] = sum;
  }
  LagResult out;
  for (const Observation& o : observations) {
    if (o.visible == 0) continue;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), o.visible);
    if (it == cumulative.end()) {
      ++out.over_count;
      continue;
    }
    const auto idx = static_cast<std::size_t>(it - cumulative.begin());
    out.lags_ns.push_back(o.t_ns - events[idx].t_ns);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans. A span's self time is its duration minus the part of its interval
// covered by its direct children (children may overlap each other, e.g.
// parallel workers, so coverage is an interval union, clipped to the span).
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t batch = 0;  ///< spans of one record batch share this id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
};

inline std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Record digest: order-independent, so every stage (spill files, merged
// stream, frames, decoded spans) can be compared with the stream as
// captured regardless of how it was batched or reordered.
// ---------------------------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Digest {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  std::uint64_t hash = 0;

  void add(const bpsio::trace::IoRecord& r) {
    std::uint64_t head = 0;
    std::memcpy(&head, &r, sizeof head);  // pid, op, flags, reserved
    std::uint64_t h = mix64(head);
    h = mix64(h ^ r.blocks);
    h = mix64(h ^ static_cast<std::uint64_t>(r.start_ns));
    h = mix64(h ^ static_cast<std::uint64_t>(r.end_ns));
    ++records;
    blocks += r.blocks;
    hash += h;
  }
  void add(std::span<const bpsio::trace::IoRecord> rs) {
    for (const auto& r : rs) add(r);
  }
  void merge(const Digest& o) {
    records += o.records;
    blocks += o.blocks;
    hash += o.hash;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

}  // namespace e2e
