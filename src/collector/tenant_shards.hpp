// Sharded per-tenant metric state for bpsio_collectord.
//
// The collector's scaling problem is the opposite of the agent's: one
// bpsio_agentd owns a single poll loop and a single-threaded aggregator,
// but a collector ingests frames from hundreds of agent connections on
// several I/O worker threads at once. TenantShards is the shared state they
// all write into, sharded so the common case — different tenants landing on
// different shards — takes disjoint locks:
//
//  * tenants hash onto `shard_count` shards; each shard owns a mutex, the
//    tenant map, and every tenant's lifetime counters + sliding window;
//  * ingest is span-batched: one lock acquisition per decoded frame, not
//    per record, and no other lock;
//  * the fleet row (tenant="all") is derived at render from the tenant
//    windows, advanced to one right edge (metrics::combined_totals() says
//    why that is exact).
//
// Rendering walks the shards one lock at a time and copies out each
// tenant's lifetime counters and fixed-size window totals — plus, only when
// two or more tenants hold records, its busy-run list — then merges,
// computes and formats outside the locks, sorted by tenant name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "ingest/exposition.hpp"
#include "ingest/node.hpp"
#include "metrics/online.hpp"
#include "trace/io_record.hpp"

namespace bpsio::collector {

class TenantShards {
 public:
  /// One tenant's slot: stable address for the lifetime of the TenantShards
  /// (each stream's sink caches the handle instead of re-hashing the tenant
  /// name on every frame). All mutable fields — the lifetime
  /// counters and the window — are guarded by the owning shard's mutex.
  struct Tenant : ingest::LifetimeCounters {
    explicit Tenant(std::string tenant_name, std::size_t shard_index,
                    SimDuration window_length)
        : name(std::move(tenant_name)),
          shard(shard_index),
          window(window_length) {}

    const std::string name;
    const std::size_t shard;
    metrics::SlidingWindowMetrics window;
  };

  TenantShards(std::size_t shard_count, SimDuration window, Bytes block_size);

  /// Find-or-create the tenant's slot. Thread-safe; the returned pointer is
  /// stable until destruction.
  Tenant* handle(const std::string& name);

  /// Span-batch ingest for one tenant: lifetime counters + tenant window
  /// under the tenant's shard lock. Invalid records (end < start) are
  /// counted and otherwise ignored, exactly like MetricAggregator — a fleet
  /// daemon must not die on one malformed producer.
  void ingest(Tenant* tenant, std::span<const trace::IoRecord> records);

  /// Slide every tenant window forward to one right edge: `now` (monotonic
  /// ns), or the latest tenant window's own edge when that is later.
  /// Returns how many tenant windows hold records (have ingested any).
  std::size_t advance_windows(SimTime now);

  /// Fleet-wide lifetime sums (each one shard walk).
  std::uint64_t records_total() const { return lifetime().records_total; }
  std::uint64_t blocks_total() const { return lifetime().blocks_total; }
  std::uint64_t invalid_total() const { return lifetime().invalid_total; }
  std::uint64_t tenants_seen() const;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration window() const { return window_; }

  /// Prometheus plaintext exposition: lifetime and transport counters, and
  /// windowed gauges labelled tenant="all" plus one label set per tenant
  /// (sorted by name). Advances every window to one right edge first.
  std::string prometheus_text(const ingest::Counters& transport);

  /// CSV snapshot: one row per tenant plus an "all" row, same windowed
  /// figures as /metrics prefixed with the lifetime record/block counters.
  std::string csv_snapshot();

 private:
  struct Shard {
    mutable Mutex mu;
    std::map<std::string, std::unique_ptr<Tenant>> tenants;
  };

  /// One tenant's (or the fleet's) figures, copied out under its lock so
  /// the rate arithmetic and the formatting run lock-free. Trivially
  /// copyable; `name` views the tenant's immutable name (tenants live as
  /// long as the TenantShards) or the literal "all".
  struct TenantSnapshot {
    std::string_view name;
    ingest::LifetimeCounters totals;
    metrics::WindowTotals window;
  };

  Shard& shard_for(const std::string& name);
  /// Every tenant's lifetime counters, summed.
  ingest::LifetimeCounters lifetime() const;
  /// The rows of one render, windows advanced to one right edge: the
  /// derived "all" row first, then every tenant sorted by name.
  std::vector<TenantSnapshot> rows();

  SimDuration window_;
  Bytes block_size_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bpsio::collector
