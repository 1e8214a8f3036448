#include "collector/tenant_shards.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"

namespace bpsio::collector {

TenantShards::TenantShards(std::size_t shard_count, SimDuration window,
                           Bytes block_size)
    : window_(window), block_size_(block_size), global_(window) {
  BPSIO_CHECK(shard_count > 0, "collector needs at least one shard");
  BPSIO_CHECK(block_size > 0, "collector block size must be positive");
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TenantShards::Shard& TenantShards::shard_for(const std::string& name) {
  return *shards_[std::hash<std::string>{}(name) % shards_.size()];
}

TenantShards::Tenant* TenantShards::handle(const std::string& name) {
  Shard& shard = shard_for(name);
  MutexLock lock(shard.mu);
  auto it = shard.tenants.find(name);
  if (it == shard.tenants.end()) {
    const std::size_t index =
        std::hash<std::string>{}(name) % shards_.size();
    it = shard.tenants
             .emplace(name, std::make_unique<Tenant>(name, index, window_))
             .first;
  }
  return it->second.get();
}

void TenantShards::ingest(Tenant* tenant,
                       std::span<const trace::IoRecord> records) {
  BPSIO_CHECK(tenant != nullptr,
              "TenantShards::ingest without a tenant handle");
  // One pass over the span counts outside any lock; the two critical
  // sections below are a counter bump plus one span-batch window splice
  // each. SlidingWindowMetrics::add(span) skips invalid records itself.
  ingest::LifetimeCounters delta;
  const bool any_valid = delta.count(records) > 0;
  {
    Shard& shard = *shards_[tenant->shard];
    MutexLock lock(shard.mu);
    *tenant += delta;
    if (any_valid) tenant->window.add(records);
  }
  {
    MutexLock lock(global_mu_);
    global_totals_ += delta;
    if (any_valid) global_.add(records);
  }
}

void TenantShards::advance_windows(SimTime now) {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [name, tenant] : shard->tenants) tenant->window.advance(now);
  }
  MutexLock lock(global_mu_);
  global_.advance(now);
}

std::uint64_t TenantShards::records_total() const {
  MutexLock lock(global_mu_);
  return global_totals_.records_total;
}

std::uint64_t TenantShards::blocks_total() const {
  MutexLock lock(global_mu_);
  return global_totals_.blocks_total;
}

std::uint64_t TenantShards::invalid_total() const {
  MutexLock lock(global_mu_);
  return global_totals_.invalid_total;
}

std::uint64_t TenantShards::tenants_seen() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->tenants.size();
  }
  return total;
}

std::vector<TenantShards::TenantSnapshot> TenantShards::snapshot() const {
  // Copy the counters and the window OBJECT out under each shard lock; the
  // metric accessors run on the copies after the lock is dropped. The
  // critical sections make no function calls at all, which keeps them tiny
  // and keeps the lock scopes leaves of the static call graph.
  std::vector<TenantSnapshot> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [name, tenant] : shard->tenants) {
      out.push_back(TenantSnapshot{name, *tenant, tenant->window});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantSnapshot& a, const TenantSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

TenantShards::TenantSnapshot TenantShards::snapshot_global() const {
  TenantSnapshot all{"all", {}, metrics::SlidingWindowMetrics(window_)};
  MutexLock lock(global_mu_);
  all.totals = global_totals_;
  all.window = global_;
  return all;
}

std::string TenantShards::prometheus_text(
    const CollectorTransport& transport) const {
  using ingest::family;
  using ingest::metric;
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();

  std::string out;
  out.reserve(4096 + tenants.size() * 1024);
  family(out, "bpsio_records_total", "counter",
         "I/O access records received, per tenant; tenant=\"all\" is the "
         "fleet.");
  family(out, "bpsio_blocks_total", "counter",
         "Application-required blocks received (B), per tenant.");
  family(out, "bpsio_failed_records_total", "counter",
         "Records flagged as failed accesses (still counted in B).");
  family(out, "bpsio_sync_records_total", "counter",
         "fsync/fdatasync records (zero-block, time-only).");
  family(out, "bpsio_invalid_records_total", "counter",
         "Records rejected (end < start).");
  ingest::lifetime_samples(out, "tenant", all.name, all.totals);
  for (const TenantSnapshot& t : tenants) {
    ingest::lifetime_samples(out, "tenant", t.name, t.totals);
  }

  metric(out, "bpsio_agents_connected_total", "counter",
         "Agent connections accepted.", transport.agents_connected_total);
  metric(out, "bpsio_agents_active", "gauge",
         "Agent connections currently open.", transport.agents_active);
  metric(out, "bpsio_frames_total", "counter",
         "Complete record frames decoded.", transport.frames_total);
  metric(out, "bpsio_bad_frames_total", "counter",
         "Connections dropped on a malformed frame.",
         transport.bad_frames_total);
  metric(out, "bpsio_streams_total", "counter",
         "Distinct origin streams spooled.", transport.streams_total);
  metric(out, "bpsio_tenants_seen", "gauge", "Distinct tenants observed.",
         tenants.size());
  ingest::window_settings(out, window_, block_size_);
  family(out, "bpsio_window_bps", "gauge",
         "Windowed BPS (blocks per second of busy time) per tenant; "
         "tenant=\"all\" is the fleet stream.");
  ingest::window_gauges(out, "tenant", all.name, {all.window, block_size_});
  for (const TenantSnapshot& t : tenants) {
    ingest::window_gauges(out, "tenant", t.name, {t.window, block_size_});
  }
  return out;
}

std::string TenantShards::csv_snapshot() const {
  const std::vector<TenantSnapshot> tenants = snapshot();
  const TenantSnapshot all = snapshot_global();
  std::string out =
      "tenant,records_total,blocks_total,window_records,window_blocks,"
      "window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s\n";
  const auto row = [&](const TenantSnapshot& t) {
    out += t.name + "," + std::to_string(t.totals.records_total) + "," +
           std::to_string(t.totals.blocks_total);
    ingest::csv_cells(out, {t.window, block_size_});
    out += "\n";
  };
  row(all);
  for (const TenantSnapshot& t : tenants) row(t);
  return out;
}

}  // namespace bpsio::collector
