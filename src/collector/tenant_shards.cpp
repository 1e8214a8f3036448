#include "collector/tenant_shards.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.hpp"

namespace bpsio::collector {

TenantShards::TenantShards(std::size_t shard_count, SimDuration window,
                           Bytes block_size)
    : window_(window), block_size_(block_size) {
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
  // Count outside the lock; add(span) skips invalid records itself.
  ingest::LifetimeCounters delta;
  const bool any_valid = delta.count(records) > 0;
  Shard& shard = *shards_[tenant->shard];
  MutexLock lock(shard.mu);
  *tenant += delta;
  if (any_valid) tenant->window.add(records);
}

std::size_t TenantShards::advance_windows(SimTime now) {
  // Two walks: find the edge, then advance to it. A frame ingested between
  // them may move a window past the edge; advance() leaves it there.
  SimTime edge = now;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [name, tenant] : shard->tenants) {
      if (tenant->window.any()) edge = std::max(edge, tenant->window.now());
    }
  }
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [name, tenant] : shard->tenants) {
      tenant->window.advance(edge);
      if (tenant->window.any()) ++live;
    }
  }
  return live;
}

ingest::LifetimeCounters TenantShards::lifetime() const {
  ingest::LifetimeCounters sum;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [name, tenant] : shard->tenants) sum += *tenant;
  }
  return sum;
}

std::uint64_t TenantShards::tenants_seen() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->tenants.size();
  }
  return total;
}

std::vector<TenantShards::TenantSnapshot> TenantShards::rows() {
  // The lock scopes call only the inline totals(), any() and busy_runs()
  // accessors: leaves of the static call graph. Runs are copied only when
  // two or more tenants hold records; one that starts to between the
  // advance and this walk (concurrent ingest) forces one more walk.
  const std::size_t live =
      advance_windows(SimTime(std::numeric_limits<std::int64_t>::min()));
  std::vector<TenantSnapshot> out;
  std::vector<metrics::WindowTotals> keys;
  std::vector<std::vector<trace::TimeInterval>> runs;
  for (bool copy_runs = live > 1;; copy_runs = true) {
    out.assign(1, TenantSnapshot{"all", {}, {}});
    keys.clear();
    runs.clear();
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      for (const auto& [name, tenant] : shard->tenants) {
        out.push_back(TenantSnapshot{name, *tenant, tenant->window.totals()});
        if (!tenant->window.any()) continue;
        keys.push_back(out.back().window);
        if (copy_runs) {
          const std::span<const trace::TimeInterval> busy =
              tenant->window.busy_runs();
          runs.emplace_back(busy.begin(), busy.end());
        }
      }
    }
    if (copy_runs || keys.size() < 2) break;
  }
  std::sort(out.begin() + 1, out.end(),
            [](const TenantSnapshot& a, const TenantSnapshot& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 1; i < out.size(); ++i) out[0].totals += out[i].totals;
  const std::vector<std::span<const trace::TimeInterval>> run_spans(
      runs.begin(), runs.end());
  out[0].window = metrics::combined_totals(keys, run_spans, window_);
  return out;
}

std::string TenantShards::prometheus_text(const ingest::Counters& transport) {
  using ingest::family;
  using ingest::metric;
  const std::vector<TenantSnapshot> all_then_tenants = rows();
  const TenantSnapshot& all = all_then_tenants.front();
  const std::span<const TenantSnapshot> tenants =
      std::span(all_then_tenants).subspan(1);

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
         "Agent connections accepted.", transport.connected_total);
  metric(out, "bpsio_agents_active", "gauge",
         "Agent connections currently open.", transport.active);
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

std::string TenantShards::csv_snapshot() {
  std::string out =
      "tenant,records_total,blocks_total,window_records,window_blocks,"
      "window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s\n";
  const auto row = [&](const TenantSnapshot& t) {
    out += t.name;
    out += "," + std::to_string(t.totals.records_total) + "," +
           std::to_string(t.totals.blocks_total);
    ingest::csv_cells(out, {t.window, block_size_});
    out += "\n";
  };
  for (const TenantSnapshot& t : rows()) row(t);
  return out;
}

}  // namespace bpsio::collector
