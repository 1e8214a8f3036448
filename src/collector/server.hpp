// bpsio_collectord's server: the collector role on the shared ingest engine
// (ingest/node.hpp) — the fleet-scale tier above bpsio_agentd.
//
// One collector ingests BPSF/BPSG frame streams from many agents — capture
// clients pointed straight at it, or bpsio_agentd forwarders shipping their
// downstream traffic upstream (--forward). The engine accepts on the main
// thread and services connections on --io-threads workers; this role files
// each decoded span under its connection's tenant in the sharded
// TenantShards (a connection's hello names the tenant; hello-less
// connections land in "default"). The tenant handle is resolved once per
// (connection, origin stream) and cached in that stream's sink.
//
// Drain: with --drain, the engine's per-(connection, origin stream) spools
// are k-way merged at shutdown into one sorted v2 trace with bit-identical
// B and T to a direct file spill of the same records; --drain-tenant-dir
// additionally writes one merged trace per tenant.
#pragma once

#include <cstdint>
#include <string>

#include "collector/tenant_shards.hpp"
#include "common/result.hpp"
#include "ingest/node.hpp"

namespace bpsio::collector {

/// Tenant label for connections that never sent a hello frame.
inline constexpr const char* kDefaultTenant = ingest::kDefaultTenant;

struct CollectorOptions : ingest::CommonOptions {
  /// TCP ingest port for agents on other hosts' loopback-forwarded tunnels
  /// (bound on 127.0.0.1 — fleet transport security is out of scope).
  /// 0 picks an ephemeral port (see tcp_port_file); -1 disables TCP ingest.
  int tcp_port = -1;
  /// When non-empty, the bound TCP ingest port is written here.
  std::string tcp_port_file;

  /// When non-empty, shutdown additionally writes one merged trace per
  /// tenant at <dir>/tenant-<name>.bpstrace (tenant ids are filename-safe
  /// by charset). Spools under spool_dir back it like the drain.
  std::string drain_tenant_dir;

  /// I/O worker threads servicing agent connections (at least 1).
  std::size_t io_threads = 2;
  /// Tenant shard count for TenantShards.
  std::size_t shards = 8;

  /// When > 0, run() returns on its own once this many agent connections
  /// have been accepted and all of them have closed.
  std::uint64_t expect_agents = 0;
};

class CollectorServer : private ingest::Role {
 public:
  explicit CollectorServer(CollectorOptions options);

  CollectorServer(const CollectorServer&) = delete;
  CollectorServer& operator=(const CollectorServer&) = delete;

  /// Bind the listeners, write the port files, create the spool directory.
  /// Call once before run().
  Status start() { return node_.start(); }

  /// Serve until the stop flag is raised or expect_agents is satisfied,
  /// then close remaining connections, join the workers, and — when
  /// configured — drain.
  Status run() { return node_.run(); }

  /// The bound HTTP port (valid after start() when http_port >= 0).
  int http_port() const { return node_.http_port(); }
  /// The bound TCP ingest port (valid after start() when tcp_port >= 0).
  int tcp_port() const { return node_.tcp_port(); }

  const TenantShards& shards() const { return shards_; }
  /// Rendering slides the windows, so it needs the state itself.
  TenantShards& shards() { return shards_; }
  ingest::Counters transport() const { return node_.counters(); }

 private:
  Sink open_stream(const std::string& tenant, std::uint64_t serial) override;
  std::string metrics_text(SimTime now) override;
  std::string csv_text(SimTime now) override;

  TenantShards shards_;
  ingest::Node node_;
};

}  // namespace bpsio::collector
