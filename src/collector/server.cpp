#include "collector/server.hpp"

#include <algorithm>
#include <utility>

namespace bpsio::collector {
namespace {

ingest::NodeOptions node_options(CollectorOptions options) {
  ingest::NodeOptions node;
  static_cast<ingest::CommonOptions&>(node) = options;
  node.name = "collector";
  node.tcp_port = options.tcp_port;
  node.tcp_port_file = std::move(options.tcp_port_file);
  node.drain_tenant_dir = std::move(options.drain_tenant_dir);
  node.io_threads = std::max<std::size_t>(options.io_threads, 1);
  node.expect_conns = options.expect_agents;
  return node;
}

}  // namespace

CollectorServer::CollectorServer(CollectorOptions options)
    : shards_(std::max<std::size_t>(options.shards, 1), options.window,
              options.block_size),
      node_(node_options(std::move(options)), *this) {}

ingest::Role::Sink CollectorServer::open_stream(const std::string& tenant,
                                                std::uint64_t /*serial*/) {
  TenantShards::Tenant* handle = shards_.handle(tenant);
  return [this, handle](std::span<const trace::IoRecord> frame) {
    shards_.ingest(handle, frame);
  };
}

std::string CollectorServer::metrics_text(SimTime now) {
  shards_.advance_windows(now);
  return shards_.prometheus_text(transport());
}

std::string CollectorServer::csv_text(SimTime now) {
  shards_.advance_windows(now);
  return shards_.csv_snapshot();
}

}  // namespace bpsio::collector
