// bpsio_collectord — fleet-scale BPS collector daemon.
//
// The tier above bpsio_agentd: many agents (or capture clients directly)
// ship length-prefixed record frames here over a Unix-domain socket or
// loopback TCP; the collector maintains sliding-window BPS / IOPS / BW /
// ARPT per TENANT (announced by each connection's hello frame; hello-less
// connections land in "default") plus the fleet-wide stream, serves them as
// Prometheus plaintext on GET /metrics, optionally rewrites a per-tenant
// CSV snapshot every interval, and on shutdown can drain everything it
// received into a single merged v2 .bpstrace (plus one trace per tenant)
// that bpsio_report analyzes exactly like a direct file spill.
//
//   bpsio_collectord --socket=/tmp/bpsio-collector.sock [options]
//
// Run `bpsio_collectord --help` for the flag list. Typical two-tier session:
//
//   bpsio_collectord --socket=/tmp/collector.sock --http-port=9124 &
//   bpsio_agentd --socket=/tmp/agent.sock
//       --forward=/tmp/collector.sock --forward-tenant=web &
//   BPSIO_CAPTURE_SOCKET=/tmp/agent.sock
//     LD_PRELOAD=$PWD/libbpsio_capture.so ./your_app
//   curl -s localhost:9124/metrics | grep 'tenant="web"'
//
// SIGINT/SIGTERM stop the daemon cleanly (drain included).
#include <string>

#include "collector/server.hpp"
#include "daemon_cli.hpp"

namespace bpsio {
namespace {

int run_collectord(int argc, char** argv) {
  collector::CollectorOptions opt;
  cli::DaemonCli daemon(
      "bpsio_collectord",
      "Fleet-scale BPS collector: aggregates frame streams from many agents "
      "into\nper-tenant windowed metrics on /metrics, with an optional "
      "merged drain trace.",
      opt);
  cli::ArgParser& parser = daemon.parser();
  daemon.add_socket();
  long long tcp_port = -1;
  parser.add_int("--tcp-port", &tcp_port, -1, 65535, "PORT",
                 "loopback TCP ingest port; 0 = ephemeral, -1 = no TCP "
                 "(default -1)");
  parser.add_string("--tcp-port-file", &opt.tcp_port_file, "PATH",
                    "write the bound TCP ingest port here");
  daemon.add_outputs("rewrite a per-tenant CSV snapshot here every interval");
  parser.add_string("--drain-tenant-dir", &opt.drain_tenant_dir, "DIR",
                    "on shutdown, also write tenant-<name>.bpstrace per "
                    "tenant here");
  daemon.add_spool_dir("per-stream spool directory backing the drains "
                       "(default: <drain path>.spool.d)");
  daemon.add_window();
  long long io_threads = 2;
  parser.add_int("--io-threads", &io_threads, 1, 256, "N",
                 "I/O worker threads servicing agent connections "
                 "(default 2)");
  long long shards = 8;
  parser.add_int("--shards", &shards, 1, 4096, "N",
                 "tenant shard count for the metric state (default 8)");
  long long expect_agents = 0;
  parser.add_int("--expect-agents", &expect_agents, 1, 1'000'000, "N",
                 "exit once N agent connections have come and gone "
                 "(deterministic shutdown for tests/CI)");
  if (const int code = daemon.parse(argc, argv, opt.drain_tenant_dir);
      code >= 0) {
    return code;
  }
  opt.tcp_port = static_cast<int>(tcp_port);
  opt.io_threads = static_cast<std::size_t>(io_threads);
  opt.shards = static_cast<std::size_t>(shards);
  opt.expect_agents = static_cast<std::uint64_t>(expect_agents);

  collector::CollectorServer server(std::move(opt));
  return daemon.serve(server, [&server] {
    const collector::TenantShards& shards_state = server.shards();
    return std::to_string(shards_state.records_total()) + " records, " +
           std::to_string(shards_state.blocks_total()) + " blocks, " +
           std::to_string(shards_state.tenants_seen()) + " tenant(s), " +
           std::to_string(server.transport().connected_total) +
           " agent(s)";
  });
}

}  // namespace
}  // namespace bpsio

int main(int argc, char** argv) { return bpsio::run_collectord(argc, argv); }
