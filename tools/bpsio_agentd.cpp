// bpsio_agentd — live BPS aggregation daemon.
//
// The daemon end of BPSIO_CAPTURE_SOCKET: capture clients (LD_PRELOAD
// interposer) ship their record buffers here as length-prefixed frames over
// a Unix-domain socket; the daemon maintains sliding-window BPS / IOPS /
// BW / ARPT for the global stream and per pid, serves them as Prometheus
// plaintext on GET /metrics (127.0.0.1), optionally rewrites a CSV snapshot
// every interval, and on shutdown can drain everything it received into a
// single merged v2 .bpstrace that bpsio_report analyzes exactly like a
// direct file spill.
//
//   bpsio_agentd --socket=/tmp/bpsio.sock [options]
//
// Run `bpsio_agentd --help` for the flag list. Typical live session:
//
//   bpsio_agentd --socket=/tmp/bpsio.sock --http-port=9123 &
//   BPSIO_CAPTURE_SOCKET=/tmp/bpsio.sock BPSIO_CAPTURE_DIR=/tmp/spill
//     LD_PRELOAD=$PWD/libbpsio_capture.so ./your_app
//   curl -s localhost:9123/metrics | grep bpsio_window_bps
//
// SIGINT/SIGTERM stop the daemon cleanly (drain included).
#include <string>

#include "agent/server.hpp"
#include "daemon_cli.hpp"

namespace bpsio {
namespace {

int run_agentd(int argc, char** argv) {
  agent::AgentOptions opt;
  cli::DaemonCli daemon(
      "bpsio_agentd",
      "Live BPS aggregation daemon: receives capture frames over a Unix "
      "socket,\nserves windowed metrics on /metrics, and can drain all "
      "records to a .bpstrace.",
      opt);
  cli::ArgParser& parser = daemon.parser();
  daemon.add_socket();
  daemon.add_outputs("rewrite a per-pid CSV snapshot here every interval");
  daemon.add_spool_dir("per-connection spool directory backing --drain "
                       "(default: <drain path>.spool.d)");
  parser.add_string("--forward", &opt.forward_target, "TARGET",
                    "ship every received frame upstream to a "
                    "bpsio_collectord (host:port = loopback TCP, otherwise "
                    "a Unix socket path)");
  parser.add_string("--forward-tenant", &opt.forward_tenant, "ID",
                    "tenant id announced to the collector (default "
                    "\"default\")");
  parser.add_string("--forward-spill-dir", &opt.forward_spill_dir, "DIR",
                    "fallback spill directory when the upstream link fails "
                    "(default: drop and count)");
  long long forward_batch = 4096;
  parser.add_int("--forward-batch", &forward_batch, 1, 1'048'576, "N",
                 "records per upstream frame (default 4096)");
  daemon.add_window();
  long long expect_clients = 0;
  parser.add_int("--expect-clients", &expect_clients, 1, 1'000'000, "N",
                 "exit once N capture connections have come and gone "
                 "(deterministic shutdown for tests/CI)");
  if (const int code = daemon.parse(argc, argv); code >= 0) return code;
  opt.expect_clients = static_cast<std::uint64_t>(expect_clients);
  opt.forward_batch = static_cast<std::size_t>(forward_batch);

  agent::AgentServer server(std::move(opt));
  return daemon.serve(server, [&server] {
    return std::to_string(server.aggregator().records_total()) +
           " records, " + std::to_string(server.aggregator().blocks_total()) +
           " blocks, " +
           std::to_string(server.transport().clients_connected_total) +
           " client(s)";
  });
}

}  // namespace
}  // namespace bpsio

int main(int argc, char** argv) { return bpsio::run_agentd(argc, argv); }
