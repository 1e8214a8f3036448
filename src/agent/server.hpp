// bpsio_agentd's server: the agent role on the shared ingest engine
// (ingest/node.hpp).
//
// Capture clients (the LD_PRELOAD interposer with BPSIO_CAPTURE_SOCKET set)
// connect to a Unix-domain stream socket and ship length-prefixed frames of
// v2 IoRecords (trace/frame.hpp). The engine runs inline — every connection
// on the one poll() loop, no threads, no locks — and this role feeds each
// decoded span to a pid-keyed MetricAggregator and, with --forward, to a
// ForwardLink that re-ships it upstream to a bpsio_collectord under the
// span's (connection, origin stream) serial. With --drain the engine spools
// each (connection, origin stream) to its own .bpstrace and k-way merges
// them at shutdown, exactly the way bpsio_report merges per-thread spill
// files, so the drained trace yields bit-identical B and T to a direct file
// spill of the same run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "agent/aggregator.hpp"
#include "agent/forward.hpp"
#include "common/result.hpp"
#include "ingest/node.hpp"

namespace bpsio::agent {

struct AgentOptions : ingest::CommonOptions {
  /// When non-empty, every received frame is also shipped upstream to a
  /// bpsio_collectord at this target ("host:port" = loopback TCP, anything
  /// else = Unix socket path) as tagged frames preserving each capture
  /// stream's identity. See agent/forward.hpp.
  std::string forward_target;
  /// Tenant id announced to the collector (trace/valid_tenant charset).
  std::string forward_tenant = "default";
  /// Fallback spill directory for the upstream link; empty = drop (counted)
  /// when the upstream fails.
  std::string forward_spill_dir;
  /// Records per upstream frame.
  std::size_t forward_batch = 4096;

  /// When > 0, run() returns on its own once this many capture connections
  /// have been accepted and all of them have closed — the deterministic
  /// exit used by tests and CI instead of a signal.
  std::uint64_t expect_clients = 0;
};

class AgentServer : private ingest::Role {
 public:
  explicit AgentServer(AgentOptions options);

  AgentServer(const AgentServer&) = delete;
  AgentServer& operator=(const AgentServer&) = delete;

  /// Bind the capture socket (and the HTTP socket when enabled), write the
  /// port file, dial the upstream when forwarding. Call once before run().
  Status start();

  /// Serve until the stop flag is raised or expect_clients is satisfied,
  /// then close remaining connections and — when configured — drain.
  Status run() { return node_.run(); }

  /// The bound HTTP port (valid after start() when http_port >= 0).
  int http_port() const { return node_.http_port(); }

  const MetricAggregator& aggregator() const { return aggregator_; }
  TransportStats transport() const;

 private:
  Sink open_stream(const std::string& tenant, std::uint64_t serial) override;
  void close_stream(std::uint64_t serial) override;
  void end_round() override;
  void finish() override;
  std::string metrics_text(SimTime now) override;
  std::string csv_text(SimTime now) override;

  AgentOptions options_;
  MetricAggregator aggregator_;
  std::unique_ptr<ForwardLink> forward_;
  ingest::Node node_;
};

}  // namespace bpsio::agent
