// The one connection engine behind bpsio_agentd and bpsio_collectord: the
// paper's "gather all per-process records into a global collection" step
// (Section III.B) run as a service.
//
// A Node owns everything about the transport and nothing about what the
// records mean:
//
//   * the listeners (Unix socket, optional loopback TCP, optional loopback
//     HTTP) and their port files;
//   * accept, and per-connection recv -> trace::FrameDecoder with the
//     hello/tenant handshake (hello-less connections are tenant "default");
//   * one spool per (connection, origin stream) when a drain is requested,
//     and the shutdown k-way merge of those spools into the drain and the
//     per-tenant drains;
//   * GET /metrics + /healthz, the CSV ticker, the transport counters, and
//     the stop / expect / shutdown logic.
//
// What the records mean is a Role's business: the engine opens one Role
// sink per (connection, origin stream) at its first data frame and hands it
// every decoded span as a view over the recv buffer. The agent role is a
// MetricAggregator plus an optional ForwardLink (agent/server.hpp); the
// collector role is TenantShards (collector/server.hpp).
//
// Threads. With io_threads == 0 the connections are serviced on run()'s own
// poll loop, next to the listeners — one thread, no locks, which is how the
// agent runs. With io_threads == N the main loop only accepts (handing each
// connection round-robin to a worker through a mutex-protected inbox that
// the worker adopts within one 50 ms round) and answers HTTP; each worker
// owns its connections' decoders and spools outright.
//
// Failure isolation. A malformed frame poisons only its connection; a peer
// dying mid-frame discards only the torn tail (never acknowledged, so the
// sender re-ships it through its spill path). A spool that cannot be opened
// or closed drops its connection and makes run() refuse to write an
// incomplete drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"
#include "trace/io_record.hpp"

namespace bpsio {
class PollLoop;  // common/poll_loop.hpp
}

namespace bpsio::ingest {

/// Tenant label for connections that never sent a hello frame.
inline constexpr const char* kDefaultTenant = "default";

/// The settings both daemons share; AgentOptions and CollectorOptions
/// extend it.
struct CommonOptions {
  /// Unix-domain socket path senders connect to (required). An existing
  /// socket file at this path is replaced.
  std::string socket_path;

  /// TCP port for the plaintext /metrics endpoint, bound on 127.0.0.1.
  /// 0 picks an ephemeral port (see port_file); -1 disables HTTP entirely.
  int http_port = 0;
  /// When non-empty, the bound HTTP port is written here (a line with the
  /// decimal port) — the handshake for tests and scripts that start the
  /// daemon with an ephemeral port.
  std::string port_file;

  /// When non-empty, the role's CSV snapshot is rewritten atomically at
  /// this path every csv_interval.
  std::string csv_path;
  SimDuration csv_interval = SimDuration::from_seconds(1);

  /// When non-empty, shutdown writes a single merged, (start, end)-ordered
  /// v2 .bpstrace here containing every record received.
  std::string drain_path;
  /// Directory for the per-stream spool files backing the drains (required
  /// when draining; created if missing; spools are deleted after a
  /// successful drain).
  std::string spool_dir;

  /// Sliding-window length for the live metrics.
  SimDuration window = SimDuration::from_seconds(10);
  /// Block unit for byte-denominated outputs (BPSIO_CAPTURE_BLOCK_SIZE of
  /// the traced run).
  Bytes block_size = kDefaultBlockSize;

  /// External stop flag (e.g. set by a SIGTERM handler); polled every loop
  /// iteration. May be null.
  const std::atomic<bool>* stop = nullptr;
};

/// Engine settings: the shared ones plus what each role adapter fixes.
struct NodeOptions : CommonOptions {
  /// "agent" or "collector": prefixes returned errors; log lines go out as
  /// "bpsio_<name>d: ...".
  std::string name;
  /// Loopback TCP ingest port; 0 = ephemeral, -1 = none.
  int tcp_port = -1;
  /// When non-empty, the bound TCP ingest port is written here.
  std::string tcp_port_file;
  /// When non-empty, shutdown also writes <dir>/tenant-<name>.bpstrace per
  /// tenant (tenant ids are filename-safe by charset).
  std::string drain_tenant_dir;
  /// Worker threads servicing connections; 0 = run()'s own poll loop.
  std::size_t io_threads = 0;
  /// When > 0, run() returns on its own once this many connections have
  /// been accepted and all of them have closed.
  std::uint64_t expect_conns = 0;
};

/// Transport counters, as /metrics reports them.
struct Counters {
  std::uint64_t connected_total = 0;   ///< accepted connections ever
  std::uint64_t active = 0;            ///< currently-open connections
  std::uint64_t frames_total = 0;      ///< complete data frames decoded
  std::uint64_t bad_frames_total = 0;  ///< connections killed on a bad frame
  std::uint64_t streams_total = 0;     ///< (connection, stream) spools opened
};

/// What a daemon does with the records. open_stream, close_stream and the
/// sinks run on the thread servicing the connection (a worker when
/// io_threads > 0); the other hooks run on the thread inside Node::run().
class Role {
 public:
  using Sink = std::function<void(std::span<const trace::IoRecord>)>;

  /// A (connection, origin stream) delivered its first data frame. `serial`
  /// names the stream uniquely for the node's lifetime; `tenant` is the
  /// connection's hello tenant or kDefaultTenant.
  virtual Sink open_stream(const std::string& tenant, std::uint64_t serial) = 0;
  /// The stream's connection closed.
  virtual void close_stream(std::uint64_t /*serial*/) {}
  /// Tail of every main-loop poll round.
  virtual void end_round() {}
  /// Every connection is closed; runs before the final CSV snapshot and
  /// the drain.
  virtual void finish() {}
  /// /metrics body, windows advanced to `now` first.
  virtual std::string metrics_text(SimTime now) = 0;
  /// CSV snapshot, windows advanced to `now` first.
  virtual std::string csv_text(SimTime now) = 0;

 protected:
  ~Role() = default;
};

class Node {
 public:
  /// `role` must outlive the node.
  Node(NodeOptions options, Role& role);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Bind the listeners, write the port files, create the spool directory.
  /// Call once before run().
  Status start();

  /// Serve until the stop flag is raised or expect_conns is satisfied, then
  /// service what already arrived, close every connection, join the
  /// workers, and — when configured — drain. A failed poll or spool
  /// surfaces here; a single client's failure never does.
  Status run();

  /// The bound HTTP port (valid after start() when http_port >= 0).
  int http_port() const { return bound_http_port_; }
  /// The bound TCP ingest port (valid after start() when tcp_port >= 0).
  int tcp_port() const { return bound_tcp_port_; }

  Counters counters() const;

 private:
  struct Stream;
  struct Conn;
  struct Worker;
  struct SpoolRecord {
    std::string path;
    std::string tenant;
  };

  Status bind_loopback(int port, const std::string& port_file,
                       const char* what, int& fd, int& bound);
  void accept_conns(int listener_fd);
  void accept_http();
  void adopt_inbox(Worker& worker);
  Status poll_round(Worker& worker, PollLoop& loop);
  void run_worker(Worker& worker);
  void close_all(Worker& worker);
  /// Returns false when the connection is finished (EOF or error) and has
  /// been closed.
  bool service(Conn& conn);
  bool open_stream(const Conn& conn, std::uint64_t stream_id, Stream& stream);
  void close_conn(Conn& conn, bool torn_tail);
  void write_csv();
  Status drain();

  NodeOptions options_;
  Role& role_;
  std::string log_name_;
  bool spooling_ = false;
  int listen_fd_ = -1;
  int tcp_fd_ = -1;
  int http_fd_ = -1;
  int bound_tcp_port_ = -1;
  int bound_http_port_ = -1;
  /// Connections run()'s own loop services (all of them when io_threads is
  /// 0, none otherwise).
  std::unique_ptr<Worker> main_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t conn_serial_ = 0;  ///< main thread only (accept path)
  std::atomic<std::uint64_t> stream_serial_{0};
  std::atomic<std::uint64_t> connected_total_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_total_{0};
  std::atomic<std::uint64_t> bad_frames_total_{0};
  std::atomic<std::uint64_t> streams_total_{0};
  std::atomic<bool> spool_error_{false};
  Mutex spool_mu_;
  std::vector<SpoolRecord> closed_spools_ BPSIO_GUARDED_BY(spool_mu_);
  std::int64_t last_csv_ns_ = 0;
  bool started_ = false;
};

}  // namespace bpsio::ingest
