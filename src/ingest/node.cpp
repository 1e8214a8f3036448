#include "ingest/node.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/net_util.hpp"
#include "common/poll_loop.hpp"
#include "common/wallclock.hpp"
#include "trace/frame.hpp"
#include "trace/merge.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::ingest {
namespace {

constexpr int kPollIntervalMs = 50;
constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr int kBacklog = 128;

std::string join_path(std::string dir, const std::string& name) {
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

}  // namespace

/// One (connection, origin stream): the role's sink and, when draining, the
/// stream's spool. Each origin stream is start-ordered by the framing
/// contract, so every spool is a sorted run the drain merges without a sort.
struct Node::Stream {
  std::uint64_t serial = 0;
  Role::Sink sink;
  std::unique_ptr<trace::SpillWriter> spool;
  std::string spool_path;
};

struct Node::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  trace::FrameDecoder decoder;
  std::uint64_t frames_counted = 0;
  std::map<std::uint64_t, Stream> streams;  ///< origin stream id -> stream

  std::string tenant() const {
    return decoder.tenant().empty() ? kDefaultTenant : decoder.tenant();
  }
};

/// The connections one thread services. The owning thread has conns and
/// conn_fds to itself; only the inbox crosses threads.
struct Node::Worker {
  Mutex inbox_mu;
  std::vector<std::pair<int, std::uint64_t>> inbox  // (fd, conn id)
      BPSIO_GUARDED_BY(inbox_mu);
  std::atomic<bool> finish{false};
  std::vector<Conn> conns;
  std::vector<int> conn_fds;  ///< index-aligned with conns
  std::thread thread;
};

Node::Node(NodeOptions options, Role& role)
    : options_(std::move(options)),
      role_(role),
      log_name_("bpsio_" + options_.name + "d"),
      main_(std::make_unique<Worker>()) {
  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

Node::~Node() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->finish.store(true, std::memory_order_release);
      worker->thread.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
}

Status Node::bind_loopback(int port, const std::string& port_file,
                           const char* what, int& fd, int& bound) {
  if (port < 0) return {};
  fd = net::bind_loopback_listener(port, kBacklog, &bound);
  if (fd < 0) {
    return Error{Errc::io_error, options_.name + ": cannot bind " + what +
                                     " " + std::to_string(port)};
  }
  if (!port_file.empty() &&
      !net::write_file_atomic(port_file, std::to_string(bound) + "\n")) {
    return Error{Errc::io_error,
                 options_.name + ": cannot write port file " + port_file};
  }
  return {};
}

Status Node::start() {
  const std::string& name = options_.name;
  if (options_.socket_path.empty()) {
    return Error{Errc::invalid_argument, name + ": socket path is required"};
  }
  spooling_ =
      !options_.drain_path.empty() || !options_.drain_tenant_dir.empty();
  if (spooling_) {
    if (options_.spool_dir.empty()) {
      return Error{Errc::invalid_argument,
                   name + ": draining requires a spool directory"};
    }
    std::error_code ec;
    std::filesystem::create_directories(options_.spool_dir, ec);
    if (ec) {
      return Error{Errc::io_error,
                   name + ": cannot create spool dir " + options_.spool_dir};
    }
  }
  listen_fd_ = net::bind_unix_listener(options_.socket_path, kBacklog);
  if (listen_fd_ < 0) {
    return Error{Errc::io_error,
                 name + ": cannot bind/listen on " + options_.socket_path};
  }
  if (Status s = bind_loopback(options_.tcp_port, options_.tcp_port_file,
                               "TCP ingest port", tcp_fd_, bound_tcp_port_);
      !s.ok()) {
    return s;
  }
  if (Status s = bind_loopback(options_.http_port, options_.port_file,
                               "HTTP port", http_fd_, bound_http_port_);
      !s.ok()) {
    return s;
  }
  last_csv_ns_ = monotonic_ns();
  started_ = true;
  return {};
}

Counters Node::counters() const {
  Counters c;
  c.connected_total = connected_total_.load(std::memory_order_relaxed);
  c.active = active_.load(std::memory_order_relaxed);
  c.frames_total = frames_total_.load(std::memory_order_relaxed);
  c.bad_frames_total = bad_frames_total_.load(std::memory_order_relaxed);
  c.streams_total = streams_total_.load(std::memory_order_relaxed);
  return c;
}

void Node::accept_conns(int listener_fd) {
  for (;;) {
    const int fd =
        ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient: nothing more to accept now
    const std::uint64_t id = ++conn_serial_;
    connected_total_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    Worker& worker =
        workers_.empty() ? *main_ : *workers_[id % workers_.size()];
    MutexLock lock(worker.inbox_mu);
    worker.inbox.emplace_back(fd, id);
  }
}

void Node::accept_http() {
  for (;;) {
    const int fd = ::accept4(http_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) return;
    net::serve_plain_http(
        fd, [this] { return role_.metrics_text(SimTime(monotonic_ns())); });
  }
}

void Node::write_csv() {
  if (!net::write_file_atomic(options_.csv_path,
                              role_.csv_text(SimTime(monotonic_ns())))) {
    std::fprintf(stderr, "%s: cannot write CSV snapshot %s\n",
                 log_name_.c_str(), options_.csv_path.c_str());
  }
}

void Node::adopt_inbox(Worker& worker) {
  std::vector<std::pair<int, std::uint64_t>> adopted;
  {
    MutexLock lock(worker.inbox_mu);
    adopted.swap(worker.inbox);
  }
  for (const auto& [fd, id] : adopted) {
    Conn conn;
    conn.fd = fd;
    conn.id = id;
    worker.conns.push_back(std::move(conn));
    worker.conn_fds.push_back(fd);
  }
}

Status Node::poll_round(Worker& worker, PollLoop& loop) {
  adopt_inbox(worker);
  return loop.round(worker.conn_fds, kPollIntervalMs, [&](std::size_t i) {
    if (service(worker.conns[i])) return true;
    worker.conns.erase(worker.conns.begin() + static_cast<std::ptrdiff_t>(i));
    worker.conn_fds.erase(worker.conn_fds.begin() +
                          static_cast<std::ptrdiff_t>(i));
    return false;
  });
}

void Node::run_worker(Worker& worker) {
  PollLoop loop;
  while (!worker.finish.load(std::memory_order_acquire)) {
    if (const Status polled = poll_round(worker, loop); !polled.ok()) {
      std::fprintf(stderr, "%s: worker poll failed: %s\n", log_name_.c_str(),
                   polled.to_string().c_str());
      break;
    }
  }
  close_all(worker);
}

void Node::close_all(Worker& worker) {
  // The listeners close before any finish flag is raised, so the inbox is
  // final: adopt it, then read what already arrived on every connection and
  // close it.
  adopt_inbox(worker);
  for (Conn& conn : worker.conns) {
    if (service(conn)) close_conn(conn, conn.decoder.pending_bytes() != 0);
  }
  worker.conns.clear();
  worker.conn_fds.clear();
}

bool Node::open_stream(const Conn& conn, std::uint64_t stream_id,
                       Stream& stream) {
  stream.serial = stream_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  stream.sink = role_.open_stream(conn.tenant(), stream.serial);
  if (!spooling_) return true;
  char name[64];
  std::snprintf(name, sizeof name, "c%020llu-s%020llu.bpstrace",
                static_cast<unsigned long long>(conn.id),
                static_cast<unsigned long long>(stream_id));
  stream.spool_path = join_path(options_.spool_dir, name);
  stream.spool = std::make_unique<trace::SpillWriter>(stream.spool_path);
  streams_total_.fetch_add(1, std::memory_order_relaxed);
  if (stream.spool->ok()) return true;
  // The drain promise is broken; keep serving live metrics for everyone
  // else but drop this connection and fail the final drain loudly rather
  // than writing an incomplete trace.
  std::fprintf(stderr, "%s: cannot open spool %s; dropping connection\n",
               log_name_.c_str(), stream.spool_path.c_str());
  spool_error_.store(true, std::memory_order_relaxed);
  return false;
}

bool Node::service(Conn& conn) {
  char buf[kRecvChunk];
  bool spool_failed = false;
  // Each completed frame reaches the role and the stream's spool as one
  // span over the recv buffer (or the decoder's scratch for split frames).
  const trace::FrameDecoder::TaggedFrameSink sink =
      [this, &conn, &spool_failed](std::uint64_t stream_id,
                                   std::span<const trace::IoRecord> frame) {
        auto [it, fresh] = conn.streams.try_emplace(stream_id);
        Stream& stream = it->second;
        if (fresh && !open_stream(conn, stream_id, stream)) spool_failed = true;
        stream.sink(frame);
        if (stream.spool != nullptr && stream.spool->ok()) {
          stream.spool->append(frame);
        }
      };
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      close_conn(conn, /*torn_tail=*/false);
      return false;
    }
    if (n == 0) {  // orderly EOF from the sender's close()
      close_conn(conn, conn.decoder.pending_bytes() != 0);
      return false;
    }
    const Status fed =
        conn.decoder.feed(buf, static_cast<std::size_t>(n), sink);
    frames_total_.fetch_add(conn.decoder.frames_decoded() - conn.frames_counted,
                            std::memory_order_relaxed);
    conn.frames_counted = conn.decoder.frames_decoded();
    if (!fed.ok()) {
      bad_frames_total_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "%s: dropping connection: %s\n", log_name_.c_str(),
                   fed.to_string().c_str());
      close_conn(conn, /*torn_tail=*/false);
      return false;
    }
    if (spool_failed) {
      close_conn(conn, /*torn_tail=*/false);
      return false;
    }
  }
}

void Node::close_conn(Conn& conn, bool torn_tail) {
  if (torn_tail) {
    // The peer died mid-send. Those records were never acknowledged as
    // delivered, so the sender re-ships them via its spill path.
    std::fprintf(stderr,
                 "%s: connection closed mid-frame (%zu bytes discarded; "
                 "sender re-ships unacknowledged buffers)\n",
                 log_name_.c_str(), conn.decoder.pending_bytes());
  }
  const std::string tenant = conn.tenant();
  for (auto& [stream_id, stream] : conn.streams) {
    role_.close_stream(stream.serial);
    if (stream.spool == nullptr) continue;
    const bool was_ok = stream.spool->ok();
    const Status closed = stream.spool->close();
    if (!was_ok || !closed.ok()) {
      std::fprintf(stderr, "%s: spool close failed: %s\n", log_name_.c_str(),
                   closed.to_string().c_str());
      spool_error_.store(true, std::memory_order_relaxed);
      continue;
    }
    MutexLock lock(spool_mu_);
    closed_spools_.push_back(SpoolRecord{stream.spool_path, tenant});
  }
  conn.streams.clear();
  ::close(conn.fd);
  conn.fd = -1;
  active_.fetch_sub(1, std::memory_order_relaxed);
}

Status Node::run() {
  BPSIO_CHECK(started_, "ingest::Node::run() before start()");
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { run_worker(*w); });
  }
  PollLoop loop;
  for (const int fd : {listen_fd_, tcp_fd_}) {
    if (fd >= 0) loop.add_listener(fd, [this, fd] { accept_conns(fd); });
  }
  if (http_fd_ >= 0) loop.add_listener(http_fd_, [this] { accept_http(); });

  Status failure;
  for (;;) {
    if (options_.stop != nullptr &&
        options_.stop->load(std::memory_order_relaxed)) {
      break;
    }
    if (options_.expect_conns > 0 &&
        connected_total_.load(std::memory_order_relaxed) >=
            options_.expect_conns &&
        active_.load(std::memory_order_relaxed) == 0) {
      break;
    }
    if (const Status polled = poll_round(*main_, loop); !polled.ok()) {
      failure = Error{Errc::io_error, options_.name + ": poll failed"};
      break;
    }
    role_.end_round();
    if (!options_.csv_path.empty()) {
      const std::int64_t now = monotonic_ns();
      if (now - last_csv_ns_ >= options_.csv_interval.ns()) {
        write_csv();
        last_csv_ns_ = now;
      }
    }
  }

  // Shutdown: stop accepting, then every servicing thread runs a final pass
  // over what already arrived and closes its connections. Records still in
  // flight are the sender's by contract (a frame is delivered only when
  // fully received).
  ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());
  listen_fd_ = -1;
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (auto& worker : workers_) {
    worker->finish.store(true, std::memory_order_release);
  }
  close_all(*main_);
  for (auto& worker : workers_) worker->thread.join();
  role_.finish();
  if (!options_.csv_path.empty()) write_csv();

  if (!failure.ok()) return failure;
  if (spool_error_.load(std::memory_order_relaxed)) {
    return Error{Errc::io_error,
                 options_.name +
                     ": spool failure during the run; refusing to write an "
                     "incomplete drain"};
  }
  if (spooling_) return drain();
  return {};
}

Status Node::drain() {
  // Every servicing thread is done; closed_spools_ is complete. Each spool
  // is one (connection, origin stream)'s start-ordered records, so the k-way
  // merge — bpsio_report's recipe for per-thread spill files — needs no sort.
  std::vector<SpoolRecord> spools;
  {
    MutexLock lock(spool_mu_);
    spools.swap(closed_spools_);
  }
  const std::string& name = options_.name;
  if (!options_.drain_path.empty()) {
    std::vector<std::string> paths;
    paths.reserve(spools.size());
    for (const SpoolRecord& s : spools) paths.push_back(s.path);
    if (const Status merged =
            trace::merge_trace_files(std::move(paths), options_.drain_path);
        !merged.ok()) {
      return Error{Errc::io_error,
                   name + ": drain failed: " + merged.to_string()};
    }
  }
  if (!options_.drain_tenant_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.drain_tenant_dir, ec);
    if (ec) {
      return Error{Errc::io_error,
                   name + ": cannot create drain dir " +
                       options_.drain_tenant_dir};
    }
    std::map<std::string, std::vector<std::string>> by_tenant;
    for (const SpoolRecord& s : spools) by_tenant[s.tenant].push_back(s.path);
    for (auto& [tenant, paths] : by_tenant) {
      const std::string out = join_path(options_.drain_tenant_dir,
                                        "tenant-" + tenant + ".bpstrace");
      if (const Status merged = trace::merge_trace_files(std::move(paths), out);
          !merged.ok()) {
        return Error{Errc::io_error, name + ": tenant drain failed for " +
                                         tenant + ": " + merged.to_string()};
      }
    }
  }
  for (const SpoolRecord& s : spools) {
    std::error_code ec;
    std::filesystem::remove(s.path, ec);
  }
  std::error_code ec;
  std::filesystem::remove(options_.spool_dir, ec);  // only when now empty
  return {};
}

}  // namespace bpsio::ingest
