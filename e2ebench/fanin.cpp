// `e2e fanin`: the agent side of collector_fanin. One sender thread drives
// every connection straight into bpsio_collectord; each connection is one
// agent that sent a tenant hello during set-up and then ships a fixed number
// of pre-encoded tagged frames (--frames; --max-ms caps the wall time) as
// fast as its socket accepts them (closed loop: the next frame starts only
// when the previous one was fully accepted). The main thread scrapes the
// collector's bpsio_records_total at a fixed cadence.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "common.hpp"
#include "trace/frame.hpp"

namespace e2e {
namespace {

using bpsio::trace::IoRecord;

struct Conn {
  std::string tenant;
  int fd = -1;
  std::vector<char> wire;                  ///< one encoded tile
  std::vector<std::size_t> frame_offset;   ///< start of each frame in `wire`
  std::vector<std::uint64_t> frame_blocks;
  std::int64_t span_ns = 0;
  std::int64_t shift = 0;  ///< time offset currently applied to the tile
  std::size_t frame = 0;
  std::uint64_t sent = 0;  ///< frames fully sent
  std::size_t pos = 0;     ///< bytes of the current frame already sent
  bool finished = false;
};

constexpr std::size_t kTaggedHeader = sizeof(bpsio::trace::TaggedFrameHeader);

std::size_t frame_size(const Conn& c, std::size_t f) {
  const std::size_t end =
      f + 1 < c.frame_offset.size() ? c.frame_offset[f + 1] : c.wire.size();
  return end - c.frame_offset[f];
}

/// Moves every record of the encoded tile `delta` ns later, keeping each
/// origin stream start-ordered across passes over the tile.
void shift_tile(Conn& c, std::int64_t delta) {
  for (const std::size_t off : c.frame_offset) {
    char* rec = c.wire.data() + off + kTaggedHeader;
    for (std::uint32_t k = 0; k < kFaninFrameRecords; ++k, rec += sizeof(IoRecord)) {
      for (const std::size_t field :
           {offsetof(IoRecord, start_ns), offsetof(IoRecord, end_ns)}) {
        std::int64_t v = 0;
        std::memcpy(&v, rec + field, sizeof v);
        v += delta;
        std::memcpy(rec + field, &v, sizeof v);
      }
    }
  }
  c.shift += delta;
}

int dial(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int run_fanin(const Flags& flags) {
  const std::string socket_path = flags.str("socket");
  const auto conns = static_cast<std::uint32_t>(flags.num("conns", 4));
  const auto budget = static_cast<std::uint64_t>(flags.num("frames", 1000));
  const std::int64_t run_ns = flags.num("max-ms", 60'000) * 1'000'000;
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const int port = static_cast<int>(flags.num("port", 0));
  const std::int64_t cadence_ns = flags.num("cadence-us", 5000) * 1000;
  const std::int64_t settle_ns = flags.num("settle-ms", 10000) * 1'000'000;
  const std::string spans_path = flags.str("spans");
  const bool traced = !spans_path.empty();

  // --- set-up: plan, pre-encoded tiles, connections, hellos --------------
  const std::vector<FaninConn> plan = fanin_plan(seed, conns);
  std::vector<Conn> cs(conns);
  for (std::uint32_t i = 0; i < conns; ++i) {
    Conn& c = cs[i];
    c.tenant = plan[i].tenant;
    c.span_ns = plan[i].span_ns;
    for (const FaninFrame& f : plan[i].frames) {
      c.frame_offset.push_back(c.wire.size());
      bpsio::trace::encode_tagged_frame(f.stream, f.records, c.wire);
      std::uint64_t blocks = 0;
      for (const IoRecord& r : f.records) blocks += r.blocks;
      c.frame_blocks.push_back(blocks);
    }
    c.fd = dial(socket_path);
    std::vector<char> hello;
    bpsio::trace::encode_hello(c.tenant, hello);
    if (c.fd < 0 || !write_all(c.fd, hello.data(), hello.size())) {
      std::fprintf(stderr, "e2e fanin: cannot reach %s\n", socket_path.c_str());
      return 2;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  Histogram hist;
  std::vector<Completion> events;
  events.reserve(std::size_t{1} << 20);
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  if (traced) spans.reserve(budget * conns);

  std::cout << "ready" << std::endl;
  std::string command;
  std::getline(std::cin, command);
  if (command != "go") {
    for (Conn& c : cs) ::close(c.fd);
    return 0;
  }

  // --- measured phase -----------------------------------------------------
  const std::int64_t t_go = now_ns();
  const std::int64_t deadline = t_go + run_ns;
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> sent_total{0};
  std::uint64_t calls = 0, frames = 0, records = 0, blocks = 0, failed = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> per_tenant;
  for (const Conn& c : cs) per_tenant[c.tenant] = {0, 0};
  std::int64_t first_send = 0, last_send = 0;

  std::thread sender([&] {
    for (Conn& c : cs) shift_tile(c, t_go);
    first_send = now_ns();
    std::vector<pollfd> pfds;
    std::vector<Conn*> polled;
    for (;;) {
      pfds.clear();
      polled.clear();
      for (Conn& c : cs) {
        if (c.finished) continue;
        pfds.push_back({c.fd, POLLOUT, 0});
        polled.push_back(&c);
      }
      if (pfds.empty()) break;
      if (::poll(pfds.data(), pfds.size(), 100) < 0 && errno != EINTR) break;
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        Conn& c = *polled[k];
        if (pfds[k].revents & (POLLERR | POLLHUP)) {
          c.finished = true;
          ++failed;
          continue;
        }
        if (!(pfds[k].revents & POLLOUT)) continue;
        for (;;) {  // keep sending while the socket accepts
          if (c.pos == 0 && (c.sent == budget || now_ns() >= deadline)) {
            c.finished = true;
            break;
          }
          const std::size_t size = frame_size(c, c.frame);
          const std::int64_t t0 = now_ns();
          const ssize_t n = ::send(c.fd, c.wire.data() + c.frame_offset[c.frame] + c.pos,
                                   size - c.pos, MSG_NOSIGNAL | MSG_DONTWAIT);
          const std::int64_t t1 = now_ns();
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
            c.finished = true;
            ++failed;
            break;
          }
          // One I/O call of the agent: a send() that moved bytes. Waiting for
          // socket space happens in poll(), between calls.
          hist.add(static_cast<std::uint64_t>(t1 - t0));
          ++calls;
          if (traced) spans.emplace_back(t0, t1);
          c.pos += static_cast<std::size_t>(n);
          if (c.pos < size) continue;
          events.push_back({t1, kFaninFrameRecords});
          ++c.sent;
          ++frames;
          records += kFaninFrameRecords;
          blocks += c.frame_blocks[c.frame];
          auto& tenant = per_tenant[c.tenant];
          tenant.first += kFaninFrameRecords;
          tenant.second += c.frame_blocks[c.frame];
          last_send = t1;
          c.pos = 0;
          if (++c.frame == c.frame_offset.size()) {
            c.frame = 0;
            // Next pass starts no earlier than now and strictly after the
            // previous pass ended, so every origin stream stays ordered.
            const std::int64_t next = std::max(t1, c.shift + c.span_ns + 1000);
            shift_tile(c, next - c.shift);
          }
        }
      }
    }
    sent_total.store(records);
    sender_done.store(true);
  });

  std::vector<Observation> observations;
  std::int64_t all_visible_at = 0;
  std::uint64_t last_visible = 0;
  std::uint64_t failed_observations = 0;
  std::int64_t next = t_go + cadence_ns;
  std::int64_t done_at = 0;
  for (;;) {
    timespec ts{next / 1'000'000'000, next % 1'000'000'000};
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    const auto body = scrape(port);
    const auto v = body ? metric_value(*body, "bpsio_records_total", "tenant=\"all\"")
                        : std::nullopt;
    const std::int64_t t = now_ns();
    std::uint64_t visible = 0;
    if (v) {
      visible = static_cast<std::uint64_t>(*v);
      observations.push_back({t, visible});
      last_visible = visible;
    } else {
      ++failed_observations;
    }
    if (sender_done.load()) {
      if (done_at == 0) done_at = t;
      if (visible >= sent_total.load()) {
        all_visible_at = t;
        break;
      }
      if (t - done_at > settle_ns) break;
    }
    // Once the load is done, poll every millisecond so the moment every record
    // became visible is not rounded up to the cadence.
    const std::int64_t step =
        done_at > 0 ? std::min<std::int64_t>(cadence_ns, 1'000'000) : cadence_ns;
    next = std::max(next + step, now_ns());
  }
  sender.join();
  for (Conn& c : cs) ::close(c.fd);

  JsonLine out;
  out.put("calls", calls);
  out.put("frames", frames);
  out.put("records", records);
  out.put("blocks", blocks);
  out.put("failed_calls", failed);
  // A connection that fails loses at most the frame it was sending.
  out.put("failed_records", failed * kFaninFrameRecords);
  out.put("load_s", static_cast<double>(last_send - first_send) / 1e9);
  // The agent's unit of I/O is a frame; how many send() calls one frame
  // takes depends on socket-buffer timing, so the rate counts frames.
  out.put("app_io_per_s", static_cast<double>(frames) * 1e9 /
                              static_cast<double>(last_send - first_send));
  out.put("app_io_samples", hist.count());
  out.put("app_io_p50_ns", static_cast<double>(hist.percentile(0.50)));
  out.put("app_io_p99_ns", static_cast<double>(hist.percentile(0.99)));
  out.put_bool("app_io_p99_reportable", reportable(0.99, hist.count()));
  for (const auto& [name, totals] : per_tenant) {
    out.put("tenant." + name + ".records", totals.first);
    out.put("tenant." + name + ".blocks", totals.second);
  }
  LagResult lag = visible_lags(events, observations);
  out.put("observations", static_cast<std::uint64_t>(observations.size()));
  out.put("failed_observations", failed_observations);
  out.put("over_count", lag.over_count);
  out.put("last_visible", last_visible);
  out.put("lag_samples", static_cast<std::uint64_t>(lag.lags_ns.size()));
  if (!lag.lags_ns.empty()) {
    out.put_bool("lag_p99_reportable", reportable(0.99, lag.lags_ns.size()));
    out.put("visible_lag_p50_ms",
            static_cast<double>(percentile_of(lag.lags_ns, 0.50)) / 1e6);
    out.put("visible_lag_p99_ms",
            static_cast<double>(percentile_of(lag.lags_ns, 0.99)) / 1e6);
  }
  if (all_visible_at > 0) {
    out.put("pipeline_records_per_s", static_cast<double>(records) * 1e9 /
                                          static_cast<double>(all_visible_at - first_send));
  }
  if (traced) {
    const int fd = open_unrecorded(spans_path);
    const bool ok = fd >= 0 && write_all(fd, spans.data(), spans.size() * sizeof spans[0]);
    if (fd >= 0) ::close(fd);
    out.put_bool("spans_written", ok);
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace e2e
