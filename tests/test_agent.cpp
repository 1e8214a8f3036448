// Agent subsystem tests: MetricAggregator accounting and exposition, plus an
// in-process AgentServer round trip (Unix socket frames in, /metrics HTTP
// out, drain file on shutdown). The multi-process path — LD_PRELOAD clients
// shipping to a real daemon binary — lives in test_agent_e2e.cpp; this file
// exercises the same machinery without fork/exec so it runs everywhere,
// sanitizers included.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "agent/aggregator.hpp"
#include "common/rng.hpp"
#include "agent/server.hpp"
#include "metrics/pipeline.hpp"
#include "trace/frame.hpp"
#include "trace/mapped_source.hpp"
#include "trace/serialize.hpp"

namespace bpsio::agent {
namespace {

using trace::IoRecord;
using trace::make_record;

constexpr Bytes kBlock = 512;

MetricAggregator make_aggregator() {
  return MetricAggregator(SimDuration::from_ms(100), kBlock);
}

TEST(Aggregator, LifetimeTotalsAndFlagCounters) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(1, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(1, 4, SimTime(2000), SimTime(3000), trace::IoOpKind::write,
                      trace::kIoFailed));
  agg.add(make_record(2, 0, SimTime(3000), SimTime(4000), trace::IoOpKind::write,
                      trace::kIoSync));

  IoRecord bad = make_record(2, 16, SimTime(9000), SimTime(8000));
  ASSERT_FALSE(bad.valid());
  agg.add(bad);

  EXPECT_EQ(agg.records_total(), 3u);
  EXPECT_EQ(agg.blocks_total(), 12u);  // failed accesses count toward B
  EXPECT_EQ(agg.failed_total(), 1u);
  EXPECT_EQ(agg.sync_total(), 1u);
  EXPECT_EQ(agg.invalid_total(), 1u);  // counted, not ingested
  EXPECT_EQ(agg.pids_seen(), 2u);
  EXPECT_EQ(agg.global().accesses(), 3u);
}

TEST(Aggregator, PerPidWindowsPartitionTheGlobalStream) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(10, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(10, 8, SimTime(1000), SimTime(2000)));
  agg.add(make_record(20, 4, SimTime(500), SimTime(1500)));

  EXPECT_EQ(agg.pids_seen(), 2u);
  EXPECT_EQ(agg.global().blocks(), 20u);
  // Per-pid figures show up in the snapshot with their own labels.
  const std::string csv = agg.csv_snapshot();
  EXPECT_NE(csv.find("\nall,3,20,"), std::string::npos);
  EXPECT_NE(csv.find("\n10,2,16,"), std::string::npos);
  EXPECT_NE(csv.find("\n20,1,4,"), std::string::npos);
}

TEST(Aggregator, AdvanceExpiresWindowsButKeepsTotals) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(1, 8, SimTime(0), SimTime(1000)));
  agg.advance(SimTime::from_seconds(10));
  EXPECT_EQ(agg.global().accesses(), 0u);
  EXPECT_EQ(agg.global().io_time().ns(), 0);
  EXPECT_EQ(agg.records_total(), 1u);
  EXPECT_EQ(agg.blocks_total(), 8u);
}

TEST(Aggregator, PrometheusTextCarriesCountersAndLabels) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(7, 8, SimTime(0), SimTime(1000)));
  agg.add(make_record(7, 8, SimTime(1000), SimTime(2000)));

  TransportStats transport;
  transport.clients_connected_total = 3;
  transport.clients_active = 1;
  transport.frames_total = 5;
  const std::string text = agg.prometheus_text(transport);

  EXPECT_NE(text.find("bpsio_records_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_blocks_total 16\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_clients_connected_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_clients_active 1\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_frames_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_pids_seen 1\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_block_size_bytes 512\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_window_records{pid=\"all\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_window_blocks{pid=\"7\"} 16\n"),
            std::string::npos);
  // Every metric family is documented for scrapers.
  EXPECT_NE(text.find("# HELP bpsio_window_bps "), std::string::npos);
  EXPECT_NE(text.find("# TYPE bpsio_records_total counter\n"),
            std::string::npos);
}

TEST(Aggregator, CsvSnapshotHasHeaderAndOneRowPerPid) {
  MetricAggregator agg = make_aggregator();
  agg.add(make_record(3, 8, SimTime(0), SimTime(1000)));
  const std::string csv = agg.csv_snapshot();
  EXPECT_EQ(csv.rfind("pid,window_records,window_blocks,window_io_s,"
                      "window_bps,window_iops,window_bw_Bps,window_arpt_s\n",
                      0),
            0u);
  // header + "all" + pid 3
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
}

TEST(Aggregator, SpanBatchMatchesPerRecordIngest) {
  // The daemon now feeds whole decoded frames through add(span); that path
  // must land on exactly the state the historical per-record loop produced —
  // counters, per-pid windows, and both exposition formats.
  Rng rng(99);
  std::vector<IoRecord> records;
  std::int64_t t = 0;
  for (int i = 0; i < 240; ++i) {
    t += static_cast<std::int64_t>(rng.uniform_u64(3000));
    const auto len = static_cast<std::int64_t>(rng.uniform_u64(4000)) + 1;
    const auto pid = static_cast<std::uint32_t>(rng.uniform_u64(5) + 1);
    std::uint8_t flags = trace::kIoOk;
    if (rng.uniform_u64(8) == 0) flags = trace::kIoFailed;
    if (rng.uniform_u64(8) == 1) flags = trace::kIoSync;
    IoRecord r = make_record(pid, rng.uniform_u64(32) + 1, SimTime(t),
                             SimTime(t + len), trace::IoOpKind::read, flags);
    if (rng.uniform_u64(12) == 0) std::swap(r.start_ns, r.end_ns);  // invalid
    records.push_back(r);
  }

  MetricAggregator scalar = make_aggregator();
  for (const IoRecord& r : records) scalar.add(r);

  MetricAggregator batched = make_aggregator();
  std::span<const IoRecord> rest(records);
  Rng slicer(7);
  while (!rest.empty()) {
    const std::size_t take =
        std::min<std::size_t>(slicer.uniform_u64(31) + 1, rest.size());
    batched.add(rest.subspan(0, take));
    rest = rest.subspan(take);
  }

  EXPECT_EQ(batched.records_total(), scalar.records_total());
  EXPECT_EQ(batched.blocks_total(), scalar.blocks_total());
  EXPECT_EQ(batched.failed_total(), scalar.failed_total());
  EXPECT_EQ(batched.sync_total(), scalar.sync_total());
  EXPECT_EQ(batched.invalid_total(), scalar.invalid_total());
  EXPECT_EQ(batched.pids_seen(), scalar.pids_seen());
  EXPECT_EQ(batched.csv_snapshot(), scalar.csv_snapshot());
  const TransportStats transport;
  EXPECT_EQ(batched.prometheus_text(transport),
            scalar.prometheus_text(transport));
}

TEST(Aggregator, AllInvalidSpanCountsButCreatesNoWindows) {
  // A frame of nothing but invalid records must be counted and otherwise
  // ignored — in particular it must not conjure per-pid windows the
  // per-record path never created.
  MetricAggregator agg = make_aggregator();
  std::vector<IoRecord> bad;
  for (int i = 0; i < 4; ++i) {
    bad.push_back(make_record(42, 8, SimTime(5000), SimTime(1000)));
  }
  agg.add(std::span<const IoRecord>(bad));
  EXPECT_EQ(agg.invalid_total(), 4u);
  EXPECT_EQ(agg.records_total(), 0u);
  EXPECT_EQ(agg.pids_seen(), 0u);
  EXPECT_FALSE(agg.global().any());
}

// ---------------------------------------------------------------------------
// In-process server round trip.

std::filesystem::path make_temp_dir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "bpsio_agent_test.XXXXXX")
                         .string();
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return std::filesystem::path(made != nullptr ? made : "");
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::vector<char>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One blocking HTTP/1.0 GET against the daemon's loopback port; returns the
/// full response (headers + body), or "" on connection failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!send_all(fd, std::vector<char>(request.begin(), request.end()))) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(AgentServer, SocketToMetricsToDrain) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  AgentOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = 0;  // ephemeral
  options.port_file = (dir / "port").string();
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.window = SimDuration::from_seconds(10);
  options.block_size = kBlock;
  options.expect_clients = 1;

  AgentServer server(options);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.http_port(), 0);

  // The port-file handshake scripts rely on: one decimal line.
  std::ifstream port_file(options.port_file);
  int advertised = 0;
  ASSERT_TRUE(port_file >> advertised);
  EXPECT_EQ(advertised, server.http_port());

  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  const int client = connect_unix(options.socket_path);
  ASSERT_GE(client, 0);

  // Two frames on one connection, start-ordered like a real capture thread.
  const std::vector<IoRecord> batch1 = {
      make_record(42, 8, SimTime(1000), SimTime(2000)),
      make_record(42, 8, SimTime(3000), SimTime(4000)),
  };
  const std::vector<IoRecord> batch2 = {
      make_record(42, 16, SimTime(5000), SimTime(6000), trace::IoOpKind::write),
  };
  std::vector<char> wire;
  trace::encode_frame(batch1, wire);
  ASSERT_TRUE(send_all(client, wire));
  wire.clear();
  trace::encode_frame(batch2, wire);
  ASSERT_TRUE(send_all(client, wire));

  // The daemon and this test share no memory ordering except the sockets:
  // poll /metrics until the records land (bounded, normally 1-2 tries).
  std::string metrics;
  for (int attempt = 0; attempt < 250; ++attempt) {
    metrics = http_get(server.http_port(), "/metrics");
    if (metrics.find("bpsio_records_total 3\n") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total 3\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_blocks_total 32\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_clients_active 1\n"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_frames_total 2\n"), std::string::npos);

  EXPECT_NE(http_get(server.http_port(), "/healthz").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(http_get(server.http_port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);

  // Closing the only expected client lets run() finish and drain.
  ::close(client);
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.to_string();

  // run() is over; the aggregator is safe to read directly now.
  EXPECT_EQ(server.aggregator().records_total(), 3u);
  EXPECT_EQ(server.aggregator().blocks_total(), 32u);
  EXPECT_EQ(server.transport().clients_connected_total, 1u);
  EXPECT_EQ(server.transport().clients_active, 0u);
  EXPECT_EQ(server.transport().bad_frames_total, 0u);

  // The drain is a normal v2 trace holding exactly the shipped records in
  // (start, end) order, and the spool scaffolding is gone.
  auto drained = trace::load_binary(options.drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  std::vector<IoRecord> expected = batch1;
  expected.insert(expected.end(), batch2.begin(), batch2.end());
  EXPECT_EQ(*drained, expected);
  EXPECT_FALSE(std::filesystem::exists(options.spool_dir));

  std::filesystem::remove_all(dir);
}

TEST(AgentServer, StopFlagShutsDownWithoutClients) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  std::atomic<bool> stop{false};
  AgentOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;  // HTTP off entirely
  options.stop = &stop;

  AgentServer server(options);
  ASSERT_TRUE(server.start().ok());
  EXPECT_LT(server.http_port(), 0);

  Status run_status;
  std::thread serving([&] { run_status = server.run(); });
  stop.store(true);
  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(server.aggregator().records_total(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(AgentServer, BadFrameDropsTheConnectionNotTheDaemon) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  AgentOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;
  options.expect_clients = 2;

  AgentServer server(options);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  // Client 1 sends garbage where a frame header belongs.
  const int bad = connect_unix(options.socket_path);
  ASSERT_GE(bad, 0);
  const std::vector<char> junk(16, 'Z');
  ASSERT_TRUE(send_all(bad, junk));
  ::close(bad);

  // Client 2 is healthy and must still be served.
  const int good = connect_unix(options.socket_path);
  ASSERT_GE(good, 0);
  std::vector<char> wire;
  trace::encode_frame(
      std::vector<IoRecord>{make_record(9, 4, SimTime(0), SimTime(1000))},
      wire);
  ASSERT_TRUE(send_all(good, wire));
  ::close(good);

  serving.join();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(server.transport().bad_frames_total, 1u);
  EXPECT_EQ(server.aggregator().records_total(), 1u);
  EXPECT_EQ(server.aggregator().blocks_total(), 4u);

  std::filesystem::remove_all(dir);
}

TEST(AgentServer, MultiplexedStreamsDrainInRecordOrder) {
  // One connection carrying tagged frames of two interleaved origin streams
  // — what any --forward sender emits. Each stream is start-ordered, the
  // connection as a whole is not; the drain must still come out in
  // (start, end) order and pass bpsio_report's streaming pipeline.
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  AgentOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.expect_clients = 1;

  AgentServer server(options);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  const auto at = [](std::int64_t start, std::uint32_t pid) {
    return make_record(pid, 4, SimTime(start), SimTime(start + 10));
  };
  std::vector<char> wire;
  trace::encode_tagged_frame(1, std::vector<IoRecord>{at(0, 1), at(100, 1)},
                             wire);
  trace::encode_tagged_frame(2, std::vector<IoRecord>{at(50, 2), at(150, 2)},
                             wire);
  trace::encode_tagged_frame(1, std::vector<IoRecord>{at(200, 1)}, wire);
  const int client = connect_unix(options.socket_path);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(send_all(client, wire));
  ::close(client);
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.to_string();

  const auto drained = trace::load_binary(options.drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  std::vector<std::int64_t> starts;
  for (const IoRecord& r : *drained) starts.push_back(r.start_ns);
  EXPECT_EQ(starts, (std::vector<std::int64_t>{0, 50, 100, 150, 200}));

  auto source = trace::open_trace_source(options.drain_path);
  ASSERT_TRUE(source->status().ok()) << source->status().to_string();
  const auto sample = metrics::measure_stream(*source, 0, SimDuration(0));
  ASSERT_TRUE(sample.ok()) << sample.error().to_string();
  EXPECT_EQ(sample->app_blocks, 20u);

  std::filesystem::remove_all(dir);
}

TEST(AgentServer, SpoolOpenFailureDropsTheConnectionAndFailsTheDrain) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  AgentOptions options;
  options.socket_path = (dir / "agent.sock").string();
  options.http_port = -1;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.expect_clients = 1;
  // A directory squatting on the first (connection 1, stream 0) spool path
  // makes that spool's open fail.
  ASSERT_TRUE(std::filesystem::create_directories(
      std::filesystem::path(options.spool_dir) /
      "c00000000000000000001-s00000000000000000000.bpstrace"));

  AgentServer server(options);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  const int client = connect_unix(options.socket_path);
  ASSERT_GE(client, 0);
  std::vector<char> wire;
  trace::encode_frame(
      std::vector<IoRecord>{make_record(9, 4, SimTime(0), SimTime(1000))},
      wire);
  ASSERT_TRUE(send_all(client, wire));
  ::close(client);
  serving.join();

  EXPECT_FALSE(run_status.ok());
  EXPECT_NE(run_status.to_string().find(
                "refusing to write an incomplete drain"),
            std::string::npos)
      << run_status.to_string();
  EXPECT_FALSE(std::filesystem::exists(options.drain_path));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bpsio::agent
