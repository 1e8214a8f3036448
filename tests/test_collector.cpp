// Collector subsystem tests: TenantShards accounting, and in-process
// CollectorServer end-to-end runs — many simulated agent connections across
// several tenants, /metrics exposition, agent churn (mid-frame death,
// reconnect, poisoned decoders), the shutdown k-way drain checked against a
// direct file spill of the same records, and the two-tier composition where
// an in-process AgentServer forwards into the collector. The multi-process
// path lives in the CI collector-smoke job; everything here is fork-free so
// it runs under sanitizers too.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent/server.hpp"
#include "collector/server.hpp"
#include "collector/tenant_shards.hpp"
#include "common/wallclock.hpp"
#include "trace/frame.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "trace/spill_writer.hpp"

namespace bpsio::collector {
namespace {

using trace::IoRecord;
using trace::make_record;

constexpr Bytes kBlock = 512;

std::filesystem::path make_temp_dir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "bpsio_collector_test.XXXXXX")
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

bool send_bytes(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::write(fd, data + off, n - off);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

bool send_all(int fd, const std::vector<char>& bytes) {
  return send_bytes(fd, bytes.data(), bytes.size());
}

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
  if (!send_bytes(fd, request.data(), request.size())) {
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

/// Value of the exposition line starting with `prefix` (metric name plus
/// label set plus the separating space), or -1 when absent.
double metric_value(const std::string& text, const std::string& prefix) {
  const std::string key = "\n" + prefix;
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return -1.0;
  return std::atof(text.c_str() + pos + key.size());
}

/// Union length of the valid records' [start, end) busy intervals — the T
/// of BPS = B / T, computed independently of the metrics layer.
std::int64_t union_busy_ns(std::vector<IoRecord> records) {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const IoRecord& r : records) {
    if (r.valid()) spans.emplace_back(r.start_ns, r.end_ns);
  }
  std::sort(spans.begin(), spans.end());
  std::int64_t busy = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [start, end] : spans) {
    if (cur_end < 0 || start > cur_end) {
      busy += cur_end < 0 ? 0 : cur_end - cur_start;
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (cur_end >= 0) busy += cur_end - cur_start;
  return busy;
}

std::uint64_t total_blocks(const std::vector<IoRecord>& records) {
  std::uint64_t blocks = 0;
  for (const IoRecord& r : records) {
    if (r.valid()) blocks += r.blocks;
  }
  return blocks;
}

std::vector<IoRecord> sorted_by_start(std::vector<IoRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const IoRecord& a, const IoRecord& b) {
              return std::make_pair(a.start_ns, a.end_ns) <
                     std::make_pair(b.start_ns, b.end_ns);
            });
  return records;
}

TEST(TenantShards, PerTenantAndFleetAccounting) {
  TenantShards shards(4, SimDuration::from_seconds(10), kBlock);
  TenantShards::Tenant* alpha = shards.handle("alpha");
  TenantShards::Tenant* beta = shards.handle("beta");
  EXPECT_EQ(shards.handle("alpha"), alpha);  // stable find-or-create

  const std::vector<IoRecord> a = {
      make_record(1, 8, SimTime(0), SimTime(1000)),
      make_record(1, 8, SimTime(2000), SimTime(3000)),
  };
  const std::vector<IoRecord> b = {
      make_record(2, 4, SimTime(500), SimTime(1500)),
      make_record(2, 16, SimTime(9000), SimTime(8000)),  // invalid
  };
  shards.ingest(alpha, a);
  shards.ingest(beta, b);

  EXPECT_EQ(shards.records_total(), 3u);
  EXPECT_EQ(shards.blocks_total(), 20u);
  EXPECT_EQ(shards.invalid_total(), 1u);
  EXPECT_EQ(shards.tenants_seen(), 2u);

  CollectorTransport transport;
  transport.agents_active = 2;
  const std::string text = shards.prometheus_text(transport);
  EXPECT_NE(text.find("bpsio_records_total{tenant=\"all\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_records_total{tenant=\"alpha\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_blocks_total{tenant=\"beta\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_invalid_records_total{tenant=\"beta\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("bpsio_agents_active 2\n"), std::string::npos);
  EXPECT_NE(text.find("bpsio_tenants_seen 2\n"), std::string::npos);
  // The fleet window is a true union of the tenants' busy intervals:
  // alpha [0,1000)+[2000,3000) and beta [500,1500) union to 2500 ns —
  // NOT the 3000 ns a per-tenant sum would give.
  EXPECT_NEAR(
      metric_value(text, "bpsio_window_io_seconds{tenant=\"all\"} "), 2.5e-6,
      1e-12);
  EXPECT_NEAR(
      metric_value(text, "bpsio_window_io_seconds{tenant=\"alpha\"} "), 2e-6,
      1e-12);

  const std::string csv = shards.csv_snapshot();
  EXPECT_EQ(csv.rfind("tenant,records_total,blocks_total,window_records,", 0),
            0u);
  EXPECT_NE(csv.find("\nall,3,20,"), std::string::npos);
  EXPECT_NE(csv.find("\nalpha,2,16,"), std::string::npos);
  EXPECT_NE(csv.find("\nbeta,1,4,"), std::string::npos);
}

TEST(TenantShards, AdvanceExpiresWindowsButKeepsTotals) {
  TenantShards shards(2, SimDuration::from_ms(100), kBlock);
  TenantShards::Tenant* tenant = shards.handle("t");
  const std::vector<IoRecord> records = {
      make_record(1, 8, SimTime(0), SimTime(1000))};
  shards.ingest(tenant, records);
  shards.advance_windows(SimTime::from_seconds(10));

  const std::string text = shards.prometheus_text(CollectorTransport{});
  EXPECT_NEAR(metric_value(text, "bpsio_window_records{tenant=\"t\"} "), 0.0,
              1e-12);
  EXPECT_NEAR(metric_value(text, "bpsio_window_records{tenant=\"all\"} "), 0.0,
              1e-12);
  EXPECT_EQ(shards.records_total(), 1u);
  EXPECT_EQ(shards.blocks_total(), 8u);
}

// ---------------------------------------------------------------------------
// In-process end-to-end runs.

TEST(CollectorServer, DrainMatchesDirectSpillAcrossTenantsAndAgents) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  CollectorOptions options;
  options.socket_path = (dir / "collector.sock").string();
  options.http_port = 0;  // ephemeral
  options.drain_path = (dir / "drain.bpstrace").string();
  options.drain_tenant_dir = (dir / "tenants").string();
  options.spool_dir = (dir / "spool.d").string();
  // Live-window assertions need "now"-anchored timestamps (the server
  // advances windows to monotonic_ns() on every scrape); a huge window
  // keeps every record inside it for the whole test.
  options.window = SimDuration::from_seconds(3600);
  options.block_size = kBlock;
  options.io_threads = 2;
  options.shards = 4;
  options.expect_agents = 4;

  CollectorServer server(options);
  ASSERT_TRUE(server.start().ok());
  ASSERT_GT(server.http_port(), 0);
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  // Four simulated agents: two for tenant alpha, one for beta, one that
  // never says hello (filed under "default"). Tagged connections carry two
  // origin streams each. Every record gets a globally unique (start, end)
  // so merge order — and therefore the drain — is fully determined.
  struct AgentSpec {
    const char* tenant;  // nullptr = no hello
    int streams;
  };
  const AgentSpec specs[4] = {
      {"alpha", 2}, {"alpha", 2}, {"beta", 2}, {nullptr, 1}};

  const std::int64_t base = monotonic_ns();
  std::int64_t serial = 0;
  std::map<std::string, std::vector<IoRecord>> by_tenant;
  std::vector<std::vector<IoRecord>> stream_sequences;
  std::vector<IoRecord> everything;
  std::vector<int> agent_fds;

  for (int a = 0; a < 4; ++a) {
    const int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    agent_fds.push_back(fd);

    std::vector<char> wire;
    if (specs[a].tenant != nullptr) trace::encode_hello(specs[a].tenant, wire);
    std::vector<std::vector<IoRecord>> streams(
        static_cast<std::size_t>(specs[a].streams));
    for (int frame = 0; frame < 3; ++frame) {
      for (int s = 0; s < specs[a].streams; ++s) {
        std::vector<IoRecord> records;
        for (int r = 0; r < 5; ++r) {
          const std::int64_t start = base + serial++ * 1000;
          records.push_back(make_record(
              static_cast<std::uint32_t>(a * 10 + s + 1), 8, SimTime(start),
              SimTime(start + 600)));
        }
        if (specs[a].tenant == nullptr) {
          trace::encode_frame(records, wire);
        } else {
          trace::encode_tagged_frame(static_cast<std::uint64_t>(s + 1),
                                     records, wire);
        }
        std::vector<IoRecord>& seq = streams[static_cast<std::size_t>(s)];
        seq.insert(seq.end(), records.begin(), records.end());
        std::vector<IoRecord>& tenant_records =
            by_tenant[specs[a].tenant != nullptr ? specs[a].tenant
                                                 : kDefaultTenant];
        tenant_records.insert(tenant_records.end(), records.begin(),
                              records.end());
        everything.insert(everything.end(), records.begin(), records.end());
      }
    }
    ASSERT_TRUE(send_all(fd, wire));
    for (std::vector<IoRecord>& seq : streams) {
      stream_sequences.push_back(std::move(seq));
    }
  }
  ASSERT_EQ(everything.size(), 105u);

  // Scrape until every record has landed, then check the per-tenant view.
  std::string metrics;
  for (int attempt = 0; attempt < 250; ++attempt) {
    metrics = http_get(server.http_port(), "/metrics");
    if (metrics.find("bpsio_records_total{tenant=\"all\"} 105\n") !=
        std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total{tenant=\"all\"} 105\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total{tenant=\"alpha\"} 60\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total{tenant=\"beta\"} 30\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("bpsio_records_total{tenant=\"default\"} 15\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("bpsio_agents_active 4\n"), std::string::npos);

  // Per-tenant live BPS must equal B / T computed independently from the
  // records each tenant shipped.
  std::map<std::string, double> scraped_bps;
  for (const auto& [tenant, records] : by_tenant) {
    const double expected =
        static_cast<double>(total_blocks(records)) /
        (static_cast<double>(union_busy_ns(records)) / 1e9);
    const double got = metric_value(
        metrics, "bpsio_window_bps{tenant=\"" + tenant + "\"} ");
    EXPECT_NEAR(got, expected, expected * 1e-3) << "tenant " << tenant;
    scraped_bps[tenant] = got;
  }

  for (const int fd : agent_fds) ::close(fd);
  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(server.transport().agents_connected_total, 4u);
  EXPECT_EQ(server.transport().agents_active, 0u);
  EXPECT_EQ(server.transport().bad_frames_total, 0u);
  EXPECT_EQ(server.transport().streams_total, 7u);

  // Direct spill of the same per-stream sequences, merged with the same
  // k-way machinery the daemon uses — the reference the drain must match.
  const std::filesystem::path direct_dir = dir / "direct.d";
  ASSERT_TRUE(std::filesystem::create_directory(direct_dir));
  std::vector<std::string> direct_paths;
  for (std::size_t i = 0; i < stream_sequences.size(); ++i) {
    std::string path = (direct_dir / ("seq" + std::to_string(i) +
                                      ".bpstrace"))
                           .string();
    trace::SpillWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.append(std::span<const IoRecord>(stream_sequences[i]));
    ASSERT_TRUE(writer.close().ok());
    direct_paths.push_back(std::move(path));
  }
  const std::string direct_merged = (dir / "direct.bpstrace").string();
  ASSERT_TRUE(trace::merge_trace_files(direct_paths, direct_merged).ok());

  const auto drained = trace::load_binary(options.drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  const auto direct = trace::load_binary(direct_merged);
  ASSERT_TRUE(direct.ok()) << direct.error().to_string();
  EXPECT_EQ(*drained, *direct);
  EXPECT_EQ(total_blocks(*drained), total_blocks(*direct));
  EXPECT_EQ(union_busy_ns(*drained), union_busy_ns(*direct));
  EXPECT_FALSE(std::filesystem::exists(options.spool_dir));

  // Per-tenant drains carry exactly each tenant's records, and analyzing
  // them reproduces the BPS the live /metrics reported.
  for (const auto& [tenant, records] : by_tenant) {
    const std::string path =
        options.drain_tenant_dir + "/tenant-" + tenant + ".bpstrace";
    const auto tenant_trace = trace::load_binary(path);
    ASSERT_TRUE(tenant_trace.ok()) << tenant_trace.error().to_string();
    EXPECT_EQ(*tenant_trace, sorted_by_start(records)) << "tenant " << tenant;
    const double analyzed =
        static_cast<double>(total_blocks(*tenant_trace)) /
        (static_cast<double>(union_busy_ns(*tenant_trace)) / 1e9);
    EXPECT_NEAR(scraped_bps[tenant], analyzed, analyzed * 1e-3)
        << "tenant " << tenant;
  }

  std::filesystem::remove_all(dir);
}

TEST(CollectorServer, SurvivesChurnAndIsolatesPoisonedConnections) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  CollectorOptions options;
  options.socket_path = (dir / "collector.sock").string();
  options.http_port = -1;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.io_threads = 2;
  options.expect_agents = 4;

  CollectorServer server(options);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  std::int64_t serial = 0;
  const auto make_frame = [&serial](int count) {
    std::vector<IoRecord> records;
    for (int i = 0; i < count; ++i) {
      const std::int64_t start = serial++ * 1000;
      records.push_back(
          make_record(7, 4, SimTime(start), SimTime(start + 500)));
    }
    return records;
  };
  std::vector<IoRecord> expected;  // completed frames only

  // Agent 1: one complete frame, then dies halfway through the next. The
  // torn frame was never delivered — by the framing contract its sender
  // still owns those records (and would re-ship them via its spill path).
  const std::vector<IoRecord> f1 = make_frame(4);
  const std::vector<IoRecord> f2 = make_frame(3);
  {
    const int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    trace::encode_hello("alpha", wire);
    trace::encode_frame(f1, wire);
    ASSERT_TRUE(send_all(fd, wire));
    std::vector<char> torn;
    trace::encode_frame(f2, torn);
    ASSERT_TRUE(send_bytes(fd, torn.data(), torn.size() / 2));
    ::close(fd);  // mid-frame death
  }
  expected.insert(expected.end(), f1.begin(), f1.end());

  // Agent 2: the reconnect — re-ships the undelivered frame, then another.
  // Exactly-once for completed frames: f1 and f2 each appear once.
  const std::vector<IoRecord> f3 = make_frame(5);
  {
    const int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    trace::encode_hello("alpha", wire);
    trace::encode_frame(f2, wire);
    trace::encode_frame(f3, wire);
    ASSERT_TRUE(send_all(fd, wire));
    ::close(fd);
  }
  expected.insert(expected.end(), f2.begin(), f2.end());
  expected.insert(expected.end(), f3.begin(), f3.end());

  // Agent 3: garbage where a header belongs — poisons only its own decoder.
  {
    const int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, std::vector<char>(16, 'Z')));
    ::close(fd);
  }

  // Agent 4: healthy, different tenant, must be unaffected by the chaos.
  const std::vector<IoRecord> f4 = make_frame(6);
  {
    const int fd = connect_unix(options.socket_path);
    ASSERT_GE(fd, 0);
    std::vector<char> wire;
    trace::encode_hello("beta", wire);
    trace::encode_frame(f4, wire);
    ASSERT_TRUE(send_all(fd, wire));
    ::close(fd);
  }
  expected.insert(expected.end(), f4.begin(), f4.end());

  serving.join();
  ASSERT_TRUE(run_status.ok()) << run_status.to_string();

  // No loss, no duplication for completed frames; the poisoned connection
  // is counted and contributed nothing.
  EXPECT_EQ(server.transport().bad_frames_total, 1u);
  EXPECT_EQ(server.shards().records_total(), expected.size());
  EXPECT_EQ(server.shards().tenants_seen(), 2u);

  const auto drained = trace::load_binary(options.drain_path);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  EXPECT_EQ(*drained, sorted_by_start(expected));

  std::filesystem::remove_all(dir);
}

TEST(CollectorServer, AgentForwardComposesIntoTenantMetrics) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  CollectorOptions copt;
  copt.socket_path = (dir / "collector.sock").string();
  copt.http_port = -1;
  copt.io_threads = 1;
  copt.expect_agents = 1;
  CollectorServer upstream(copt);
  ASSERT_TRUE(upstream.start().ok());
  Status upstream_status;
  std::thread upstream_thread([&] { upstream_status = upstream.run(); });

  agent::AgentOptions aopt;
  aopt.socket_path = (dir / "agent.sock").string();
  aopt.http_port = -1;
  aopt.forward_target = copt.socket_path;
  aopt.forward_tenant = "web";
  aopt.forward_batch = 4;
  aopt.expect_clients = 1;
  agent::AgentServer agent(aopt);
  ASSERT_TRUE(agent.start().ok());
  Status agent_status;
  std::thread agent_thread([&] { agent_status = agent.run(); });

  // One capture client ships two plain frames to the agent; the agent
  // aggregates locally AND forwards the records upstream under its tenant.
  const int client = connect_unix(aopt.socket_path);
  ASSERT_GE(client, 0);
  std::vector<IoRecord> sent;
  std::vector<char> wire;
  for (int frame = 0; frame < 2; ++frame) {
    std::vector<IoRecord> records;
    for (int i = 0; i < 3; ++i) {
      const std::int64_t start = (frame * 3 + i) * 1000;
      records.push_back(
          make_record(11, 8, SimTime(start), SimTime(start + 700)));
    }
    wire.clear();
    trace::encode_frame(records, wire);
    ASSERT_TRUE(send_all(client, wire));
    sent.insert(sent.end(), records.begin(), records.end());
  }
  ::close(client);

  agent_thread.join();
  ASSERT_TRUE(agent_status.ok()) << agent_status.to_string();
  upstream_thread.join();
  ASSERT_TRUE(upstream_status.ok()) << upstream_status.to_string();

  // The agent saw everything locally and shipped everything upstream over
  // the socket — nothing spilled, nothing dropped.
  EXPECT_EQ(agent.aggregator().records_total(), sent.size());
  EXPECT_TRUE(agent.transport().forward.enabled);
  EXPECT_EQ(agent.transport().forward.records_forwarded, sent.size());
  EXPECT_GE(agent.transport().forward.frames_forwarded, 1u);
  EXPECT_EQ(agent.transport().forward.records_spilled, 0u);
  EXPECT_EQ(agent.transport().forward.records_dropped, 0u);

  // The collector filed the forwarded stream under the agent's tenant.
  EXPECT_EQ(upstream.shards().records_total(), sent.size());
  EXPECT_EQ(upstream.shards().tenants_seen(), 1u);
  EXPECT_EQ(upstream.transport().agents_connected_total, 1u);
  const std::string text =
      upstream.shards().prometheus_text(upstream.transport());
  EXPECT_NE(text.find("bpsio_records_total{tenant=\"web\"} 6\n"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(CollectorServer, SpoolOpenFailureDropsTheConnectionAndFailsTheDrain) {
  const std::filesystem::path dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  CollectorOptions options;
  options.socket_path = (dir / "collector.sock").string();
  options.http_port = -1;
  options.drain_path = (dir / "drain.bpstrace").string();
  options.spool_dir = (dir / "spool.d").string();
  options.io_threads = 1;
  options.expect_agents = 1;
  // A directory squatting on the first (connection 1, stream 3) spool path
  // makes that spool's open fail.
  ASSERT_TRUE(std::filesystem::create_directories(
      std::filesystem::path(options.spool_dir) /
      "c00000000000000000001-s00000000000000000003.bpstrace"));

  CollectorServer server(options);
  ASSERT_TRUE(server.start().ok());
  Status run_status;
  std::thread serving([&] { run_status = server.run(); });

  const int fd = connect_unix(options.socket_path);
  ASSERT_GE(fd, 0);
  std::vector<char> wire;
  trace::encode_hello("alpha", wire);
  trace::encode_tagged_frame(
      3, std::vector<IoRecord>{make_record(7, 4, SimTime(0), SimTime(500))},
      wire);
  ASSERT_TRUE(send_all(fd, wire));
  ::close(fd);
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
}  // namespace bpsio::collector
