// Harness bench: collector ingest — tagged BPSG frames from many simulated
// agent connections into the sharded TenantShards state.
//
// The measured shape is bpsio_collectord's worker hot path minus the
// sockets: each connection owns a FrameDecoder, frames arrive round-robin
// across connections (the order a poll loop services them), every completed
// frame reaches TenantShards::ingest as one span — one shard-lock
// acquisition and one tenant-window splice per frame. The parallel variant
// splits the connections over worker threads sharing one TenantShards,
// which is exactly the contention profile the shard design targets:
// tenants hash to different shards, and no fleet-wide state is written on
// ingest (the tenant="all" row is derived at render).
//
// A third record, collector_render, times prometheus_text over 4 tenants
// holding at least 1M live records: the scrape that derives the fleet row
// by copying every tenant's busy-run list and merging them. Its unit is
// renders per second; the bench also prints microseconds per render.
//
// Self-check before any timing: serial and parallel ingest must land on the
// identical per-tenant CSV snapshot (the union-window state is
// order-independent), and no records may be lost.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_cli.hpp"
#include "collector/tenant_shards.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "trace/frame.hpp"
#include "trace/io_record.hpp"

using namespace bpsio;

namespace {

constexpr std::size_t kRecordsPerFrame = 1024;  // one forwarder batch
constexpr std::size_t kReadChunk = 64 * 1024;   // typical socket read size
constexpr std::size_t kAgents = 16;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kShards = 8;
constexpr std::uint64_t kGapSpreadNs = 8000;
constexpr std::uint64_t kLenSpreadNs = 120;
constexpr std::uint64_t kRenderRecords = 1'000'000;  // live at render

std::string tenant_name(std::size_t agent) {
  return "tenant-" + std::to_string(agent % kTenants);
}

/// One agent connection's wire image: hello, then tagged frames under a
/// stable origin-stream id, records on the connection's own clock.
std::vector<char> encode_connection(std::size_t agent, std::uint64_t records,
                                    std::uint64_t seed,
                                    std::uint64_t* blocks_out) {
  Rng rng(seed + agent);
  std::vector<char> wire;
  wire.reserve(records * sizeof(trace::IoRecord) + records / kRecordsPerFrame *
                   sizeof(trace::TaggedFrameHeader) +
               64);
  trace::encode_hello(tenant_name(agent), wire);
  std::vector<trace::IoRecord> frame;
  frame.reserve(kRecordsPerFrame);
  std::int64_t t = 0;
  for (std::uint64_t emitted = 0; emitted < records;) {
    const std::size_t take =
        std::min<std::uint64_t>(kRecordsPerFrame, records - emitted);
    for (std::size_t i = 0; i < take; ++i) {
      t += static_cast<std::int64_t>(rng.uniform_u64(kGapSpreadNs)) + 1;
      const auto len =
          static_cast<std::int64_t>(rng.uniform_u64(kLenSpreadNs)) + 1;
      const std::uint64_t blocks = rng.uniform_u64(64) + 1;
      *blocks_out += blocks;
      frame.push_back(trace::make_record(static_cast<std::uint32_t>(agent + 1),
                                         blocks, SimTime(t), SimTime(t + len)));
    }
    trace::encode_tagged_frame(1, frame, wire);
    frame.clear();
    emitted += take;
  }
  return wire;
}

/// Drain `wires[first..last)` into `shards`, chunked round-robin across the
/// connections like one poll-loop worker servicing its fd set.
void ingest_connections(collector::TenantShards& shards,
                        const std::vector<std::vector<char>>& wires,
                        std::size_t first, std::size_t last) {
  struct Conn {
    trace::FrameDecoder decoder;
    collector::TenantShards::Tenant* tenant = nullptr;
    std::size_t offset = 0;
  };
  std::vector<Conn> conns(last - first);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t c = first; c < last; ++c) {
      Conn& conn = conns[c - first];
      const std::vector<char>& wire = wires[c];
      if (conn.offset >= wire.size()) continue;
      const std::size_t len =
          std::min(kReadChunk, wire.size() - conn.offset);
      (void)conn.decoder.feed(
          wire.data() + conn.offset, len,
          trace::FrameDecoder::TaggedFrameSink(
              [&shards, &conn](std::uint64_t,
                               std::span<const trace::IoRecord> frame) {
                if (conn.tenant == nullptr) {
                  conn.tenant = shards.handle(conn.decoder.tenant());
                }
                shards.ingest(conn.tenant, frame);
              }));
      BPSIO_CHECK(conn.decoder.status().ok(), "decoder poisoned mid-bench");
      conn.offset += len;
      progressed = true;
    }
  }
}

collector::TenantShards make_shards(std::uint64_t n) {
  // Window long enough that nothing expires: per-connection clocks advance
  // ~kGapSpreadNs/2 per record, so the full stream spans well under this.
  const double window_ms =
      static_cast<double>(n / kAgents) * kGapSpreadNs / 1e6 + 10.0;
  return collector::TenantShards(kShards, SimDuration::from_ms(window_ms),
                                 512);
}

}  // namespace

int main(int argc, char** argv) {
  bench::CommonBenchArgs args;
  args.threads = 4;
  cli::ArgParser parser("bench_collector_ingest",
                        "Collector ingest throughput: tagged frames from "
                        "many agent connections into the sharded per-tenant "
                        "metric state, serial and multi-worker.");
  bench::register_common_flags(parser, &args, /*with_threads=*/true);
  std::vector<std::string> positionals;
  switch (parser.parse(argc, argv, positionals)) {
    case cli::ArgParser::Outcome::help: return 0;
    case cli::ArgParser::Outcome::error: return 2;
    case cli::ArgParser::Outcome::ok: break;
  }

  const std::uint64_t n = bench::resolve_records(args, 200'000, 4'000'000);
  const std::uint64_t per_conn = n / kAgents;
  const std::uint64_t total = per_conn * kAgents;
  std::uint64_t expected_blocks = 0;
  std::vector<std::vector<char>> wires;
  std::size_t wire_bytes = 0;
  for (std::size_t agent = 0; agent < kAgents; ++agent) {
    wires.push_back(encode_connection(agent, per_conn,
                                      static_cast<std::uint64_t>(args.seed),
                                      &expected_blocks));
    wire_bytes += wires.back().size();
  }
  std::printf("=== collector ingest: %llu records, %zu agents, %zu tenants, "
              "%zu shards, %.1f MiB on the wire, seed=%llu ===\n",
              static_cast<unsigned long long>(total), kAgents, kTenants,
              kShards, static_cast<double>(wire_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(args.seed));

  // Equality self-check: serial and sharded-parallel ingest are the same
  // state (same counters, same union windows) — CSV snapshots must match.
  std::string serial_csv;
  {
    collector::TenantShards shards = make_shards(total);
    ingest_connections(shards, wires, 0, kAgents);
    BPSIO_CHECK(shards.records_total() == total, "serial ingest lost records");
    BPSIO_CHECK(shards.blocks_total() == expected_blocks,
                "serial ingest lost blocks");
    BPSIO_CHECK(shards.tenants_seen() == kTenants, "tenant set wrong");
    serial_csv = shards.csv_snapshot();
  }
  if (args.threads > 1) {
    collector::TenantShards shards = make_shards(total);
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(args.threads), kAgents);
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t first = kAgents * w / workers;
      const std::size_t last = kAgents * (w + 1) / workers;
      pool.emplace_back(
          [&shards, &wires, first, last] {
            ingest_connections(shards, wires, first, last);
          });
    }
    for (std::thread& t : pool) t.join();
    BPSIO_CHECK(shards.csv_snapshot() == serial_csv,
                "parallel and serial ingest disagree");
  }

  const std::map<std::string, std::string> extra = {
      {"records", std::to_string(total)},
      {"agents", std::to_string(kAgents)},
      {"tenants", std::to_string(kTenants)},
      {"shards", std::to_string(kShards)},
      {"read_chunk", std::to_string(kReadChunk)},
      {"profile", args.profile}};
  int rc = 0;

  // Published record: one worker draining every connection (the shape CI
  // trends, independent of host core count).
  {
    auto cfg = bench::make_harness_config("collector_ingest", args);
    cfg.threads = 1;
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      collector::TenantShards shards = make_shards(total);
      ingest_connections(shards, wires, 0, kAgents);
      return static_cast<double>(shards.records_total());
    });
    rc |= bench::report_result(args, cfg, result, extra);
  }

  // Parallel record: the sharded-lock contention profile.
  if (args.threads > 1) {
    const auto cfg =
        bench::make_harness_config("collector_ingest_parallel", args);
    const bench::BenchHarness harness(cfg);
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(args.threads), kAgents);
    const auto result = harness.run([&] {
      collector::TenantShards shards = make_shards(total);
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t first = kAgents * w / workers;
        const std::size_t last = kAgents * (w + 1) / workers;
        pool.emplace_back(
            [&shards, &wires, first, last] {
              ingest_connections(shards, wires, first, last);
            });
      }
      for (std::thread& t : pool) t.join();
      return static_cast<double>(shards.records_total());
    });
    rc |= bench::report_result(args, cfg, result, extra);
  }

  // Render record: one scrape over a fleet state of at least 1M live
  // records, spread over the same 16 connections and 4 tenants.
  {
    const std::uint64_t render_per_conn =
        std::max<std::uint64_t>(per_conn, kRenderRecords / kAgents);
    const std::uint64_t render_total = render_per_conn * kAgents;
    std::uint64_t render_blocks = 0;
    std::vector<std::vector<char>> render_wires;
    for (std::size_t agent = 0; agent < kAgents; ++agent) {
      render_wires.push_back(encode_connection(
          agent, render_per_conn, static_cast<std::uint64_t>(args.seed),
          &render_blocks));
    }
    collector::TenantShards shards = make_shards(render_total);
    ingest_connections(shards, render_wires, 0, kAgents);
    render_wires.clear();
    const std::string live = "bpsio_window_records{tenant=\"all\"} " +
                             std::to_string(render_total) + "\n";
    BPSIO_CHECK(shards.prometheus_text({}).find(live) != std::string::npos,
                "render does not show every live record");
    std::printf("=== collector render: %llu live records, %zu tenants ===\n",
                static_cast<unsigned long long>(render_total), kTenants);

    auto cfg = bench::make_harness_config("collector_render", args);
    cfg.unit = "renders_per_sec";
    cfg.threads = 1;
    const bench::BenchHarness harness(cfg);
    const auto result = harness.run([&] {
      const std::string text = shards.prometheus_text({});
      BPSIO_CHECK(!text.empty(), "empty render");
      return 1.0;
    });
    std::printf("  %.1f us per render\n",
                result.est.mean > 0 ? 1e6 / result.est.mean : 0.0);
    std::map<std::string, std::string> render_extra = extra;
    render_extra["records"] = std::to_string(render_total);
    rc |= bench::report_result(args, cfg, result, render_extra);
  }
  return rc;
}
