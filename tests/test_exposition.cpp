// Byte-for-byte exposition of both ingest roles: MetricAggregator (pid
// keyed) and TenantShards (tenant keyed) render a fixed record set — two
// pids split over two tenants, one failed, one sync and one invalid record —
// and the full Prometheus and CSV texts must match the pinned strings. The
// CI awk assertions and e2ebench/run.py parse these names and label sets,
// so a formatter change has to show up here first.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "agent/aggregator.hpp"
#include "collector/tenant_shards.hpp"
#include "trace/io_record.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;
using trace::make_record;

const std::vector<IoRecord> kAlpha = {
    make_record(100, 8, SimTime(1000), SimTime(5000)),
    make_record(100, 4, SimTime(3000), SimTime(9000), trace::IoOpKind::write,
                trace::kIoFailed),
};
const std::vector<IoRecord> kBeta = {
    make_record(200, 0, SimTime(6000), SimTime(7000), trace::IoOpKind::write,
                trace::kIoSync),
    make_record(200, 16, SimTime(12000), SimTime(20000)),
    make_record(200, 8, SimTime(30000), SimTime(25000)),  // invalid
};

constexpr const char* kAgentPrometheus = R"(# HELP bpsio_records_total I/O access records received.
# TYPE bpsio_records_total counter
bpsio_records_total 4
# HELP bpsio_blocks_total Application-required blocks received (B).
# TYPE bpsio_blocks_total counter
bpsio_blocks_total 28
# HELP bpsio_failed_records_total Records flagged as failed accesses (still counted in B).
# TYPE bpsio_failed_records_total counter
bpsio_failed_records_total 1
# HELP bpsio_sync_records_total fsync/fdatasync records (zero-block, time-only).
# TYPE bpsio_sync_records_total counter
bpsio_sync_records_total 1
# HELP bpsio_invalid_records_total Records rejected (end < start).
# TYPE bpsio_invalid_records_total counter
bpsio_invalid_records_total 1
# HELP bpsio_clients_connected_total Capture connections accepted.
# TYPE bpsio_clients_connected_total counter
bpsio_clients_connected_total 3
# HELP bpsio_clients_active Capture connections currently open.
# TYPE bpsio_clients_active gauge
bpsio_clients_active 1
# HELP bpsio_frames_total Complete record frames decoded.
# TYPE bpsio_frames_total counter
bpsio_frames_total 7
# HELP bpsio_bad_frames_total Connections dropped on a malformed frame.
# TYPE bpsio_bad_frames_total counter
bpsio_bad_frames_total 1
# HELP bpsio_forward_frames_total Tagged frames shipped to the upstream collector.
# TYPE bpsio_forward_frames_total counter
bpsio_forward_frames_total 5
# HELP bpsio_forward_records_total Records shipped upstream.
# TYPE bpsio_forward_records_total counter
bpsio_forward_records_total 11
# HELP bpsio_forward_spilled_records_total Records diverted to the forward spill fallback.
# TYPE bpsio_forward_spilled_records_total counter
bpsio_forward_spilled_records_total 2
# HELP bpsio_forward_dropped_records_total Records dropped with no upstream and no spill dir.
# TYPE bpsio_forward_dropped_records_total counter
bpsio_forward_dropped_records_total 1
# HELP bpsio_pids_seen Distinct process ids observed.
# TYPE bpsio_pids_seen gauge
bpsio_pids_seen 2
# HELP bpsio_window_seconds Sliding-window length.
# TYPE bpsio_window_seconds gauge
bpsio_window_seconds 1.000
# HELP bpsio_block_size_bytes Block unit used for bandwidth.
# TYPE bpsio_block_size_bytes gauge
bpsio_block_size_bytes 512
# HELP bpsio_window_bps Windowed BPS (blocks per second of busy time) per pid; pid="all" is the global stream.
# TYPE bpsio_window_bps gauge
bpsio_window_records{pid="all"} 4
bpsio_window_blocks{pid="all"} 28
bpsio_window_io_seconds{pid="all"} 0.000016000
bpsio_window_bps{pid="all"} 1750000.000
bpsio_window_iops{pid="all"} 4.000
bpsio_window_bw_bytes_per_second{pid="all"} 14336.000
bpsio_window_arpt_seconds{pid="all"} 0.000004750
bpsio_window_records{pid="100"} 2
bpsio_window_blocks{pid="100"} 12
bpsio_window_io_seconds{pid="100"} 0.000008000
bpsio_window_bps{pid="100"} 1500000.000
bpsio_window_iops{pid="100"} 2.000
bpsio_window_bw_bytes_per_second{pid="100"} 6144.000
bpsio_window_arpt_seconds{pid="100"} 0.000005000
bpsio_window_records{pid="200"} 2
bpsio_window_blocks{pid="200"} 16
bpsio_window_io_seconds{pid="200"} 0.000009000
bpsio_window_bps{pid="200"} 1777777.778
bpsio_window_iops{pid="200"} 2.000
bpsio_window_bw_bytes_per_second{pid="200"} 8192.000
bpsio_window_arpt_seconds{pid="200"} 0.000004500
)";

constexpr const char* kAgentCsv = R"(pid,window_records,window_blocks,window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s
all,4,28,0.000016000,1750000.000,4.000,14336.000,0.000004750
100,2,12,0.000008000,1500000.000,2.000,6144.000,0.000005000
200,2,16,0.000009000,1777777.778,2.000,8192.000,0.000004500
)";

constexpr const char* kCollectorPrometheus = R"(# HELP bpsio_records_total I/O access records received, per tenant; tenant="all" is the fleet.
# TYPE bpsio_records_total counter
# HELP bpsio_blocks_total Application-required blocks received (B), per tenant.
# TYPE bpsio_blocks_total counter
# HELP bpsio_failed_records_total Records flagged as failed accesses (still counted in B).
# TYPE bpsio_failed_records_total counter
# HELP bpsio_sync_records_total fsync/fdatasync records (zero-block, time-only).
# TYPE bpsio_sync_records_total counter
# HELP bpsio_invalid_records_total Records rejected (end < start).
# TYPE bpsio_invalid_records_total counter
bpsio_records_total{tenant="all"} 4
bpsio_blocks_total{tenant="all"} 28
bpsio_failed_records_total{tenant="all"} 1
bpsio_sync_records_total{tenant="all"} 1
bpsio_invalid_records_total{tenant="all"} 1
bpsio_records_total{tenant="alpha"} 2
bpsio_blocks_total{tenant="alpha"} 12
bpsio_failed_records_total{tenant="alpha"} 1
bpsio_sync_records_total{tenant="alpha"} 0
bpsio_invalid_records_total{tenant="alpha"} 0
bpsio_records_total{tenant="beta"} 2
bpsio_blocks_total{tenant="beta"} 16
bpsio_failed_records_total{tenant="beta"} 0
bpsio_sync_records_total{tenant="beta"} 1
bpsio_invalid_records_total{tenant="beta"} 1
# HELP bpsio_agents_connected_total Agent connections accepted.
# TYPE bpsio_agents_connected_total counter
bpsio_agents_connected_total 2
# HELP bpsio_agents_active Agent connections currently open.
# TYPE bpsio_agents_active gauge
bpsio_agents_active 1
# HELP bpsio_frames_total Complete record frames decoded.
# TYPE bpsio_frames_total counter
bpsio_frames_total 7
# HELP bpsio_bad_frames_total Connections dropped on a malformed frame.
# TYPE bpsio_bad_frames_total counter
bpsio_bad_frames_total 1
# HELP bpsio_streams_total Distinct origin streams spooled.
# TYPE bpsio_streams_total counter
bpsio_streams_total 5
# HELP bpsio_tenants_seen Distinct tenants observed.
# TYPE bpsio_tenants_seen gauge
bpsio_tenants_seen 2
# HELP bpsio_window_seconds Sliding-window length.
# TYPE bpsio_window_seconds gauge
bpsio_window_seconds 1.000
# HELP bpsio_block_size_bytes Block unit used for bandwidth.
# TYPE bpsio_block_size_bytes gauge
bpsio_block_size_bytes 512
# HELP bpsio_window_bps Windowed BPS (blocks per second of busy time) per tenant; tenant="all" is the fleet stream.
# TYPE bpsio_window_bps gauge
bpsio_window_records{tenant="all"} 4
bpsio_window_blocks{tenant="all"} 28
bpsio_window_io_seconds{tenant="all"} 0.000016000
bpsio_window_bps{tenant="all"} 1750000.000
bpsio_window_iops{tenant="all"} 4.000
bpsio_window_bw_bytes_per_second{tenant="all"} 14336.000
bpsio_window_arpt_seconds{tenant="all"} 0.000004750
bpsio_window_records{tenant="alpha"} 2
bpsio_window_blocks{tenant="alpha"} 12
bpsio_window_io_seconds{tenant="alpha"} 0.000008000
bpsio_window_bps{tenant="alpha"} 1500000.000
bpsio_window_iops{tenant="alpha"} 2.000
bpsio_window_bw_bytes_per_second{tenant="alpha"} 6144.000
bpsio_window_arpt_seconds{tenant="alpha"} 0.000005000
bpsio_window_records{tenant="beta"} 2
bpsio_window_blocks{tenant="beta"} 16
bpsio_window_io_seconds{tenant="beta"} 0.000009000
bpsio_window_bps{tenant="beta"} 1777777.778
bpsio_window_iops{tenant="beta"} 2.000
bpsio_window_bw_bytes_per_second{tenant="beta"} 8192.000
bpsio_window_arpt_seconds{tenant="beta"} 0.000004500
)";

constexpr const char* kCollectorCsv = R"(tenant,records_total,blocks_total,window_records,window_blocks,window_io_s,window_bps,window_iops,window_bw_Bps,window_arpt_s
all,4,28,4,28,0.000016000,1750000.000,4.000,14336.000,0.000004750
alpha,2,12,2,12,0.000008000,1500000.000,2.000,6144.000,0.000005000
beta,2,16,2,16,0.000009000,1777777.778,2.000,8192.000,0.000004500
)";

agent::MetricAggregator make_aggregator() {
  agent::MetricAggregator agg(SimDuration::from_seconds(1), 512);
  agg.add(kAlpha);
  agg.add(kBeta);
  return agg;
}

TEST(Exposition, AgentPrometheusTextIsPinned) {
  agent::TransportStats transport;
  transport.clients_connected_total = 3;
  transport.clients_active = 1;
  transport.frames_total = 7;
  transport.bad_frames_total = 1;
  transport.forward.enabled = true;
  transport.forward.frames_forwarded = 5;
  transport.forward.records_forwarded = 11;
  transport.forward.records_spilled = 2;
  transport.forward.records_dropped = 1;
  EXPECT_EQ(make_aggregator().prometheus_text(transport), kAgentPrometheus);

  // Without --forward the four forward families are absent and nothing
  // else moves.
  transport.forward.enabled = false;
  std::istringstream pinned(kAgentPrometheus);
  std::string without_forward;
  for (std::string line; std::getline(pinned, line);) {
    if (line.find("bpsio_forward_") == std::string::npos) {
      without_forward += line + "\n";
    }
  }
  EXPECT_EQ(make_aggregator().prometheus_text(transport), without_forward);
}

TEST(Exposition, AgentCsvSnapshotIsPinned) {
  EXPECT_EQ(make_aggregator().csv_snapshot(), kAgentCsv);
}

TEST(Exposition, CollectorTextsArePinned) {
  collector::TenantShards shards(4, SimDuration::from_seconds(1), 512);
  shards.ingest(shards.handle("alpha"), kAlpha);
  shards.ingest(shards.handle("beta"), kBeta);
  collector::CollectorTransport transport;
  transport.agents_connected_total = 2;
  transport.agents_active = 1;
  transport.frames_total = 7;
  transport.bad_frames_total = 1;
  transport.streams_total = 5;
  EXPECT_EQ(shards.prometheus_text(transport), kCollectorPrometheus);
  EXPECT_EQ(shards.csv_snapshot(), kCollectorCsv);
}

}  // namespace
}  // namespace bpsio
