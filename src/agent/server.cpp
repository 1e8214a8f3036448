#include "agent/server.hpp"

#include <utility>

namespace bpsio::agent {
namespace {

ingest::NodeOptions node_options(const AgentOptions& options) {
  ingest::NodeOptions node;
  static_cast<ingest::CommonOptions&>(node) = options;
  node.name = "agent";
  node.expect_conns = options.expect_clients;
  return node;
}

}  // namespace

AgentServer::AgentServer(AgentOptions options)
    : options_(std::move(options)),
      aggregator_(options_.window, options_.block_size),
      node_(node_options(options_), *this) {}

Status AgentServer::start() {
  if (const Status started = node_.start(); !started.ok()) return started;
  if (options_.forward_target.empty()) return {};
  ForwardOptions fwd;
  fwd.target = options_.forward_target;
  fwd.tenant = options_.forward_tenant;
  fwd.spill_dir = options_.forward_spill_dir;
  fwd.batch = options_.forward_batch;
  forward_ = std::make_unique<ForwardLink>(std::move(fwd));
  return forward_->connect();
}

ForwardStats AgentServer::forward_stats() const {
  return forward_ != nullptr ? forward_->stats() : ForwardStats{};
}

ingest::Role::Sink AgentServer::open_stream(const std::string& /*tenant*/,
                                            std::uint64_t serial) {
  return [this, serial](std::span<const trace::IoRecord> frame) {
    aggregator_.add(frame);
    if (forward_ != nullptr) forward_->append(serial, frame);
  };
}

void AgentServer::close_stream(std::uint64_t serial) {
  if (forward_ != nullptr) forward_->stream_done(serial);
}

// Ship partial forward batches at the round tail: forwarding latency is
// bounded by one poll interval even under a trickle of records.
void AgentServer::end_round() {
  if (forward_ != nullptr) forward_->flush_all();
}

void AgentServer::finish() {
  if (forward_ != nullptr) forward_->close();
}

std::string AgentServer::metrics_text(SimTime now) {
  aggregator_.advance(now);
  return aggregator_.prometheus_text(transport(), forward_stats());
}

std::string AgentServer::csv_text(SimTime now) {
  aggregator_.advance(now);
  return aggregator_.csv_snapshot();
}

}  // namespace bpsio::agent
