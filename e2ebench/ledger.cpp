// `e2e ledger`: the traced replay. It takes the exact record stream of a
// traced run and pushes it, in pipeline order, through each layer's public
// entry points, timing every call with a span from this file (nothing inside
// the library is instrumented). Every stage consumes its output into a
// digest or a total that must equal the stream as captured; a mismatch
// fails the run.
//
//   spill_report     SpillWriter::append -> open_trace_source + MergedSource
//                    -> MetricPipeline + OverlapConsumer
//   live_fleet       encode_frame -> FrameDecoder::feed -> MetricAggregator::add
//                    + ForwardLink::append/flush_all (into a socket drained
//                    here) -> FrameDecoder::feed -> TenantShards::ingest,
//                    SlidingWindowMetrics::add, both prometheus_text renderers
//   collector_fanin  encode_tagged_frame -> FrameDecoder::feed ->
//                    TenantShards::ingest with 1 and with N workers,
//                    SlidingWindowMetrics::add, prometheus_text
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agent/aggregator.hpp"
#include "agent/forward.hpp"
#include "analysis.hpp"
#include "collector/tenant_shards.hpp"
#include "common.hpp"
#include "metrics/online.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "trace/frame.hpp"
#include "trace/mapped_source.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"

namespace e2e {
namespace {

using bpsio::SimDuration;
using bpsio::trace::IoRecord;

/// Capture clients ship one per-thread buffer per frame or spill batch.
constexpr std::size_t kCaptureBuffer = 4096;
/// Daemons read their sockets in chunks of this size.
constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr bpsio::Bytes kBlockSize = 512;
constexpr std::size_t kShards = 8;

/// Records and blocks per tenant.
using TenantTotals = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

/// Single-threaded span recorder: spans nest by a stack, so a span opened
/// while another is open becomes its child.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t batch) : t_(t) {
      idx_ = static_cast<std::int32_t>(t_.spans_.size());
      t_.spans_.push_back({name, batch, 0, 0, t_.stack_.empty() ? -1 : t_.stack_.back()});
      t_.stack_.push_back(idx_);
      t_.spans_[static_cast<std::size_t>(idx_)].start_ns = now_ns();
    }
    ~Scope() {
      t_.spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
      t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t idx_ = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

struct Ledger {
  Tracer tracer;
  std::map<std::string, std::uint64_t> records;  ///< records through each stage
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void expect_digest(const Digest& got, const Digest& want, const std::string& stage) {
    expect(got == want, stage + " digest " + std::to_string(got.records) + "/" +
                            std::to_string(got.blocks) + " != captured " +
                            std::to_string(want.records) + "/" +
                            std::to_string(want.blocks));
  }
};

/// Digest of the records carried by a buffer of encoded frames.
Digest wire_digest(const std::vector<char>& wire) {
  Digest d;
  std::size_t at = 0;
  while (at + 8 <= wire.size()) {
    std::uint32_t magic = 0, count = 0;
    std::memcpy(&magic, wire.data() + at, 4);
    std::memcpy(&count, wire.data() + at + 4, 4);
    std::size_t header = 8;
    if (magic == bpsio::trace::kTaggedFrameMagic) header = 16;
    if (magic == bpsio::trace::kHelloMagic) {
      at += 8 + (count + 7) / 8 * 8;
      continue;
    }
    for (std::uint32_t k = 0; k < count; ++k) {
      IoRecord r;
      std::memcpy(&r, wire.data() + at + header + k * sizeof r, sizeof r);
      d.add(r);
    }
    at += header + count * sizeof(IoRecord);
  }
  return d;
}

struct Reference {
  Digest digest;
  std::int64_t t_ns = 0;  ///< overlap_time_paper of the whole stream
  std::uint64_t runs = 0; ///< disjoint busy runs in the union
  std::int64_t lo = 0, hi = 0;
};

Reference reference_of(const std::vector<IoRecord>& all) {
  Reference ref;
  std::vector<bpsio::trace::TimeInterval> iv;
  iv.reserve(all.size());
  for (const IoRecord& r : all) {
    ref.digest.add(r);
    iv.push_back({r.start_ns, r.end_ns});
  }
  std::sort(iv.begin(), iv.end(), [](const auto& a, const auto& b) {
    return a.start_ns < b.start_ns;
  });
  std::int64_t hi = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (i == 0 || iv[i].start_ns > hi) ++ref.runs;
    hi = i == 0 ? iv[i].end_ns : std::max(hi, iv[i].end_ns);
  }
  if (!iv.empty()) {
    ref.lo = iv.front().start_ns;
    ref.hi = hi;
  }
  ref.t_ns = bpsio::metrics::overlap_time_paper(std::move(iv)).ns();
  return ref;
}

/// Wraps a source so each pull is a span and its output feeds a digest.
class TimedSource final : public bpsio::trace::RecordSource {
 public:
  TimedSource(std::unique_ptr<RecordSource> inner, Ledger& ledger, const char* stage,
              Digest& digest)
      : inner_(std::move(inner)), ledger_(ledger), stage_(stage), digest_(digest) {}
  std::span<const IoRecord> next_chunk() override {
    Tracer::Scope s(ledger_.tracer, stage_, chunk_++);
    const auto chunk = inner_->next_chunk();
    digest_.add(chunk);
    ledger_.records[stage_] += chunk.size();
    return chunk;
  }
  std::optional<std::uint64_t> size_hint() const override { return inner_->size_hint(); }
  bpsio::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<RecordSource> inner_;
  Ledger& ledger_;
  const char* stage_;
  Digest& digest_;
  std::uint64_t chunk_ = 0;
};

class TimedConsumer final : public bpsio::metrics::MetricConsumer {
 public:
  TimedConsumer(MetricConsumer& inner, Ledger& ledger, const char* stage)
      : inner_(inner), ledger_(ledger), stage_(stage) {}
  void consume(std::span<const IoRecord> chunk) override {
    Tracer::Scope s(ledger_.tracer, stage_, chunk_++);
    inner_.consume(chunk);
    ledger_.records[stage_] += chunk.size();
  }
  void finish() override {
    Tracer::Scope s(ledger_.tracer, stage_, chunk_);
    inner_.finish();
  }

 private:
  MetricConsumer& inner_;
  Ledger& ledger_;
  const char* stage_;
  std::uint64_t chunk_ = 0;
};

SimDuration window_for(const Reference& ref) {
  // The daemons' default 10 s window, widened when the stream is longer, so
  // every replayed window holds the whole stream and its totals and union
  // can be checked exactly.
  return SimDuration(std::max<std::int64_t>(10'000'000'000, ref.hi - ref.lo + 1'000'000'000));
}

// ----------------------------------------------------------------------------
// Stage bodies.
// ----------------------------------------------------------------------------

void replay_spill(Ledger& L, const std::vector<std::vector<IoRecord>>& per_file,
                  const Reference& ref, const std::string& work) {
  std::vector<std::string> paths;
  std::uint64_t batch = 0;
  for (std::size_t f = 0; f < per_file.size(); ++f) {
    paths.push_back(work + "/replay." + std::to_string(f) + ".bpstrace");
    bpsio::trace::SpillWriter writer(paths.back(), kCaptureBuffer);
    L.expect(writer.ok(), "SpillWriter could not open " + paths.back());
    const auto& recs = per_file[f];
    for (std::size_t at = 0; at < recs.size(); at += kCaptureBuffer) {
      Tracer::Scope s(L.tracer, "trace.spill_append", batch++);
      const std::size_t n = std::min(kCaptureBuffer, recs.size() - at);
      writer.append(std::span<const IoRecord>(recs.data() + at, n));
      L.records["trace.spill_append"] += n;
    }
    Tracer::Scope s(L.tracer, "trace.spill_append", batch++);
    L.expect(writer.close().ok(), "SpillWriter::close failed");
  }

  Digest read_digest, merge_digest;
  std::vector<std::unique_ptr<bpsio::trace::RecordSource>> children;
  for (const std::string& p : paths) {
    children.push_back(std::make_unique<TimedSource>(
        bpsio::trace::open_trace_source(p), L, "trace.read", read_digest));
  }
  bpsio::trace::MergeOptions keep;
  keep.pid_stride = 0;  // records pass through unchanged, so digests compare
  auto merged = std::make_unique<bpsio::trace::MergedSource>(std::move(children), keep);
  TimedSource timed_merged(std::move(merged), L, "trace.merge", merge_digest);
  bpsio::metrics::OverlapConsumer overlap;
  TimedConsumer timed_overlap(overlap, L, "metrics.overlap");
  bpsio::metrics::MetricPipeline pipeline;
  pipeline.attach(timed_overlap);
  {
    Tracer::Scope s(L.tracer, "metrics.pipeline", 0);
    const bpsio::Status st = pipeline.run(timed_merged);
    L.expect(st.ok(), "MetricPipeline: " + st.to_string());
  }
  L.records["metrics.pipeline"] = ref.digest.records;
  L.expect_digest(read_digest, ref.digest, "trace.read");
  L.expect_digest(merge_digest, ref.digest, "trace.merge");
  L.expect(overlap.io_time().ns() == ref.t_ns,
           "metrics.overlap T " + std::to_string(overlap.io_time().ns()) +
               " != overlap_time_paper " + std::to_string(ref.t_ns));
}

/// Decode + ingest every connection's bytes with `workers` threads, each
/// owning connections i, i + workers, ... (the collector's worker model).
/// Only the serial pass records per-call spans (the tracer is one thread's).
bool ingest_pass(Ledger* traced, const std::vector<std::vector<char>>& conn_bytes,
                 std::size_t workers, bpsio::collector::TenantShards& shards,
                 Digest& digest) {
  std::vector<Digest> digests(workers);
  std::vector<char> decoded_ok(workers, 1);
  auto work = [&](std::size_t w) {
    std::uint64_t chunk = 0;
    for (std::size_t c = w; c < conn_bytes.size(); c += workers) {
      bpsio::trace::FrameDecoder dec;
      bpsio::collector::TenantShards::Tenant* tenant = nullptr;
      const bpsio::trace::FrameDecoder::TaggedFrameSink sink =
          [&](std::uint64_t, std::span<const IoRecord> recs) {
            digests[w].add(recs);
            if (tenant == nullptr) {
              tenant = shards.handle(dec.tenant().empty() ? "default" : dec.tenant());
            }
            if (traced != nullptr) {
              Tracer::Scope s(traced->tracer, "collector.ingest", chunk);
              shards.ingest(tenant, recs);
              traced->records["collector.ingest"] += recs.size();
            } else {
              shards.ingest(tenant, recs);
            }
          };
      const auto& bytes = conn_bytes[c];
      for (std::size_t at = 0; at < bytes.size(); at += kRecvChunk, ++chunk) {
        const std::size_t n = std::min(kRecvChunk, bytes.size() - at);
        if (traced != nullptr) {
          Tracer::Scope s(traced->tracer, "trace.frame_decode", chunk);
          const std::uint64_t before = digests[w].records;
          if (!dec.feed(bytes.data() + at, n, sink).ok()) decoded_ok[w] = 0;
          traced->records["trace.frame_decode"] += digests[w].records - before;
        } else if (!dec.feed(bytes.data() + at, n, sink).ok()) {
          decoded_ok[w] = 0;
        }
      }
      if (dec.pending_bytes() != 0) decoded_ok[w] = 0;
    }
  };
  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }
  for (const Digest& d : digests) digest.merge(d);
  return std::find(decoded_ok.begin(), decoded_ok.end(), 0) == decoded_ok.end();
}

/// Serial collector pass (traced), then the same bytes with N workers;
/// checks both against the captured stream and reports the speedup.
void replay_collector(Ledger& L, const std::vector<std::vector<char>>& conn_bytes,
                      std::size_t workers, const Reference& ref,
                      const TenantTotals& tenants,
                      double& speedup) {
  const SimDuration window = window_for(ref);
  bpsio::collector::TenantShards serial(kShards, window, kBlockSize);
  bpsio::collector::TenantShards parallel(kShards, window, kBlockSize);
  Digest d1, dn;
  std::int64_t t1 = 0, tn = 0;
  {
    Tracer::Scope s(L.tracer, "collector.worker_pass", 0);
    const std::int64_t t0 = now_ns();
    L.expect(ingest_pass(&L, conn_bytes, 1, serial, d1), "collector FrameDecoder failed");
    t1 = now_ns() - t0;
  }
  {
    Tracer::Scope s(L.tracer, "collector.ingest_parallel", 0);
    const std::int64_t t0 = now_ns();
    L.expect(ingest_pass(nullptr, conn_bytes, workers, parallel, dn),
             "collector FrameDecoder failed (N workers)");
    tn = now_ns() - t0;
  }
  L.records["collector.worker_pass"] = d1.records;
  L.records["collector.ingest_parallel"] = dn.records;
  speedup = static_cast<double>(t1) / static_cast<double>(std::max<std::int64_t>(tn, 1));
  L.expect_digest(d1, ref.digest, "collector decode (1 worker)");
  L.expect_digest(dn, ref.digest, "collector decode (N workers)");
  for (auto* shards : {&serial, &parallel}) {
    L.expect(shards->records_total() == ref.digest.records &&
                 shards->blocks_total() == ref.digest.blocks,
             "TenantShards fleet totals differ from the captured stream");
    for (const auto& [name, want] : tenants) {
      const auto* t = shards->handle(name);
      L.expect(t->records_total == want.first && t->blocks_total == want.second,
               "TenantShards totals of tenant " + name + " differ from what was sent");
    }
  }
  Tracer::Scope s(L.tracer, "collector.render", 0);
  const std::string text = parallel.prometheus_text({});
  L.expect(text.find("bpsio_records_total{tenant=\"all\"} " +
                     std::to_string(ref.digest.records) + "\n") != std::string::npos,
           "collector prometheus_text does not show every record");
  L.records["collector.render"] = 1;
}

void replay_window(Ledger& L, const std::vector<std::span<const IoRecord>>& batches,
                   const Reference& ref) {
  bpsio::metrics::SlidingWindowMetrics window(window_for(ref));
  std::uint64_t b = 0;
  for (const auto& batch : batches) {
    Tracer::Scope s(L.tracer, "metrics.window_add", b++);
    window.add(batch);
    L.records["metrics.window_add"] += batch.size();
  }
  L.expect(window.accesses() == ref.digest.records && window.blocks() == ref.digest.blocks &&
               window.io_time().ns() == ref.t_ns,
           "SlidingWindowMetrics totals or union differ from the captured stream");

  // The same stream through a window an eighth of its span, so most records
  // are evicted again: the steady state of a daemon that outlives its window.
  const std::int64_t length = std::max<std::int64_t>(1'000'000, (ref.hi - ref.lo) / 8);
  bpsio::metrics::SlidingWindowMetrics short_window{SimDuration(length)};
  b = 0;
  for (const auto& batch : batches) {
    Tracer::Scope s(L.tracer, "metrics.window_evict", b++);
    short_window.add(batch);
    L.records["metrics.window_evict"] += batch.size();
  }
  // Exact reference: the records ending inside the final window, their
  // blocks, and the union of their intervals clipped to it.
  const std::int64_t ws = short_window.window_start_ns();
  std::uint64_t live = 0, live_blocks = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
  for (const auto& batch : batches) {
    for (const IoRecord& r : batch) {
      if (r.end_ns <= ws) continue;
      ++live;
      live_blocks += r.blocks;
      clipped.emplace_back(std::max(r.start_ns, ws), r.end_ns);
    }
  }
  std::sort(clipped.begin(), clipped.end());
  std::int64_t busy = 0, lo = 0, hi = 0;
  for (std::size_t i = 0; i < clipped.size(); ++i) {
    if (i == 0 || clipped[i].first > hi) {
      busy += hi - lo;
      lo = clipped[i].first;
      hi = clipped[i].second;
    } else {
      hi = std::max(hi, clipped[i].second);
    }
  }
  busy += hi - lo;
  L.expect(short_window.now().ns() == ref.hi && short_window.accesses() == live &&
               short_window.blocks() == live_blocks && short_window.io_time().ns() == busy,
           "SlidingWindowMetrics after eviction differs from the records inside its window");
}

/// Accepts one connection on a Unix socket and keeps every byte it receives.
class SocketDrain {
 public:
  explicit SocketDrain(std::string path) : path_(std::move(path)) {
    ::unlink(path_.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path_.c_str());
    ok_ = fd_ >= 0 && ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
          ::listen(fd_, 1) == 0;
    if (ok_) thread_ = std::thread([this] { run(); });
  }
  ~SocketDrain() {
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  SocketDrain(const SocketDrain&) = delete;
  SocketDrain& operator=(const SocketDrain&) = delete;
  bool ok() const { return ok_; }
  /// Waits for the peer to close, then hands over the bytes.
  std::vector<char> take() {
    if (thread_.joinable()) thread_.join();
    return std::move(bytes_);
  }

 private:
  void run() {
    const int c = ::accept(fd_, nullptr, nullptr);
    if (c < 0) return;
    char buf[kRecvChunk];
    for (;;) {
      const ssize_t n = ::recv(c, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      bytes_.insert(bytes_.end(), buf, buf + n);
    }
    ::close(c);
  }
  std::string path_;
  int fd_ = -1;
  bool ok_ = false;
  std::vector<char> bytes_;
  std::thread thread_;
};

void replay_live(Ledger& L, const std::vector<IoRecord>& recs, const Reference& ref,
                 const std::string& work, std::size_t workers, double& speedup) {
  const SimDuration window = window_for(ref);
  SocketDrain drain(work + "/forward.sock");
  L.expect(drain.ok(), "cannot listen on " + work + "/forward.sock");
  bpsio::agent::ForwardOptions fopt;
  fopt.target = work + "/forward.sock";
  fopt.tenant = "bench";
  bpsio::agent::ForwardLink link(fopt);
  L.expect(link.connect().ok(), "ForwardLink::connect failed");
  bpsio::agent::MetricAggregator agg(window, kBlockSize);
  bpsio::trace::FrameDecoder dec;
  std::vector<char> wire;
  Digest encoded, decoded;
  std::vector<std::span<const IoRecord>> batches;
  for (std::size_t at = 0; at < recs.size(); at += kCaptureBuffer) {
    batches.emplace_back(recs.data() + at, std::min(kCaptureBuffer, recs.size() - at));
  }
  for (std::uint64_t b = 0; b < batches.size(); ++b) {
    {
      Tracer::Scope s(L.tracer, "trace.frame_encode", b);
      wire.clear();
      bpsio::trace::encode_frame(batches[b], wire);
      encoded.merge(wire_digest(wire));
      L.records["trace.frame_encode"] += batches[b].size();
    }
    {
      Tracer::Scope s(L.tracer, "trace.frame_decode", b);
      const bpsio::Status st = dec.feed(wire.data(), wire.size(), [&](std::span<const IoRecord> frame) {
        decoded.add(frame);
        L.records["trace.frame_decode"] += frame.size();
        {
          Tracer::Scope a(L.tracer, "agent.aggregate", b);
          agg.add(frame);
          L.records["agent.aggregate"] += frame.size();
        }
        Tracer::Scope f(L.tracer, "agent.forward", b);
        link.append(1, frame);
        L.records["agent.forward"] += frame.size();
      });
      L.expect(st.ok(), "agent FrameDecoder: " + st.to_string());
    }
    Tracer::Scope f(L.tracer, "agent.forward", b);
    link.flush_all();  // the daemon's poll-round tail
  }
  {
    Tracer::Scope f(L.tracer, "agent.forward", batches.size());
    link.close();
  }
  L.expect_digest(encoded, ref.digest, "trace.frame_encode");
  L.expect_digest(decoded, ref.digest, "agent trace.frame_decode");
  L.expect(agg.records_total() == ref.digest.records && agg.blocks_total() == ref.digest.blocks &&
               agg.global().io_time().ns() == ref.t_ns,
           "MetricAggregator totals or union differ from the captured stream");
  L.expect(link.stats().records_forwarded == ref.digest.records,
           "ForwardLink forwarded " + std::to_string(link.stats().records_forwarded) +
               " records");
  {
    Tracer::Scope s(L.tracer, "agent.render", 0);
    const std::string text = agg.prometheus_text({});
    L.expect(text.find("bpsio_records_total " + std::to_string(ref.digest.records) + "\n") !=
                 std::string::npos,
             "agent prometheus_text does not show every record");
    L.records["agent.render"] = 1;
  }
  std::vector<std::vector<char>> conn_bytes;
  {
    // The forward stage's output is what reached the socket.
    Tracer::Scope f(L.tracer, "agent.forward", batches.size() + 1);
    conn_bytes.push_back(drain.take());
    L.expect_digest(wire_digest(conn_bytes[0]), ref.digest, "agent.forward (drained socket)");
  }
  replay_collector(L, conn_bytes, workers, ref, {{"bench", {ref.digest.records, ref.digest.blocks}}},
                   speedup);
  replay_window(L, batches, ref);
}

/// Each connection's tile repeated `passes` times, every pass moved past the
/// previous one as the load generator moves it, so streams stay ordered.
std::vector<FaninConn> replay_plan(std::vector<FaninConn> plan, std::size_t passes) {
  for (FaninConn& c : plan) {
    const std::size_t tile = c.frames.size();
    for (std::size_t p = 1; p < passes; ++p) {
      const std::int64_t shift = static_cast<std::int64_t>(p) * (c.span_ns + 1000);
      for (std::size_t f = 0; f < tile; ++f) {
        FaninFrame frame = c.frames[f];
        for (IoRecord& r : frame.records) {
          r.start_ns += shift;
          r.end_ns += shift;
        }
        c.frames.push_back(std::move(frame));
      }
    }
  }
  return plan;
}

void replay_fanin(Ledger& L, const std::vector<FaninConn>& plan, const TenantTotals& tenants,
                  const std::vector<std::span<const IoRecord>>& batches, std::size_t workers,
                  const Reference& ref, double& speedup) {
  std::vector<std::vector<char>> conn_bytes(plan.size());
  Digest encoded;
  for (std::size_t c = 0; c < plan.size(); ++c) {
    Tracer::Scope s(L.tracer, "trace.frame_encode", c);
    bpsio::trace::encode_hello(plan[c].tenant, conn_bytes[c]);
    for (const FaninFrame& f : plan[c].frames) {
      bpsio::trace::encode_tagged_frame(f.stream, f.records, conn_bytes[c]);
      L.records["trace.frame_encode"] += f.records.size();
    }
    encoded.merge(wire_digest(conn_bytes[c]));
  }
  L.expect_digest(encoded, ref.digest, "trace.frame_encode");
  replay_collector(L, conn_bytes, workers, ref, tenants, speedup);
  replay_window(L, batches, ref);
}

}  // namespace

int run_ledger(const Flags& flags) {
  const std::string workload = flags.str("workload");
  const std::string input = flags.str("input");
  const std::string work = flags.str("work-dir", ".");
  const std::string spans_out = flags.str("spans-out");
  const auto workers = static_cast<std::size_t>(flags.num("workers", 2));

  Ledger L;
  Reference ref;
  double speedup = 0;
  std::string error;
  if (workload == "spill_report" || workload == "live_fleet") {
    std::vector<std::string> files =
        workload == "spill_report" ? trace_files(input) : std::vector<std::string>{input};
    std::vector<std::vector<IoRecord>> per_file(files.size());
    std::vector<IoRecord> all;
    for (std::size_t f = 0; f < files.size(); ++f) {
      if (!read_trace_raw(files[f], per_file[f], error)) {
        std::fprintf(stderr, "e2e ledger: %s\n", error.c_str());
        return 2;
      }
      all.insert(all.end(), per_file[f].begin(), per_file[f].end());
    }
    if (all.empty()) {
      std::fprintf(stderr, "e2e ledger: no records in %s\n", input.c_str());
      return 2;
    }
    ref = reference_of(all);
    Tracer::Scope root(L.tracer, "ledger", 0);
    if (workload == "spill_report") {
      replay_spill(L, per_file, ref, work);
    } else {
      replay_live(L, all, ref, work, workers, speedup);
    }
  } else if (workload == "collector_fanin") {
    const std::vector<FaninConn> plan = replay_plan(
        fanin_plan(static_cast<std::uint64_t>(flags.num("seed", 1)),
                   static_cast<std::uint32_t>(flags.num("conns", 4))),
        static_cast<std::size_t>(std::max<long long>(1, flags.num("passes", 1))));
    std::vector<IoRecord> all;
    TenantTotals tenants;
    std::vector<std::span<const IoRecord>> batches;
    for (const FaninConn& c : plan) {
      for (const FaninFrame& f : c.frames) {
        all.insert(all.end(), f.records.begin(), f.records.end());
        batches.emplace_back(f.records);
        auto& t = tenants[c.tenant];
        t.first += f.records.size();
        for (const IoRecord& r : f.records) t.second += r.blocks;
      }
    }
    ref = reference_of(all);
    Tracer::Scope root(L.tracer, "ledger", 0);
    replay_fanin(L, plan, tenants, batches, workers, ref, speedup);
  } else {
    std::fprintf(stderr, "e2e ledger: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  // Self time per stage; the root's own self time is what no stage covers.
  const auto& spans = L.tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::int64_t> stage_self;
  std::int64_t root_self = 0, root_wall = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      root_self += self[i];
      root_wall += spans[i].end_ns - spans[i].start_ns;
    } else {
      stage_self[spans[i].name] += self[i];
    }
  }
  JsonLine out;
  std::int64_t sum = 0;
  for (const auto& [name, ns] : stage_self) {
    sum += ns;
    const std::uint64_t n = std::max<std::uint64_t>(L.records[name], 1);
    out.put(name + ".self_ns", ns);
    out.put(name + ".records", L.records[name]);
    out.put(name + ".ns_per_rec", static_cast<double>(ns) / static_cast<double>(n));
  }
  out.put("ledger.records", ref.digest.records);
  out.put("ledger.wall_ns", root_wall);
  out.put("ledger.stage_sum_ns", sum);
  out.put("ledger.unattributed_ns", root_self);
  out.put("ledger.unattributed_frac",
          static_cast<double>(root_self) / static_cast<double>(std::max<std::int64_t>(root_wall, 1)));
  out.put("metrics.overlap.runs_per_rec",
          static_cast<double>(ref.runs) /
              static_cast<double>(std::max<std::uint64_t>(ref.digest.records, 1)));
  out.put("collector.ingest.speedup", speedup);
  out.put_bool("checks_ok", L.failures.empty());
  std::string joined;
  for (const std::string& f : L.failures) joined += (joined.empty() ? "" : "; ") + f;
  out.put("check_failures", joined);

  if (!spans_out.empty()) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f != nullptr) {
      for (std::size_t i = 0; i < spans.size(); ++i) {
        std::fprintf(f,
                     "{\"name\": \"%s\", \"batch\": %llu, \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"self_ns\": %lld}\n",
                     spans[i].name.c_str(), static_cast<unsigned long long>(spans[i].batch),
                     static_cast<long long>(spans[i].start_ns),
                     static_cast<long long>(spans[i].end_ns), spans[i].parent,
                     static_cast<long long>(self[i]));
      }
      std::fclose(f);
    }
  }
  std::cout << out.str() << std::endl;
  return L.failures.empty() ? 0 : 1;
}

}  // namespace e2e
