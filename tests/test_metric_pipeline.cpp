// Differential tests: the streaming pipeline must be bit-identical to the
// batch metric path — same B, T, BPS, ARPT (and timeline/profile) whether
// records arrive from memory, a spilled trace file, or a k-way merge, and
// equal to the Figure-3 transcription (overlap_time_paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bps_meter.hpp"
#include "metrics/calculators.hpp"
#include "metrics/overlap.hpp"
#include "metrics/pipeline.hpp"
#include "metrics/timeline.hpp"
#include "trace/merge.hpp"
#include "trace/record_source.hpp"
#include "trace/spill_writer.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio {
namespace {

using trace::IoRecord;
using trace::make_record;

// Deterministic messy workload: overlapping bursts from several pids, gaps,
// duplicate (start, end) keys, nested and zero-length intervals, a failure.
std::vector<IoRecord> messy_records() {
  std::vector<IoRecord> records;
  std::int64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    const auto pid = static_cast<std::uint32_t>(i % 4 + 1);
    const std::int64_t len = 40 + (i * 37) % 300;
    records.push_back(make_record(pid, static_cast<std::uint64_t>(i % 9 + 1),
                                  SimTime(t), SimTime(t + len)));
    if (i % 5 == 0) {  // nested interval sharing the start
      records.push_back(make_record(pid, 2, SimTime(t), SimTime(t + len / 2)));
    }
    if (i % 17 == 0) {  // zero-length access
      records.push_back(make_record(pid, 1, SimTime(t + 5), SimTime(t + 5)));
    }
    if (i % 23 == 0) {  // failed access
      records.push_back(make_record(pid, 3, SimTime(t + 1), SimTime(t + 30),
                                    trace::IoOpKind::write, trace::kIoFailed));
    }
    // Bursty clock: overlap within a burst, a gap between bursts.
    t += (i % 10 == 9) ? 900 : 25;
  }
  return records;
}

trace::TraceCollector messy_collector() {
  trace::TraceCollector c;
  for (const auto& r : messy_records()) c.add(r);
  return c;
}

void expect_identical(const metrics::MetricSample& a,
                      const metrics::MetricSample& b) {
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.access_count, b.access_count);
  EXPECT_EQ(a.app_blocks, b.app_blocks);
  EXPECT_EQ(a.app_bytes, b.app_bytes);
  EXPECT_EQ(a.moved_bytes, b.moved_bytes);
  EXPECT_DOUBLE_EQ(a.io_time_s, b.io_time_s);
  EXPECT_DOUBLE_EQ(a.iops, b.iops);
  EXPECT_DOUBLE_EQ(a.bandwidth_bps, b.bandwidth_bps);
  EXPECT_DOUBLE_EQ(a.arpt_s, b.arpt_s);
  EXPECT_DOUBLE_EQ(a.bps, b.bps);
  EXPECT_DOUBLE_EQ(a.peak_concurrency, b.peak_concurrency);
}

TEST(MetricPipeline, StreamingTEqualsPaperAndMergedOverlap) {
  const auto c = messy_collector();
  auto source = trace::collector_source(c);
  metrics::OverlapConsumer overlap;
  metrics::MetricPipeline pipeline;
  pipeline.attach(overlap);
  ASSERT_TRUE(pipeline.run(source).ok());
  const auto col_time = c.col_time();
  EXPECT_EQ(overlap.io_time().ns(), metrics::overlap_time_paper(col_time).ns());
  EXPECT_EQ(overlap.io_time().ns(),
            metrics::overlap_time_merged(col_time).ns());
  EXPECT_EQ(overlap.peak_concurrency(), metrics::peak_concurrency(col_time));
  EXPECT_EQ(overlap.idle_time().ns(), metrics::idle_time(col_time).ns());
  EXPECT_DOUBLE_EQ(overlap.avg_concurrency(),
                   metrics::average_concurrency(col_time));
}

TEST(MetricPipeline, StreamingBEqualsBatchCounts) {
  const auto c = messy_collector();
  auto source = trace::collector_source(c);
  metrics::BlocksConsumer blocks;
  metrics::MetricPipeline pipeline;
  pipeline.attach(blocks);
  ASSERT_TRUE(pipeline.run(source).ok());
  EXPECT_EQ(blocks.record_count(), c.record_count());
  EXPECT_EQ(blocks.blocks(), c.total_blocks());
  EXPECT_EQ(blocks.bytes(), c.total_bytes());
  EXPECT_EQ(pipeline.records_processed(), c.record_count());
}

TEST(MetricPipeline, StreamingArptEqualsExactMean) {
  const auto c = messy_collector();
  // Reference: exact integer-ns total, single division.
  std::uint64_t total_ns = 0;
  std::uint64_t n = 0;
  auto view = trace::collector_view(c);
  metrics::ArptConsumer arpt_acc;
  metrics::MetricPipeline pipeline;
  pipeline.attach(arpt_acc).check_order(false);
  ASSERT_TRUE(pipeline.run(view).ok());
  auto snapshot = trace::collector_source(c);
  for (auto chunk = snapshot.next_chunk(); !chunk.empty();
       chunk = snapshot.next_chunk()) {
    for (const auto& r : chunk) {
      total_ns += static_cast<std::uint64_t>(r.end_ns - r.start_ns);
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_DOUBLE_EQ(arpt_acc.arpt_s(), static_cast<double>(total_ns) /
                                          static_cast<double>(n) * 1e-9);
  EXPECT_DOUBLE_EQ(metrics::arpt(c), arpt_acc.arpt_s());
}

TEST(MetricPipeline, SpilledStreamIsBitIdenticalToInMemory) {
  const auto c = messy_collector();
  const Bytes moved = 64 * kMiB;
  const SimDuration exec = SimDuration(5'000'000'000);

  auto memory = trace::collector_source(c);
  const auto from_memory = metrics::measure_stream(memory, moved, exec);
  ASSERT_TRUE(from_memory.ok());

  // Spill the canonical-order stream to disk, then measure the file.
  const std::string path = "/tmp/bpsio_pipeline_spill.bpstrace";
  {
    trace::SpillWriter writer(path, /*batch_records=*/64);
    auto snapshot = trace::collector_source(c);
    for (auto chunk = snapshot.next_chunk(); !chunk.empty();
         chunk = snapshot.next_chunk()) {
      for (const auto& r : chunk) writer.append(r);
    }
    ASSERT_TRUE(writer.close().ok());
  }
  trace::SpilledTraceSource spilled(path, /*chunk_records=*/33);
  const auto from_disk = metrics::measure_stream(spilled, moved, exec);
  ASSERT_TRUE(from_disk.ok());
  expect_identical(*from_memory, *from_disk);
  std::remove(path.c_str());
}

TEST(MetricPipeline, MergedStreamIsBitIdenticalToBatchMerge) {
  // Three applications traced separately, merged on the fly vs in memory.
  std::vector<std::vector<IoRecord>> traces(3);
  for (std::uint32_t app = 0; app < 3; ++app) {
    std::int64_t t = static_cast<std::int64_t>(app) * 13;
    for (int i = 0; i < 80; ++i) {
      const std::int64_t len = 30 + (i * (7 + app)) % 160;
      traces[app].push_back(make_record(app + 1, i % 5 + 1, SimTime(t),
                                        SimTime(t + len)));
      t += 20 + (i % 6);
    }
  }
  const Bytes moved = 16 * kMiB;
  const SimDuration exec = SimDuration(2'000'000'000);

  ThreadPool pool(2);
  const auto merged_batch =
      trace::merge_traces_parallel(traces, pool, trace::MergeOptions{});
  auto batch_source = trace::VectorSource::view(merged_batch);
  const auto from_batch = metrics::measure_stream(batch_source, moved, exec);
  ASSERT_TRUE(from_batch.ok());

  auto streaming = trace::merged_record_source(traces, trace::MergeOptions{});
  const auto from_stream = metrics::measure_stream(*streaming, moved, exec);
  ASSERT_TRUE(from_stream.ok());
  expect_identical(*from_batch, *from_stream);
}

TEST(MetricPipeline, MeasureRunAndMeasureStreamAgree) {
  const auto c = messy_collector();
  const Bytes moved = 8 * kMiB;
  const SimDuration exec = SimDuration(1'000'000'000);
  const auto batch = metrics::measure_run(c, moved, exec, kDefaultBlockSize);
  auto source = trace::collector_source(c);
  const auto stream = metrics::measure_stream(source, moved, exec);
  ASSERT_TRUE(stream.ok());
  expect_identical(batch, *stream);
}

TEST(MetricPipeline, WindowedBpsMatchesBothBatchAlgorithms) {
  const auto c = messy_collector();
  trace::RecordFilter f;
  f.window_start_ns = 500;
  f.window_end_ns = 4000;
  f.include_failed = false;
  const double paper = static_cast<double>(c.total_blocks(f)) /
                       metrics::overlap_time_paper(c.col_time(f)).seconds();
  const double merged = metrics::bps(c, kDefaultBlockSize, f);
  EXPECT_GT(paper, 0.0);
  EXPECT_DOUBLE_EQ(paper, merged);

  // The same computation assembled by hand from streaming parts.
  auto source = trace::collector_source(c, f);
  metrics::BlocksConsumer blocks;
  metrics::OverlapConsumer overlap(f);
  metrics::MetricPipeline pipeline;
  pipeline.attach(blocks).attach(overlap);
  ASSERT_TRUE(pipeline.run(source).ok());
  ASSERT_GT(overlap.io_time().ns(), 0);
  EXPECT_DOUBLE_EQ(static_cast<double>(blocks.blocks()) /
                       overlap.io_time().seconds(),
                   paper);
}

TEST(MetricPipeline, BpsMeterReadingMatchesBatchFormulas) {
  const auto c = messy_collector();
  trace::RecordFilter f;
  f.pid = 2;
  core::BpsMeter meter;
  meter.gather(messy_records());
  const auto reading = meter.measure(f);
  EXPECT_EQ(reading.blocks, c.total_blocks(f));
  const auto col_time = c.col_time(f);
  EXPECT_DOUBLE_EQ(reading.io_time_s,
                   metrics::overlap_time_paper(col_time).seconds());
  EXPECT_DOUBLE_EQ(reading.bps, metrics::bps(c, kDefaultBlockSize, f));
  EXPECT_EQ(reading.processes, c.process_count());
  EXPECT_DOUBLE_EQ(reading.idle_time_s,
                   metrics::idle_time(col_time).seconds());
  EXPECT_DOUBLE_EQ(reading.avg_concurrency,
                   metrics::average_concurrency(col_time));
}

TEST(MetricPipeline, TimelineFromSpilledStreamMatchesBatchBuilder) {
  const auto c = messy_collector();
  const auto window = SimDuration(1'000'000);
  const auto batch = metrics::build_timeline(c, window);

  const std::string path = "/tmp/bpsio_pipeline_timeline.bpstrace";
  {
    trace::SpillWriter writer(path, /*batch_records=*/64);
    auto snapshot = trace::collector_source(c);
    for (auto chunk = snapshot.next_chunk(); !chunk.empty();
         chunk = snapshot.next_chunk()) {
      for (const auto& r : chunk) writer.append(r);
    }
    ASSERT_TRUE(writer.close().ok());
  }
  trace::SpilledTraceSource spilled(path, /*chunk_records=*/17);
  metrics::TimelineConsumer consumer(window);
  metrics::MetricPipeline pipeline;
  pipeline.attach(consumer);
  ASSERT_TRUE(pipeline.run(spilled).ok());
  const auto streamed = consumer.take();

  ASSERT_EQ(streamed.windows.size(), batch.windows.size());
  for (std::size_t i = 0; i < batch.windows.size(); ++i) {
    const auto& a = batch.windows[i];
    const auto& b = streamed.windows[i];
    EXPECT_EQ(a.start_ns, b.start_ns);
    EXPECT_EQ(a.end_ns, b.end_ns);
    EXPECT_DOUBLE_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.accesses_active, b.accesses_active);
    EXPECT_DOUBLE_EQ(a.io_time_s, b.io_time_s);
    EXPECT_DOUBLE_EQ(a.busy_fraction, b.busy_fraction);
    EXPECT_DOUBLE_EQ(a.bps, b.bps);
    EXPECT_DOUBLE_EQ(a.avg_concurrency, b.avg_concurrency);
  }
  std::remove(path.c_str());
}

TEST(MetricPipeline, ConcurrencyProfileMatchesStreamedSweep) {
  const auto c = messy_collector();
  const auto batch = metrics::concurrency_profile(c);
  auto source = trace::collector_source(c);
  metrics::ConcurrencyProfileConsumer consumer;
  metrics::MetricPipeline pipeline;
  pipeline.attach(consumer);
  ASSERT_TRUE(pipeline.run(source).ok());
  ASSERT_EQ(consumer.profile().size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(consumer.profile()[i], batch[i]) << "level " << i + 1;
  }
}

// Seeded traces for the streaming sweep, all on a 10 ns grid so ends often
// equal later starts (touching) and starts often repeat (identical starts);
// about one interval in eight has zero length. Shapes: 0 — sparse, low
// concurrency; 1 — dense random lengths, concurrency in the hundreds and
// ends mostly out of start order; 2 — a sliding constant-length window, so
// concurrency stays above 256 for thousands of in-order ends.
std::vector<IoRecord> sweep_trace(int shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IoRecord> records;
  const std::size_t n = shape == 0 ? 2000 : 4000;
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t start = 0;
    std::int64_t len = 0;
    switch (shape) {
      case 0:
        start = 10 * static_cast<std::int64_t>(rng.uniform_u64(2000));
        len = 10 * static_cast<std::int64_t>(rng.uniform_u64(50));
        break;
      case 1:
        start = 10 * static_cast<std::int64_t>(rng.uniform_u64(400));
        len = 10 * static_cast<std::int64_t>(rng.uniform_u64(5000));
        break;
      default:
        start = 10 * static_cast<std::int64_t>(i / 2 + rng.uniform_u64(3));
        len = 3000;
        break;
    }
    if (rng.uniform_u64(8) == 0) len = 0;
    records.push_back(make_record(static_cast<std::uint32_t>(i % 4 + 1), 1,
                                  SimTime(start), SimTime(start + len)));
  }
  return records;
}

// concurrency_profile by a sorted event list, independent of IntervalSweep:
// ends before starts at equal times, one segment per gap between events.
std::vector<double> event_sort_profile(const std::vector<IoRecord>& records) {
  std::vector<std::pair<std::int64_t, int>> events;
  for (const auto& r : records) {
    if (r.end_ns <= r.start_ns) continue;
    events.emplace_back(r.start_ns, +1);
    events.emplace_back(r.end_ns, -1);
  }
  std::sort(events.begin(), events.end());
  std::vector<double> at_level;
  double busy = 0;
  std::size_t active = 0;
  std::int64_t prev = 0;
  for (const auto& [t, delta] : events) {
    if (active > 0 && t > prev) {
      if (at_level.size() < active) at_level.resize(active, 0.0);
      const double span = static_cast<double>(t - prev) * 1e-9;
      at_level[active - 1] += span;
      busy += span;
    }
    prev = t;
    active = delta > 0 ? active + 1 : active - 1;
  }
  if (busy > 0) {
    for (double& v : at_level) v /= busy;
  }
  return at_level;
}

TEST(MetricPipelineProperty, StreamingPeakAndProfileMatchBatchSweeps) {
  std::size_t max_peak = 0;
  for (int shape = 0; shape < 3; ++shape) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(::testing::Message() << "shape=" << shape
                                        << " seed=" << seed);
      trace::TraceCollector c;
      for (const auto& r : sweep_trace(shape, seed)) c.add(r);
      std::vector<IoRecord> ordered(c.records().begin(), c.records().end());
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const IoRecord& a, const IoRecord& b) {
                         return a.start_ns != b.start_ns
                                    ? a.start_ns < b.start_ns
                                    : a.end_ns < b.end_ns;
                       });
      // Small chunks: the sweep's pending ends must survive chunk breaks.
      auto source = trace::VectorSource::view(ordered, /*chunk_records=*/7);
      metrics::OverlapConsumer overlap;
      metrics::ConcurrencyProfileConsumer profile;
      metrics::MetricPipeline pipeline;
      pipeline.attach(overlap).attach(profile);
      ASSERT_TRUE(pipeline.run(source).ok());

      const std::size_t batch_peak = metrics::peak_concurrency(c.col_time());
      EXPECT_EQ(overlap.peak_concurrency(), batch_peak);
      max_peak = std::max(max_peak, batch_peak);
      const auto expected = event_sort_profile(ordered);
      ASSERT_EQ(profile.profile().size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(profile.profile()[i], expected[i]) << "level " << i + 1;
      }
      EXPECT_EQ(metrics::concurrency_profile(c), expected);
    }
  }
  EXPECT_GE(max_peak, 256u);
}

TEST(MetricPipeline, RejectsUnorderedStreams) {
  std::vector<IoRecord> unsorted;
  unsorted.push_back(make_record(1, 1, SimTime(100), SimTime(200)));
  unsorted.push_back(make_record(1, 1, SimTime(0), SimTime(50)));
  auto source = trace::VectorSource::view(unsorted);
  metrics::OverlapConsumer overlap;
  metrics::MetricPipeline pipeline;
  pipeline.attach(overlap);
  const Status run = pipeline.run(source);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().message.find("unordered"), std::string::npos);
}

TEST(MetricPipeline, PropagatesSourceFailure) {
  trace::SpilledTraceSource missing("/tmp/bpsio_no_such_pipeline.bpstrace");
  const auto sample =
      metrics::measure_stream(missing, Bytes{0}, SimDuration(1));
  EXPECT_FALSE(sample.ok());
}

TEST(MetricPipeline, EmptyStreamYieldsZeroSample) {
  auto source = trace::VectorSource::sorted({});
  const auto sample =
      metrics::measure_stream(source, Bytes{0}, SimDuration(1'000'000'000));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->access_count, 0u);
  EXPECT_EQ(sample->app_blocks, 0u);
  EXPECT_DOUBLE_EQ(sample->io_time_s, 0.0);
  EXPECT_DOUBLE_EQ(sample->bps, 0.0);
  EXPECT_DOUBLE_EQ(sample->arpt_s, 0.0);
  EXPECT_DOUBLE_EQ(sample->peak_concurrency, 0.0);
}

}  // namespace
}  // namespace bpsio
