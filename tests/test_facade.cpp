// The public facade (include/bpsio/) must be enough, on its own, to drive
// each area of the library: this test includes ONLY <bpsio/bpsio.hpp> and
// exercises one representative entry point per area. If a rename in src/
// breaks a facade symbol, it breaks here — before any downstream user.
#include <gtest/gtest.h>

#include <bpsio/bpsio.hpp>

namespace {

using namespace bpsio;

TEST(Facade, TraceRecordsAndStreaming) {
  std::vector<trace::IoRecord> records = {
      trace::make_record(1, 8, SimTime(500), SimTime(1500)),
      trace::make_record(1, 8, SimTime(0), SimTime(1000)),
  };
  trace::VectorSource source = trace::VectorSource::sorted(records);
  std::size_t seen = 0;
  for (auto chunk = source.next_chunk(); !chunk.empty();
       chunk = source.next_chunk()) {
    seen += chunk.size();
  }
  EXPECT_EQ(seen, records.size());
  EXPECT_TRUE(source.status().ok());
}

TEST(Facade, MetricsBatchPipeline) {
  // The Figure-3 batch path: records in, B/T out, via the facade only.
  std::vector<trace::IoRecord> records = {
      trace::make_record(1, 64, SimTime(0), SimTime(1000000)),
      trace::make_record(2, 64, SimTime(500000), SimTime(1500000)),
  };
  trace::VectorSource source = trace::VectorSource::sorted(records);
  auto result = metrics::measure_stream(source, /*moved_bytes=*/128 * 512,
                                        SimDuration::from_seconds(1.0));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->app_blocks, 128u);  // B
  EXPECT_DOUBLE_EQ(result->io_time_s, 0.0015);  // T: union of the overlap
}

TEST(Facade, MetricsOnlineWindow) {
  metrics::SlidingWindowMetrics window(SimDuration::from_seconds(1));
  const trace::IoRecord record =
      trace::make_record(1, 32, SimTime(0), SimTime(1000000));
  window.add({&record, 1});
  EXPECT_EQ(window.blocks(), 32u);
  EXPECT_EQ(window.io_time().ns(), 1000000);
  EXPECT_GT(window.bps(), 0.0);
}

TEST(Facade, CaptureConfigContract) {
  // The BPSIO_CAPTURE_* environment contract parses through the facade,
  // with the same injectable lookup the interposer uses.
  const capture::CaptureConfig config = capture::parse_capture_config(
      [](const char* name) -> const char* {
        if (std::string(name) == "BPSIO_CAPTURE_DIR") return "/tmp/bpsio";
        return nullptr;
      });
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.dir, "/tmp/bpsio");
}

TEST(Facade, WorkloadRegistryConstruction) {
  // The workload area through <bpsio/workload.hpp> (via the umbrella):
  // discovery, string-keyed construction, and parameter validation.
  // (Execution on a Testbed is covered by test_zoo; testbed presets are
  // deliberately not part of the facade.)
  EXPECT_TRUE(workload::registry().contains("iozone"));
  EXPECT_TRUE(workload::registry().contains("zoo.bert"));

  workload::Params params;
  params.set("file_size", "1M");
  params.set("record_size", "256K");
  auto made = workload::make_workload("iozone", params);
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  EXPECT_EQ((*made)->name(), "iozone");

  workload::Params typo;
  typo.set("file_sizee", "1M");
  EXPECT_FALSE(workload::make_workload("iozone", typo).ok());
  EXPECT_FALSE(workload::make_workload("no-such-workload", {}).ok());
}

TEST(Facade, ZooPlanSignature) {
  // Zoo entry points re-exported by the facade: catalog + plan compilation.
  EXPECT_FALSE(workload::zoo::scenarios().empty());
  auto plan = workload::zoo::build_plan("lammps", {});
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_GT(plan->process_count(), 0u);
  EXPECT_GT(plan->total_blocks(), 0u);
}

TEST(Facade, ExperimentSweepOptions) {
  // The simulator sweep API reachable from the umbrella: the SweepOptions
  // overload is the only run_sweep (the legacy positional overload was
  // removed; bpsio-lint's legacy-run-sweep rule keeps it from coming back).
  core::SweepOptions options;
  options.repeats = 1;
  EXPECT_EQ(options.repeats, 1u);
}

}  // namespace
