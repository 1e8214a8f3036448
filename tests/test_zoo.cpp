// The real-application workload zoo (src/workload/zoo). Three properties:
//
//   1. Every scenario's plan carries a stable I/O signature (process count,
//      phase count, access count, B) — the golden numbers below pin them so
//      a preset edit that silently changes a scenario's workload shows up.
//   2. A simulator run of the plan reports exactly the plan's B and
//      process count — the same invariant the zoo-smoke CI job checks for
//      the real-I/O path, asserted here for the simulator path.
//   3. A closed-loop replay of a zoo run's trace reproduces B and process
//      count exactly and T within tolerance (the differential-replay check
//      of DESIGN.md §14).
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "core/testbed.hpp"
#include "metrics/calculators.hpp"
#include "workload/registry.hpp"

namespace bpsio::workload::zoo {
namespace {

struct Signature {
  const char* name;
  ScenarioClass cls;
  std::uint32_t processes;
  std::uint32_t phases;
  std::uint64_t accesses;
  std::uint64_t blocks;  // B at scale=1, 512 B blocks
};

// Golden I/O signatures at scale=1 (seed 42). These ARE the scenario
// presets; update deliberately when a preset changes, never to quiet a
// failure.
const Signature kSignatures[] = {
    {"bert", ScenarioClass::dl_training, 4, 2, 400, 425984},
    {"resnet50", ScenarioClass::dl_training, 4, 2, 772, 204800},
    {"maskrcnn", ScenarioClass::dl_training, 4, 2, 544, 327680},
    {"dlrm", ScenarioClass::dl_training, 4, 2, 2050, 69632},
    {"lammps", ScenarioClass::hpc, 8, 4, 136, 69632},
    {"namd", ScenarioClass::hpc, 8, 6, 224, 57344},
    {"openfoam", ScenarioClass::hpc, 4, 3, 56, 57344},
    {"hacc", ScenarioClass::hpc, 4, 2, 64, 131072},
    {"montage", ScenarioClass::bigdata, 4, 3, 76, 77824},
};

class ZooScenario : public ::testing::TestWithParam<Signature> {};

TEST_P(ZooScenario, PlanMatchesGoldenSignature) {
  const Signature& sig = GetParam();
  const auto plan = build_plan(sig.name);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  EXPECT_EQ(plan->cls, sig.cls);
  EXPECT_EQ(plan->process_count(), sig.processes);
  EXPECT_EQ(plan->phases, sig.phases);
  EXPECT_EQ(plan->io_op_count(), sig.accesses);
  EXPECT_EQ(plan->total_blocks(), sig.blocks);
  EXPECT_EQ(plan->total_io_bytes(), sig.blocks * kDefaultBlockSize);
  // Every op is block-aligned — the property that makes B exact on both
  // the simulator and the capture path.
  for (const auto& proc : plan->ops) {
    for (const AppOp& op : proc) {
      if (op.kind == AppOp::Kind::read || op.kind == AppOp::Kind::write) {
        EXPECT_EQ(op.size % kDefaultBlockSize, 0u);
        EXPECT_EQ(op.offset % kDefaultBlockSize, 0u);
        EXPECT_LE(op.offset + op.size, plan->file_size);
      }
    }
  }
}

TEST_P(ZooScenario, SimulatorRunReportsThePlanB) {
  const Signature& sig = GetParam();
  ZooParams params;
  params.scale = 0.25;  // keep the suite fast; B still exact
  const auto plan = build_plan(sig.name, params);
  ASSERT_TRUE(plan.ok());
  core::Testbed testbed(core::local_ssd_testbed(42));
  const auto wkl = make_workload(*plan);
  const RunResult run = wkl->run(testbed.env());
  EXPECT_EQ(run.process_count, plan->process_count());
  EXPECT_EQ(run.collector.process_count(), plan->process_count());
  EXPECT_EQ(run.collector.record_count(), plan->io_op_count());
  EXPECT_EQ(run.collector.total_blocks(), plan->total_blocks());
}

INSTANTIATE_TEST_SUITE_P(Catalog, ZooScenario,
                         ::testing::ValuesIn(kSignatures),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

TEST(Zoo, CatalogAndRegistryAgree) {
  ASSERT_EQ(scenarios().size(), std::size(kSignatures));
  for (const auto& info : scenarios()) {
    EXPECT_TRUE(is_scenario(info.name));
    EXPECT_TRUE(registry().contains("zoo." + info.name)) << info.name;
  }
  EXPECT_FALSE(is_scenario("not-a-scenario"));
}

TEST(Zoo, BuildPlanValidatesInputs) {
  EXPECT_EQ(build_plan("nope").error().code, Errc::not_found);
  ZooParams bad;
  bad.scale = 0.0;
  EXPECT_EQ(build_plan("bert", bad).error().code, Errc::invalid_argument);
  bad.scale = 1.0;
  bad.think_scale = -1.0;
  EXPECT_EQ(build_plan("bert", bad).error().code, Errc::invalid_argument);
}

TEST(Zoo, ProcessOverrideAndScaleChangeThePlan) {
  ZooParams params;
  params.processes = 2;
  const auto two = build_plan("bert", params);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->process_count(), 2u);

  params.processes = 0;
  params.scale = 0.5;
  const auto half = build_plan("bert", params);
  const auto full = build_plan("bert");
  ASSERT_TRUE(half.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_LT(half->total_blocks(), full->total_blocks());
  EXPECT_GT(half->total_blocks(), 0u);
}

TEST(Zoo, DlSampleOrderIsSeededAndDeterministic) {
  ZooParams params;
  auto offsets_of = [&](std::uint64_t seed) {
    params.seed = seed;
    const auto plan = build_plan("bert", params);
    std::vector<Bytes> offsets;
    for (const AppOp& op : plan->ops[0]) {
      if (op.kind == AppOp::Kind::read) offsets.push_back(op.offset);
    }
    return offsets;
  };
  EXPECT_EQ(offsets_of(7), offsets_of(7));
  EXPECT_NE(offsets_of(7), offsets_of(8));
}

TEST(Zoo, RegistryParamsReachThePlan) {
  Params params;
  params.set("scale", "0.5");
  params.set("processes", "2");
  auto made = make_workload("zoo.lammps", params);
  ASSERT_TRUE(made.ok()) << made.error().to_string();
  const auto* wkl = dynamic_cast<const ZooWorkload*>(made->get());
  ASSERT_NE(wkl, nullptr);
  EXPECT_EQ(wkl->plan().process_count(), 2u);
  EXPECT_EQ(wkl->name(), "zoo.lammps");

  Params typo;
  typo.set("scalee", "0.5");
  EXPECT_EQ(make_workload("zoo.lammps", typo).error().code,
            Errc::invalid_argument);
}

// The differential-replay check: capture a zoo run's trace, replay it
// closed-loop on an identical testbed. B and the process count must come
// back exactly; T (overlapped I/O time) within tolerance — replay re-issues
// the same sizes with the same inter-access structure onto the same stack.
TEST(Zoo, DifferentialReplayReproducesBAndT) {
  ZooParams params;
  params.scale = 0.25;
  const auto plan = build_plan("lammps", params);
  ASSERT_TRUE(plan.ok());

  core::Testbed source_bed(core::local_ssd_testbed(42));
  const auto source_run = make_workload(*plan)->run(source_bed.env());
  ASSERT_GT(source_run.collector.record_count(), 0u);

  ReplayConfig cfg;
  cfg.records = source_run.collector.records();
  cfg.mode = ReplayConfig::Mode::closed_loop;
  core::Testbed replay_bed(core::local_ssd_testbed(42));
  const auto replay_run = make_workload(cfg)->run(replay_bed.env());

  EXPECT_EQ(replay_run.collector.total_blocks(),
            source_run.collector.total_blocks());
  EXPECT_EQ(replay_run.process_count, source_run.process_count);
  EXPECT_EQ(replay_run.collector.record_count(),
            source_run.collector.record_count());
  const double t_source =
      metrics::overlapped_io_time(source_run.collector).seconds();
  const double t_replay =
      metrics::overlapped_io_time(replay_run.collector).seconds();
  EXPECT_NEAR(t_replay, t_source, 0.25 * t_source);
}

}  // namespace
}  // namespace bpsio::workload::zoo
