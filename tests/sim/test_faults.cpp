#include "sim/faults.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/assigner.h"
#include "sim/des.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::sim {
namespace {

FaultSchedule make_mixed_schedule() {
  FaultSchedule s;
  s.events.push_back({12.5, FaultKind::kNodeFail, 3, 0.0});
  s.events.push_back({30.0, FaultKind::kNodeRepair, 3, 0.0});
  s.events.push_back({7.25, FaultKind::kCracDerate, 1, 0.4});
  s.events.push_back({40.0, FaultKind::kCracRepair, 1, 0.0});
  s.events.push_back({20.0, FaultKind::kPowerCap, 0, 55.5});
  return s;
}

TEST(FaultSchedule, SaveLoadRoundTrip) {
  FaultSchedule original = make_mixed_schedule();
  std::ostringstream os;
  save_fault_schedule(original, os);

  std::istringstream is(os.str());
  const auto loaded = load_fault_schedule(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  original.sort_by_time();  // the loader returns time-sorted events
  ASSERT_EQ(loaded->events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->events[i].time_s, original.events[i].time_s);
    EXPECT_EQ(loaded->events[i].kind, original.events[i].kind);
    EXPECT_EQ(loaded->events[i].target, original.events[i].target);
    EXPECT_DOUBLE_EQ(loaded->events[i].value, original.events[i].value);
  }
}

TEST(FaultSchedule, CommentsAndBlankLinesAreIgnored) {
  std::istringstream is(
      "tapo-faults v1\n"
      "\n"
      "# a comment\n"
      "5 node_fail 0\n"
      "   \n"
      "# another\n");
  const auto loaded = load_fault_schedule(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->events.size(), 1u);
  EXPECT_EQ(loaded->events[0].kind, FaultKind::kNodeFail);
}

TEST(FaultSchedule, CrlfFileWithALeadingCommentLoads) {
  // The header used to be compared with its '\r' still attached ("expected
  // header 'tapo-faults v1', got 'tapo-faults v1'").
  std::istringstream is(
      "# exported from a spreadsheet\r\n"
      "tapo-faults v1\r\n"
      "5 node_fail 0\r\n"
      "9 crac_derate 1 0.5\r\n");
  const auto loaded = load_fault_schedule(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->events.size(), 2u);
  EXPECT_EQ(loaded->events[1].kind, FaultKind::kCracDerate);
  EXPECT_EQ(loaded->events[1].value, 0.5);
}

TEST(FaultSchedule, TokensFollowTheSharedLexicalRules) {
  for (const char* doc : {"tapo-faults v1\n5 node_fail +1\n",
                          "tapo-faults v1\n5 node_fail -0\n",
                          "tapo-faults v1\n5 node_fail 18446744073709551616\n",
                          "tapo-faults v1\nnan node_fail 0\n",
                          "tapo-faults v1\n5 power_cap inf\n"}) {
    std::istringstream is(doc);
    const auto loaded = load_fault_schedule(is);
    ASSERT_FALSE(loaded.ok()) << doc;
    EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
        << loaded.status().to_string();
  }
}

TEST(FaultSchedule, RejectsBadHeader) {
  std::istringstream is("tapo-faults v9\n5 node_fail 0\n");
  const auto loaded = load_fault_schedule(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 1"), std::string::npos);
}

TEST(FaultSchedule, RejectsUnknownKindWithLineNumber) {
  std::istringstream is(
      "tapo-faults v1\n"
      "5 node_fail 0\n"
      "9 node_melt 1\n");
  const auto loaded = load_fault_schedule(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("node_melt"), std::string::npos);
}

TEST(FaultSchedule, RejectsOutOfRangeFraction) {
  std::istringstream is("tapo-faults v1\n5 crac_derate 0 1.5\n");
  const auto loaded = load_fault_schedule(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(FaultSchedule, RejectsNegativeTimeAndBadArity) {
  {
    std::istringstream is("tapo-faults v1\n-3 node_fail 0\n");
    EXPECT_FALSE(load_fault_schedule(is).ok());
  }
  {
    std::istringstream is("tapo-faults v1\n3 node_fail\n");
    EXPECT_FALSE(load_fault_schedule(is).ok());
  }
  {
    std::istringstream is("tapo-faults v1\n3 power_cap\n");
    EXPECT_FALSE(load_fault_schedule(is).ok());
  }
}

TEST(FaultSchedule, LoadFileReportsNotFound) {
  const auto loaded = load_fault_schedule_file("/nonexistent/faults.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(FaultSchedule, ValidateRejectsOutOfRangeIndices) {
  const dc::DataCenter dc = test::make_tiny_dc({0, 1}, 2);
  FaultSchedule s;
  s.events.push_back({1.0, FaultKind::kNodeFail, 7, 0.0});
  const util::Status bad_node = s.validate(dc);
  ASSERT_FALSE(bad_node.ok());
  EXPECT_NE(bad_node.message().find("node index 7"), std::string::npos);

  s.events.clear();
  s.events.push_back({1.0, FaultKind::kCracRepair, 5, 0.0});
  EXPECT_FALSE(s.validate(dc).ok());

  s.events.clear();
  s.events.push_back({1.0, FaultKind::kPowerCap, 0, -2.0});
  EXPECT_FALSE(s.validate(dc).ok());

  EXPECT_TRUE(make_mixed_schedule().validate(test::make_tiny_dc({0, 0, 0, 0}, 2))
                  .ok());
}

TEST(FaultSchedule, GeneratorIsDeterministicPerSeed) {
  const dc::DataCenter dc = test::make_tiny_dc({0, 1, 0, 1, 0}, 2);
  FaultInjectionConfig config;
  config.seed = 42;
  config.node_failures = 2;
  config.node_repair_after_s = 15.0;
  config.crac_derates = 1;
  config.power_cap_fraction = 0.8;

  const FaultSchedule a = generate_fault_schedule(dc, config);
  const FaultSchedule b = generate_fault_schedule(dc, config);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events.size(), 2u + 2u + 1u + 1u);  // fails+repairs+derate+cap
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
  }
  EXPECT_TRUE(a.validate(dc).ok());

  config.seed = 43;
  const FaultSchedule c = generate_fault_schedule(dc, config);
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].time_s != c.events[i].time_s ||
        a.events[i].target != c.events[i].target) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, ApplyFaultMutatesDegradedState) {
  dc::DataCenter dc = test::make_tiny_dc({0, 1, 0}, 2);
  const double tmin = 15.0, tmax = 32.0;

  apply_fault(dc, {1.0, FaultKind::kNodeFail, 1, 0.0}, tmin, tmax);
  EXPECT_TRUE(dc.node_failed(1));
  EXPECT_DOUBLE_EQ(dc.node_base_power_kw(1), 0.0);

  apply_fault(dc, {2.0, FaultKind::kNodeRepair, 1, 0.0}, tmin, tmax);
  EXPECT_FALSE(dc.node_failed(1));

  apply_fault(dc, {3.0, FaultKind::kCracDerate, 0, 0.25}, tmin, tmax);
  EXPECT_DOUBLE_EQ(dc.crac_min_outlet(0, tmin), tmax - 0.25 * (tmax - tmin));
  EXPECT_DOUBLE_EQ(dc.crac_min_outlet(1, tmin), tmin);  // other unit untouched

  apply_fault(dc, {4.0, FaultKind::kCracRepair, 0, 0.0}, tmin, tmax);
  EXPECT_DOUBLE_EQ(dc.crac_min_outlet(0, tmin), tmin);

  apply_fault(dc, {5.0, FaultKind::kPowerCap, 0, 33.0}, tmin, tmax);
  EXPECT_DOUBLE_EQ(dc.p_const_kw, 33.0);
}

// ---- simulate_with_faults -------------------------------------------------

struct FaultSimFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(131, 8, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }

  // Node failure + CRAC derate + power-cap drop, all inside the run.
  FaultSchedule mid_run_schedule() const {
    FaultSchedule s;
    s.events.push_back({20.0, FaultKind::kNodeFail, 2, 0.0});
    s.events.push_back({35.0, FaultKind::kCracDerate, 0, 0.6});
    s.events.push_back(
        {50.0, FaultKind::kPowerCap, 0, 0.9 * scenario->dc.p_const_kw});
    return s;
  }

  FaultSimOptions base_options() const {
    FaultSimOptions o;
    o.sim.duration_seconds = 80.0;
    o.sim.warmup_seconds = 5.0;
    o.sim.seed = 9;
    o.recovery.replan_delay_s = 5.0;
    return o;
  }

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

void expect_identical(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.sim.total_reward, b.sim.total_reward);
  EXPECT_EQ(a.sim.reward_rate, b.sim.reward_rate);
  EXPECT_EQ(a.sim.energy_kwh, b.sim.energy_kwh);
  EXPECT_EQ(a.sim.mean_tracking_error, b.sim.mean_tracking_error);
  ASSERT_EQ(a.sim.per_type.size(), b.sim.per_type.size());
  for (std::size_t i = 0; i < a.sim.per_type.size(); ++i) {
    EXPECT_EQ(a.sim.per_type[i].arrived, b.sim.per_type[i].arrived);
    EXPECT_EQ(a.sim.per_type[i].assigned, b.sim.per_type[i].assigned);
    EXPECT_EQ(a.sim.per_type[i].dropped, b.sim.per_type[i].dropped);
    EXPECT_EQ(a.sim.per_type[i].completed_in_time,
              b.sim.per_type[i].completed_in_time);
    EXPECT_EQ(a.sim.per_type[i].reward, b.sim.per_type[i].reward);
  }
  ASSERT_EQ(a.faults.size(), b.faults.size());
  EXPECT_EQ(a.replans_adopted, b.replans_adopted);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].safe, b.faults[i].safe);
    EXPECT_EQ(a.faults[i].replan_adopted, b.faults[i].replan_adopted);
    EXPECT_EQ(a.faults[i].throttle_reward_rate, b.faults[i].throttle_reward_rate);
    EXPECT_EQ(a.faults[i].replan_reward_rate, b.faults[i].replan_reward_rate);
    EXPECT_EQ(a.faults[i].tasks_killed, b.faults[i].tasks_killed);
    EXPECT_EQ(a.faults[i].tasks_requeued, b.faults[i].tasks_requeued);
  }
}

TEST_F(FaultSimFixture, BitIdenticalAcrossRecoveryThreadCounts) {
  // The phase-2 re-solve reuses the Stage-1 parallel grid search; its
  // deterministic reduction must make the whole fault run independent of the
  // worker thread count.
  const FaultSchedule schedule = mid_run_schedule();
  FaultSimResult runs[3];
  const std::size_t threads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    FaultSimOptions o = base_options();
    o.recovery.assign.stage1.threads = threads[i];
    runs[i] = simulate_with_faults(scenario->dc, *model, assignment, schedule, o);
    ASSERT_TRUE(runs[i].status.ok()) << runs[i].status.to_string();
  }
  expect_identical(runs[0], runs[1]);
  expect_identical(runs[0], runs[2]);
}

TEST_F(FaultSimFixture, TelemetryDoesNotChangeTheFaultRun) {
  const FaultSchedule schedule = mid_run_schedule();
  const FaultSimResult without = simulate_with_faults(
      scenario->dc, *model, assignment, schedule, base_options());
  ASSERT_TRUE(without.status.ok()) << without.status.to_string();

  util::telemetry::Registry registry;
  FaultSimOptions observed = base_options();
  observed.sim.telemetry = &registry;
  observed.recovery.telemetry = &registry;
  const FaultSimResult with = simulate_with_faults(scenario->dc, *model,
                                                   assignment, schedule, observed);
  ASSERT_TRUE(with.status.ok()) << with.status.to_string();

  expect_identical(with, without);
  EXPECT_EQ(registry.counter_value("sim.fault_runs"), 1u);
  EXPECT_EQ(registry.counter_value("fault.events"), schedule.events.size());
  EXPECT_EQ(registry.counter_value("fault.node_failures"), 1u);
  EXPECT_EQ(registry.counter_value("fault.crac_derates"), 1u);
  EXPECT_EQ(registry.counter_value("fault.power_caps"), 1u);
  EXPECT_EQ(registry.counter_value("recovery.invocations"),
            schedule.events.size());
  EXPECT_EQ(registry.timer_stats("sim.fault_run").count, 1u);
  // The one end-of-run recorder books fault runs like plain ones.
  std::size_t assigned = 0;
  for (const PerTypeMetrics& m : with.sim.per_type) assigned += m.assigned;
  EXPECT_EQ(registry.counter_value("scheduler.assigned"), assigned);
}

TEST_F(FaultSimFixture, DataCenterStateIsRestoredAfterRun) {
  const double p_const_before = scenario->dc.p_const_kw;
  const FaultSimResult result = simulate_with_faults(
      scenario->dc, *model, assignment, mid_run_schedule(), base_options());
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_DOUBLE_EQ(scenario->dc.p_const_kw, p_const_before);
  EXPECT_EQ(scenario->dc.num_failed_nodes(), 0u);
  for (std::size_t c = 0; c < scenario->dc.num_cracs(); ++c) {
    EXPECT_DOUBLE_EQ(scenario->dc.crac_min_outlet(c, 15.0), 15.0);
  }
}

TEST_F(FaultSimFixture, EmptyScheduleMatchesPlainSimulate) {
  const FaultSimOptions o = base_options();
  const FaultSimResult with_faults = simulate_with_faults(
      scenario->dc, *model, assignment, FaultSchedule{}, o);
  ASSERT_TRUE(with_faults.status.ok()) << with_faults.status.to_string();
  const SimResult plain = simulate(scenario->dc, assignment, o.sim);

  EXPECT_TRUE(with_faults.faults.empty());
  test::expect_identical(with_faults.sim, plain);
}

TEST_F(FaultSimFixture, NodeFailureKillsInFlightWork) {
  FaultSchedule schedule;
  schedule.events.push_back({20.0, FaultKind::kNodeFail, 2, 0.0});

  FaultSimOptions drop = base_options();
  drop.in_flight = InFlightPolicy::kDrop;
  const FaultSimResult dropped = simulate_with_faults(
      scenario->dc, *model, assignment, schedule, drop);
  ASSERT_TRUE(dropped.status.ok()) << dropped.status.to_string();
  ASSERT_EQ(dropped.faults.size(), 1u);
  EXPECT_GT(dropped.faults[0].tasks_killed, 0u);
  EXPECT_EQ(dropped.faults[0].tasks_requeued, 0u);

  FaultSimOptions requeue = base_options();
  requeue.in_flight = InFlightPolicy::kRequeue;
  const FaultSimResult requeued = simulate_with_faults(
      scenario->dc, *model, assignment, schedule, requeue);
  ASSERT_TRUE(requeued.status.ok()) << requeued.status.to_string();
  ASSERT_EQ(requeued.faults.size(), 1u);
  EXPECT_GT(requeued.faults[0].tasks_killed, 0u);
  // Re-routing can fail for individual tasks, but the policy must try.
  EXPECT_LE(requeued.faults[0].tasks_requeued, requeued.faults[0].tasks_killed);

  // Admission accounting stays consistent in both modes.
  for (const auto* r : {&dropped, &requeued}) {
    for (const auto& m : r->sim.per_type) {
      EXPECT_EQ(m.arrived, m.assigned + m.dropped);
    }
  }
}

TEST_F(FaultSimFixture, DegenerateOptionsAndSchedulesAreRejected) {
  FaultSimOptions bad = base_options();
  bad.sim.duration_seconds = -1.0;
  const FaultSimResult r1 = simulate_with_faults(
      scenario->dc, *model, assignment, FaultSchedule{}, bad);
  EXPECT_FALSE(r1.status.ok());
  EXPECT_EQ(r1.status.code(), util::StatusCode::kInvalidArgument);

  FaultSchedule out_of_range;
  out_of_range.events.push_back({1.0, FaultKind::kNodeFail, 999, 0.0});
  const FaultSimResult r2 = simulate_with_faults(
      scenario->dc, *model, assignment, out_of_range, base_options());
  EXPECT_FALSE(r2.status.ok());
  EXPECT_NE(r2.status.message().find("fault schedule"), std::string::npos);
}

TEST(SimOptionsValidate, RejectsDegenerateConfigs) {
  SimOptions o;
  EXPECT_TRUE(o.validate().ok());
  o.duration_seconds = 0.0;
  EXPECT_FALSE(o.validate().ok());
  o.duration_seconds = 10.0;
  o.warmup_seconds = 10.0;  // warm-up must end before the horizon
  EXPECT_FALSE(o.validate().ok());
  o.warmup_seconds = -1.0;
  EXPECT_FALSE(o.validate().ok());
}

}  // namespace
}  // namespace tapo::sim
