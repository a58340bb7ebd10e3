// End-to-end receding-horizon re-planning inside the fault-injecting DES:
// horizon steps patch-and-resume the resident rate LP (lp.session.*
// telemetry proves no rebuild on the hot path), rolling re-plans beat the
// one-shot plan on a drifting trace, degraded steps never abort the run, and
// a fault landing while a horizon adoption is in flight supersedes it
// through the generation guard — exactly one plan is ever adopted per
// window (ISSUE 8 satellite c).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>

#include "core/assigner.h"
#include "core/replanner.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "sim/faults.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::sim {
namespace {

struct ReplanSimFixture : ::testing::Test {
  // Arrival-bound park: rates scaled well below capacity so a flash crowd
  // has headroom to capture — the regime where re-planning pays.
  void init(double rate_scale) {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(131, 8, 2));
    for (auto& t : scenario->dc.task_types) t.arrival_rate *= rate_scale;
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible) << assignment.status.to_string();
  }

  dc::DataCenter& dc() { return scenario->dc; }

  static void check_accounting(const SimResult& sim) {
    for (const auto& m : sim.per_type) {
      EXPECT_EQ(m.arrived, m.assigned + m.dropped);
    }
  }

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

TEST_F(ReplanSimFixture, HorizonStepsPatchAndResumeTheResidentSession) {
  init(0.6);
  RateTraceGenConfig trace_config;
  trace_config.kind = RateTraceGenConfig::Kind::kDiurnal;
  trace_config.seed = 7;
  trace_config.horizon_s = 120.0;
  trace_config.amplitude = 0.6;
  const RateTrace trace = generate_rate_trace(dc().task_types, trace_config);
  ASSERT_TRUE(trace.validate().ok());

  util::telemetry::Registry registry;
  FaultSimOptions options;
  options.sim.duration_seconds = 120.0;
  options.sim.seed = 17;
  options.sim.rate_trace = &trace;
  options.sim.telemetry = &registry;
  core::ReplannerOptions replan;
  replan.cadence_s = 15.0;
  replan.tracking_error_threshold = 0.5;
  options.replan = replan;

  const FaultSimResult out =
      simulate_with_faults(dc(), *model, assignment, FaultSchedule{}, options);
  ASSERT_TRUE(out.status.ok()) << out.status.to_string();
  check_accounting(out.sim);

  // 120 s at a 15 s cadence: the drift is tracked by repeated steps...
  EXPECT_GE(out.horizon_steps, 5u);
  EXPECT_GE(out.horizon_adoptions, 5u);
  EXPECT_EQ(registry.counter_value("replan.steps"), out.horizon_steps);
  EXPECT_EQ(registry.counter_value("replan.adoptions"), out.horizon_adoptions);
  // ...and every step after the first resumes the resident LP basis: the
  // whole run performs exactly zero hot-path rebuilds (no faults fired).
  EXPECT_GE(registry.counter_value("lp.session.resident_resumes"),
            out.horizon_steps - 1);
  EXPECT_GT(registry.counter_value("lp.session.patches"), 0u);
  EXPECT_EQ(registry.counter_value("replan.session_rebuilds"), 0u);
}

TEST_F(ReplanSimFixture, RollingBeatsOneShotOnAFlashCrowd) {
  init(0.35);
  RateTraceGenConfig trace_config;
  trace_config.kind = RateTraceGenConfig::Kind::kFlashCrowd;
  trace_config.seed = 5;
  trace_config.horizon_s = 90.0;
  trace_config.magnitude = 3.0;
  trace_config.start_s = 15.0;
  trace_config.duration_s = 50.0;
  const RateTrace trace = generate_rate_trace(dc().task_types, trace_config);
  ASSERT_TRUE(trace.validate().ok());

  FaultSimOptions options;
  options.sim.duration_seconds = 90.0;
  options.sim.seed = 23;
  options.sim.rate_trace = &trace;

  // One-shot: the stationary plan rides out the surge unchanged.
  const FaultSimResult oneshot =
      simulate_with_faults(dc(), *model, assignment, FaultSchedule{}, options);
  ASSERT_TRUE(oneshot.status.ok()) << oneshot.status.to_string();
  EXPECT_EQ(oneshot.horizon_steps, 0u);

  // Rolling: a 10 s cadence re-plan chases the trace.
  core::ReplannerOptions replan;
  replan.cadence_s = 10.0;
  replan.tracking_error_threshold = 0.5;
  options.replan = replan;
  const FaultSimResult rolling =
      simulate_with_faults(dc(), *model, assignment, FaultSchedule{}, options);
  ASSERT_TRUE(rolling.status.ok()) << rolling.status.to_string();
  check_accounting(rolling.sim);
  EXPECT_GT(rolling.horizon_adoptions, 0u);

  // The surge triples demand on a park planned at 35% load: the one-shot
  // plan's arrival rows cap admission at the stationary rates, so rolling
  // collects decisively more reward (EXPERIMENTS.md quantifies this).
  EXPECT_GT(rolling.sim.total_reward, 1.05 * oneshot.sim.total_reward);
}

TEST_F(ReplanSimFixture, PlantedSolveDeadlineDegradesWithoutAborting) {
  init(0.6);
  util::telemetry::Registry registry;
  FaultSimOptions options;
  options.sim.duration_seconds = 60.0;
  options.sim.seed = 29;
  options.sim.telemetry = &registry;
  core::ReplannerOptions replan;
  replan.cadence_s = 10.0;
  replan.tracking_error_threshold = 0.0;  // cadence-only: deterministic count
  replan.max_lp_iterations = 1;  // every step hits the solve deadline
  options.replan = replan;

  const FaultSimResult out =
      simulate_with_faults(dc(), *model, assignment, FaultSchedule{}, options);
  ASSERT_TRUE(out.status.ok()) << out.status.to_string();
  check_accounting(out.sim);
  EXPECT_GT(out.horizon_steps, 0u);
  EXPECT_EQ(out.horizon_adoptions, 0u);
  EXPECT_EQ(out.horizon_degraded, out.horizon_steps);
  // The healthy park keeps verifying the held plan — no throttle rung —
  // and the run books the whole tail as degraded time.
  EXPECT_EQ(out.horizon_throttles, 0u);
  EXPECT_GT(out.horizon_degraded_time_s, 0.0);
  EXPECT_EQ(registry.counter_value("replan.adoptions_activated"), 0u);
  // Bounded backoff: with a 5 s gap doubling per failure, the 60 s horizon
  // admits only a handful of attempts — no re-plan storm.
  EXPECT_LE(out.horizon_steps, 6u);
}

// --- Satellite (c): fault during an in-flight horizon adoption ------------
//
// Differential pair over the fault's arrival order relative to the adoption
// window. The horizon step at t=20 schedules its adoption for t=30
// (replan_delay_s = 10). Run A injects a node failure at t=21 — inside the
// window — so the generation guard must discard the in-flight plan: zero
// horizon activations. Run B injects the same fault at t=31 — after the
// window — so the adoption lands first: exactly one activation. Everything
// else (cadence, seed, park) is identical.
struct GenerationGuardFixture : ReplanSimFixture {
  FaultSimResult run(double fault_time_s, util::telemetry::Registry* registry) {
    FaultSchedule schedule;
    schedule.events.push_back(
        {fault_time_s, FaultKind::kNodeFail, /*target=*/1, 0.0});
    FaultSimOptions options;
    options.sim.duration_seconds = 32.0;
    options.sim.seed = 41;
    options.sim.telemetry = registry;
    core::ReplannerOptions replan;
    replan.cadence_s = 20.0;
    replan.tracking_error_threshold = 0.0;  // cadence-only: one step at t=20
    options.replan = replan;
    return simulate_with_faults(dc(), *model, assignment, schedule, options);
  }
};

TEST_F(GenerationGuardFixture, FaultInsideTheAdoptionWindowSupersedesThePlan) {
  init(0.6);
  util::telemetry::Registry registry;
  const FaultSimResult out = run(/*fault_time_s=*/21.0, &registry);
  ASSERT_TRUE(out.status.ok()) << out.status.to_string();
  ASSERT_EQ(out.faults.size(), 1u);
  EXPECT_TRUE(out.faults[0].safe);
  check_accounting(out.sim);

  // The step fired and verified a plan...
  EXPECT_EQ(out.horizon_steps, 1u);
  EXPECT_EQ(out.horizon_adoptions, 1u);
  // ...but the fault at t=21 bumped the generation before the t=30
  // actuation instant: the stale plan must never take effect. The plan in
  // force afterwards is the fault-recovery chain's, alone.
  EXPECT_EQ(registry.counter_value("replan.adoptions_activated"), 0u);
}

TEST_F(GenerationGuardFixture, FaultAfterTheAdoptionWindowKeepsThePlan) {
  init(0.6);
  util::telemetry::Registry registry;
  const FaultSimResult out = run(/*fault_time_s=*/31.0, &registry);
  ASSERT_TRUE(out.status.ok()) << out.status.to_string();
  ASSERT_EQ(out.faults.size(), 1u);
  EXPECT_TRUE(out.faults[0].safe);
  check_accounting(out.sim);

  EXPECT_EQ(out.horizon_steps, 1u);
  EXPECT_EQ(out.horizon_adoptions, 1u);
  // The adoption actuated at t=30, before the fault existed: exactly one
  // activation. Combined with the run above, the only difference is the
  // fault's position relative to the in-flight window — the guard resolves
  // the race to exactly one adopted plan either way.
  EXPECT_EQ(registry.counter_value("replan.adoptions_activated"), 1u);
}

}  // namespace
}  // namespace tapo::sim
