// RollingPlanner: the demand-only horizon step must match a fresh Stage-3
// solve bit-for-near-bit (the patch-and-resume path is lossless), run
// entirely on the resident LpSession (resident resumes, zero fallbacks), and
// walk the docs/RESILIENCE.md degradation ladder — held plan, safety
// throttle, bounded backoff — without ever publishing an unverified plan.
#include "core/replanner.h"

#include <gtest/gtest.h>

#include "core/recovery.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/assigner.h"
#include "core/stage3.h"
#include "sim/faults.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

constexpr double kTcracMin = 10.0;  // Stage1Options defaults
constexpr double kTcracMax = 25.0;

struct ReplannerFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(131, 8, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }
  void TearDown() override {
    if (scenario) scenario->dc.clear_faults();
  }

  dc::DataCenter& dc() { return scenario->dc; }

  std::vector<double> rates(double scale) const {
    std::vector<double> lambda;
    for (const auto& t : scenario->dc.task_types) {
      lambda.push_back(t.arrival_rate * scale);
    }
    return lambda;
  }

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  Assignment assignment;
};

TEST(ReplannerOptions, ValidateRejectsDegenerateFields) {
  EXPECT_TRUE(ReplannerOptions{}.validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    ReplannerOptions o;
    o.cadence_s = 0.0;
    EXPECT_FALSE(o.validate().ok());
  }
  {
    ReplannerOptions o;
    o.cadence_s = nan;
    EXPECT_FALSE(o.validate().ok());
  }
  {
    ReplannerOptions o;
    o.tracking_error_threshold = nan;
    EXPECT_FALSE(o.validate().ok());
  }
}

TEST_F(ReplannerFixture, AdoptedStepMatchesFreshStage3OnDriftedRates) {
  RollingPlanner planner(dc(), *model, assignment);
  // A chain of drifted demand points; each patched-and-resumed step must
  // land on the same optimum as a from-scratch Stage-3 solve at those rates,
  // and — because Stages 1 and 2 never read the rates — on the same plan as
  // a full three-stage re-plan at those rates.
  const std::vector<dc::TaskType> original = dc().task_types;
  for (const double scale : {0.6, 1.4, 0.9, 2.0, 0.3}) {
    const std::vector<double> lambda = rates(scale);
    const HorizonStep step = planner.step(lambda);
    ASSERT_TRUE(step.adopted()) << "scale " << scale << ": "
                                << step.status.to_string();
    EXPECT_TRUE(step.plan.feasible);
    EXPECT_EQ(step.plan.technique, "rolling-horizon");
    EXPECT_TRUE(verify_assignment(dc(), *model, step.plan, &lambda).ok())
        << "scale " << scale;

    for (std::size_t i = 0; i < dc().num_task_types(); ++i) {
      dc().task_types[i].arrival_rate = lambda[i];
    }
    const Stage3Result fresh =
        solve_stage3(dc(), assignment.core_pstate);
    const Assignment replan = ThreeStageAssigner(dc(), *model).assign();
    dc().task_types = original;
    ASSERT_TRUE(fresh.optimal);
    EXPECT_NEAR(step.plan.reward_rate, fresh.reward_rate,
                1e-6 * std::max(1.0, fresh.reward_rate))
        << "scale " << scale;
    ASSERT_TRUE(replan.feasible) << "scale " << scale;
    EXPECT_EQ(step.plan.crac_out_c, replan.crac_out_c) << "scale " << scale;
    EXPECT_EQ(step.plan.core_pstate, replan.core_pstate) << "scale " << scale;
    EXPECT_DOUBLE_EQ(step.plan.reward_rate, replan.reward_rate)
        << "scale " << scale;
  }
  EXPECT_EQ(planner.consecutive_failures(), 0u);
}

TEST_F(ReplannerFixture, StepsRideTheResidentSessionWithoutRebuilds) {
  RollingPlanner planner(dc(), *model, assignment);
  const std::size_t steps = 6;
  for (std::size_t s = 0; s < steps; ++s) {
    const double scale = 0.5 + 0.25 * static_cast<double>(s);
    ASSERT_TRUE(planner.step(rates(scale)).adopted());
  }
  const solver::LpSession::Stats stats = planner.session_stats();
  EXPECT_EQ(stats.solves, steps);
  EXPECT_EQ(stats.fallbacks, 0u);
  // Every solve after the first resumes the resident basis: the whole drift
  // chain is patch-and-resume, never a rebuild.
  EXPECT_GE(stats.resident_resumes, steps - 1);
  EXPECT_GT(stats.patches, 0u);
  EXPECT_EQ(planner.session_rebuilds(), 0u);
}

TEST_F(ReplannerFixture, IterationCapDegradesToHeldPlanWithBackoff) {
  ReplannerOptions options;
  options.max_lp_iterations = 1;  // planted solve deadline
  RollingPlanner planner(dc(), *model, assignment, options);

  const HorizonStep first = planner.step(rates(1.5));
  EXPECT_TRUE(first.degraded());
  EXPECT_EQ(first.rung, HorizonStep::Rung::kHeld);
  EXPECT_EQ(first.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(first.retry_after_s, 5.0);

  // Consecutive failures double the backoff until the cap.
  EXPECT_DOUBLE_EQ(planner.step(rates(1.5)).retry_after_s, 10.0);
  EXPECT_DOUBLE_EQ(planner.step(rates(1.5)).retry_after_s, 20.0);
  EXPECT_DOUBLE_EQ(planner.step(rates(1.5)).retry_after_s, 40.0);
  EXPECT_DOUBLE_EQ(planner.step(rates(1.5)).retry_after_s, 60.0);
  EXPECT_DOUBLE_EQ(planner.step(rates(1.5)).retry_after_s, 60.0);
  EXPECT_EQ(planner.consecutive_failures(), 6u);
  // The active plan is untouched by held steps.
  EXPECT_EQ(planner.active().technique, assignment.technique);
}

TEST_F(ReplannerFixture, DegradedRatesNeverCrashAndBackoffResetsOnSuccess) {
  RollingPlanner planner(dc(), *model, assignment);
  std::vector<double> bad = rates(1.0);
  bad[0] = std::numeric_limits<double>::quiet_NaN();
  const HorizonStep nan_step = planner.step(bad);
  EXPECT_TRUE(nan_step.degraded());
  EXPECT_EQ(nan_step.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(planner.consecutive_failures(), 1u);

  bad[0] = -2.0;
  EXPECT_TRUE(planner.step(bad).degraded());
  EXPECT_EQ(planner.consecutive_failures(), 2u);

  // A clean step adopts and resets the failure streak.
  EXPECT_TRUE(planner.step(rates(1.0)).adopted());
  EXPECT_EQ(planner.consecutive_failures(), 0u);
}

TEST_F(ReplannerFixture, ThrottleRungWhenTheHeldPlanNoLongerVerifies) {
  ReplannerOptions options;
  options.max_lp_iterations = 1;  // force every step onto the degraded path
  util::telemetry::Registry registry;
  options.telemetry = &registry;
  RollingPlanner planner(dc(), *model, assignment, options);

  // Fail a node the active plan uses: holding the plan is no longer safe, so
  // the ladder must descend to the LP-free safety throttle.
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, 1, 0.0}, kTcracMin,
                   kTcracMax);
  const HorizonStep step = planner.step(rates(1.0));
  ASSERT_EQ(step.rung, HorizonStep::Rung::kThrottled);
  ASSERT_TRUE(step.plan.feasible) << step.plan.status.to_string();
  // The throttle plan verifies on the degraded data center.
  EXPECT_TRUE(verify_assignment(dc(), *model, step.plan).ok());
  // The throttle re-anchors the resident LP (P-states changed).
  EXPECT_GE(planner.session_rebuilds(), 1u);
  EXPECT_GE(registry.counter_value("replan.throttles"), 1u);
  EXPECT_GE(registry.counter_value("replan.degraded_steps"), 1u);
}

TEST_F(ReplannerFixture, RebindRebuildsForTheNewClassStructure) {
  RollingPlanner planner(dc(), *model, assignment);
  ASSERT_TRUE(planner.step(rates(1.2)).adopted());

  // Hardware change: fail a node, rebind on a throttled plan, and keep
  // stepping — the planner must track the reduced park.
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, 2, 0.0}, kTcracMin,
                   kTcracMax);
  const RecoveryController controller(dc(), *model);
  const Assignment throttle = controller.safety_throttle(planner.active());
  ASSERT_TRUE(throttle.feasible);
  planner.rebind(throttle);
  EXPECT_EQ(planner.session_rebuilds(), 1u);

  const HorizonStep step = planner.step(rates(1.0));
  ASSERT_TRUE(step.adopted()) << step.status.to_string();
  // No rate may land on the failed node's cores.
  const std::size_t offset = dc().core_offset(2);
  const std::size_t cores = dc().node_type(2).cores_per_node();
  for (std::size_t c = 0; c < cores; ++c) {
    for (std::size_t i = 0; i < dc().num_task_types(); ++i) {
      EXPECT_DOUBLE_EQ(step.plan.tc(i, offset + c), 0.0);
    }
  }
}

TEST_F(ReplannerFixture, TelemetryCountsStepsAndAdoptions) {
  util::telemetry::Registry registry;
  ReplannerOptions options;
  options.telemetry = &registry;
  RollingPlanner planner(dc(), *model, assignment, options);
  ASSERT_TRUE(planner.step(rates(0.8)).adopted());
  ASSERT_TRUE(planner.step(rates(1.1)).adopted());
  EXPECT_EQ(registry.counter_value("replan.steps"), 2u);
  EXPECT_EQ(registry.counter_value("replan.adoptions"), 2u);
  EXPECT_EQ(registry.counter_value("replan.degraded_steps"), 0u);
}

}  // namespace
}  // namespace tapo::core
