#include "core/recovery.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/assigner.h"
#include "sim/faults.h"
#include "testutil.h"
#include "thermal/heatflow.h"

namespace tapo::core {
namespace {

constexpr double kTcracMin = 10.0;  // Stage1Options defaults
constexpr double kTcracMax = 25.0;

struct RecoveryFixture : ::testing::Test {
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

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  Assignment assignment;
};

TEST_F(RecoveryFixture, ThrottleForcesFailedCoresOffWithZeroRates) {
  const std::size_t failed_node = 1;
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, failed_node, 0.0},
                   kTcracMin, kTcracMax);

  const RecoveryController controller(dc(), *model);
  const Assignment throttle = controller.safety_throttle(assignment);
  ASSERT_TRUE(throttle.feasible) << throttle.status.to_string();

  const std::size_t offset = dc().core_offset(failed_node);
  const std::size_t cores = dc().node_type(failed_node).cores_per_node();
  for (std::size_t c = 0; c < cores; ++c) {
    const std::size_t k = offset + c;
    EXPECT_EQ(throttle.core_pstate[k],
              dc().node_type(failed_node).off_state());
    for (std::size_t i = 0; i < dc().num_task_types(); ++i) {
      EXPECT_DOUBLE_EQ(throttle.tc(i, k), 0.0);
    }
  }
  // The throttle must itself pass the independent verifier on the degraded
  // data center (redlines, budget, deadline rule).
  const AssignmentCheck check = verify_assignment(dc(), *model, throttle);
  EXPECT_TRUE(check.ok()) << "power=" << check.power_ok
                          << " thermal=" << check.thermal_ok
                          << " rates=" << check.rates_ok;
}

TEST_F(RecoveryFixture, ThrottleRespectsPowerCapDrop) {
  dc().p_const_kw *= 0.75;
  const RecoveryController controller(dc(), *model);
  const Assignment throttle = controller.safety_throttle(assignment);
  ASSERT_TRUE(throttle.feasible) << throttle.status.to_string();
  EXPECT_LE(throttle.total_power_kw(), dc().p_const_kw + 1e-6);
  EXPECT_TRUE(verify_assignment(dc(), *model, throttle).ok());
  dc().p_const_kw /= 0.75;
}

TEST_F(RecoveryFixture, ThrottleRaisesSetpointsForDeratedCrac) {
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kCracDerate, 0, 0.5},
                   kTcracMin, kTcracMax);
  const double min_outlet = dc().crac_min_outlet(0, kTcracMin);
  ASSERT_GT(min_outlet, kTcracMin);

  const RecoveryController controller(dc(), *model);
  const Assignment throttle = controller.safety_throttle(assignment);
  ASSERT_TRUE(throttle.feasible) << throttle.status.to_string();
  EXPECT_GE(throttle.crac_out_c[0], min_outlet - 1e-12);
}

TEST_F(RecoveryFixture, ReplanRestoresAtLeastThrottleReward) {
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, 2, 0.0},
                   kTcracMin, kTcracMax);

  const RecoveryController controller(dc(), *model);
  const RecoveryOutcome outcome = controller.recover(assignment);
  ASSERT_TRUE(outcome.safe) << outcome.status.to_string();
  // Whether or not the re-plan was adopted, the plan in force never earns
  // less than the safety throttle.
  EXPECT_GE(outcome.plan.reward_rate, outcome.throttle_reward_rate - 1e-9);
  if (outcome.replan_adopted) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    EXPECT_GE(outcome.replan_reward_rate, outcome.throttle_reward_rate - 1e-9);
    // An adopted re-plan passed the verifier on the degraded data center.
    EXPECT_TRUE(verify_assignment(dc(), *model, outcome.plan).ok());
  }
}

TEST_F(RecoveryFixture, EndToEndCompoundFault) {
  // The acceptance scenario: a node failure, a CRAC derate and a power-cap
  // drop all in force at once. Recovery must reach a safe plan without
  // aborting, hold the redlines through the transition, respect the reduced
  // budget, and do at least as well as the throttle.
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, 2, 0.0},
                   kTcracMin, kTcracMax);
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kCracDerate, 0, 0.6},
                   kTcracMin, kTcracMax);
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kPowerCap, 0,
                          0.9 * dc().p_const_kw},
                   kTcracMin, kTcracMax);
  const double degraded_budget = dc().p_const_kw;

  const RecoveryController controller(dc(), *model);
  const RecoveryOutcome outcome = controller.recover(assignment);

  ASSERT_TRUE(outcome.safe) << outcome.status.to_string();
  EXPECT_TRUE(outcome.throttle_transient.redlines_held);
  EXPECT_LE(outcome.plan.total_power_kw(), degraded_budget + 1e-6);
  EXPECT_GE(outcome.plan.reward_rate, outcome.throttle_reward_rate - 1e-9);
  const AssignmentCheck check = verify_assignment(dc(), *model, outcome.plan);
  EXPECT_TRUE(check.ok()) << "power=" << check.power_ok
                          << " thermal=" << check.thermal_ok
                          << " rates=" << check.rates_ok;
  if (outcome.replan_adopted) {
    EXPECT_TRUE(outcome.replan_transient.redlines_held);
  }

  dc().p_const_kw = degraded_budget / 0.9;
}

TEST_F(RecoveryFixture, ImpossibleBudgetReportsInsteadOfAborting) {
  // Even all-cores-off draws base + CRAC power; a zero budget is therefore
  // unsatisfiable. Recovery must come back with a best-effort all-off plan
  // and a status, never a crash.
  const double original = dc().p_const_kw;
  dc().p_const_kw = 0.0;

  const RecoveryController controller(dc(), *model);
  const RecoveryOutcome outcome = controller.recover(assignment);
  EXPECT_FALSE(outcome.safe);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_FALSE(outcome.replan_adopted);
  // Best-effort plan: everything off.
  for (std::size_t k = 0; k < dc().total_cores(); ++k) {
    EXPECT_EQ(outcome.plan.core_pstate[k],
              dc().node_type(dc().core_node(k)).off_state());
  }

  dc().p_const_kw = original;
}

TEST_F(RecoveryFixture, WarmSeededReplanMatchesColdReplan) {
  // The pre-fault plan's Stage-1 basis only accelerates the phase-2 sweep;
  // the adopted plan must be bit-identical to what a cold re-plan (no basis
  // available) produces.
  sim::apply_fault(dc(), {0.0, sim::FaultKind::kNodeFail, 2, 0.0},
                   kTcracMin, kTcracMax);
  ASSERT_FALSE(assignment.stage1_basis.empty());

  const RecoveryController controller(dc(), *model);
  const RecoveryOutcome warm = controller.recover(assignment);

  Assignment no_basis = assignment;
  no_basis.stage1_basis = solver::LpBasis{};
  const RecoveryOutcome cold = controller.recover(no_basis);

  ASSERT_EQ(warm.safe, cold.safe);
  ASSERT_EQ(warm.replan_adopted, cold.replan_adopted);
  EXPECT_EQ(warm.plan.reward_rate, cold.plan.reward_rate);
  EXPECT_EQ(warm.plan.crac_out_c, cold.plan.crac_out_c);
  EXPECT_EQ(warm.plan.core_pstate, cold.plan.core_pstate);
}

TEST_F(RecoveryFixture, HealthyRecoveryKeepsFullReward) {
  // With no fault applied, the throttle's rung 0 is the previous plan itself,
  // so nothing is lost and the re-plan can only match or improve it.
  const RecoveryController controller(dc(), *model);
  const RecoveryOutcome outcome = controller.recover(assignment);
  ASSERT_TRUE(outcome.safe) << outcome.status.to_string();
  EXPECT_NEAR(outcome.throttle_reward_rate, assignment.reward_rate,
              1e-6 * assignment.reward_rate + 1e-9);
  EXPECT_GE(outcome.plan.reward_rate, assignment.reward_rate - 1e-6);
}

}  // namespace
}  // namespace tapo::core
