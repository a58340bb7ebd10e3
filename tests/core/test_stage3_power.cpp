#include "core/stage3_power.h"

#include <gtest/gtest.h>

#include "core/stage2.h"
#include "core/stage3.h"
#include "testutil.h"

namespace tapo::core {
namespace {

struct TaskPowerFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(401, 10, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const ThreeStageAssigner assigner(scenario->dc, *model);
    plain = assigner.assign();
    ASSERT_TRUE(plain.feasible);
  }
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  Assignment plain;
};

TEST_F(TaskPowerFixture, UnitFactorsReproducePlainStage3) {
  dc::TaskPowerFactors unit;  // all 1.0
  const auto aware = solve_stage3_power_aware(
      scenario->dc, *model, plain.crac_out_c, plain.core_pstate, unit);
  ASSERT_TRUE(aware.optimal);
  // With unit factors the power rows are constants satisfied by stages 1-2,
  // so the optimum must match the plain Stage-3 LP.
  EXPECT_NEAR(aware.reward_rate, plain.reward_rate,
              1e-6 * std::max(1.0, plain.reward_rate));
  // And the expected node powers equal the P-state powers.
  const auto nominal = scenario->dc.node_power_from_pstates(plain.core_pstate);
  for (std::size_t j = 0; j < nominal.size(); ++j) {
    EXPECT_NEAR(aware.node_power_kw[j], nominal[j], 1e-9);
  }
}

TEST_F(TaskPowerFixture, CheaperTasksLowerExpectedPower) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.7);
  cheap.idle_factor = 0.6;
  const auto aware = solve_stage3_power_aware(
      scenario->dc, *model, plain.crac_out_c, plain.core_pstate, cheap);
  ASSERT_TRUE(aware.optimal);
  const auto nominal = scenario->dc.node_power_from_pstates(plain.core_pstate);
  double nominal_total = 0.0;
  for (double p : nominal) nominal_total += p;
  EXPECT_LT(aware.compute_power_kw, nominal_total);
}

TEST_F(TaskPowerFixture, RespectsCapacityArrivalAndDeadlines) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.8);
  cheap.idle_factor = 0.7;
  const auto& dc = scenario->dc;
  const auto aware = solve_stage3_power_aware(dc, *model, plain.crac_out_c,
                                              plain.core_pstate, cheap);
  ASSERT_TRUE(aware.optimal);
  for (std::size_t k = 0; k < dc.total_cores(); ++k) {
    double util = 0.0;
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      const double rate = aware.tc(i, k);
      if (rate <= 0.0) continue;
      EXPECT_TRUE(dc.ecs.can_meet_deadline(i, dc.core_type(k),
                                           plain.core_pstate[k],
                                           dc.task_types[i].relative_deadline));
      util += rate * dc.ecs.etc_seconds(i, dc.core_type(k), plain.core_pstate[k]);
    }
    EXPECT_LE(util, 1.0 + 1e-6);
  }
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    double total = 0.0;
    for (std::size_t k = 0; k < dc.total_cores(); ++k) total += aware.tc(i, k);
    EXPECT_LE(total, dc.task_types[i].arrival_rate + 1e-6);
  }
}

TEST_F(TaskPowerFixture, ExpectedPowerWithinBudgetAndRedlines) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.75);
  cheap.idle_factor = 0.65;
  const auto aware = solve_stage3_power_aware(
      scenario->dc, *model, plain.crac_out_c, plain.core_pstate, cheap);
  ASSERT_TRUE(aware.optimal);
  EXPECT_LE(aware.compute_power_kw + aware.crac_power_kw,
            scenario->dc.p_const_kw + 1e-6);
  const auto temps = model->solve(plain.crac_out_c, aware.node_power_kw);
  EXPECT_TRUE(model->within_redlines(temps));
}

TEST_F(TaskPowerFixture, PipelineReclaimsStrandedPower) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.7);
  cheap.idle_factor = 0.6;
  TaskPowerAssigner assigner(scenario->dc, *model, cheap);
  const TaskPowerResult result = assigner.assign();
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.iterations, 2u);
  // Iterating on the virtual budget must recover reward over iteration 1
  // (which equals the plain pipeline under the conservative power bound).
  EXPECT_GT(result.assignment.reward_rate, result.first_iteration_reward * 1.0);
  EXPECT_LE(result.expected_power_kw, scenario->dc.p_const_kw + 1e-6);
}

TEST_F(TaskPowerFixture, PublishedPowersMatchAFreshSolve) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.7);
  cheap.idle_factor = 0.6;
  TaskPowerAssigner assigner(scenario->dc, *model, cheap);
  const TaskPowerResult result = assigner.assign();
  ASSERT_TRUE(result.feasible);
  const Assignment& a = result.assignment;
  const auto fresh = solve_stage3_power_aware(scenario->dc, *model,
                                              a.crac_out_c, a.core_pstate,
                                              cheap);
  ASSERT_TRUE(fresh.optimal);
  EXPECT_EQ(a.reward_rate, fresh.reward_rate);
  EXPECT_EQ(a.compute_power_kw, fresh.compute_power_kw);
  EXPECT_EQ(a.crac_power_kw, fresh.crac_power_kw);
  EXPECT_EQ(result.expected_power_kw,
            fresh.compute_power_kw + fresh.crac_power_kw);
  const thermal::Temperatures temps =
      model->solve(a.crac_out_c, fresh.node_power_kw);
  EXPECT_EQ(a.temps.node_in, temps.node_in);
  EXPECT_EQ(a.temps.node_out, temps.node_out);
  EXPECT_EQ(a.temps.crac_in, temps.crac_in);
  EXPECT_EQ(a.temps.crac_out, temps.crac_out);
}

TEST_F(TaskPowerFixture, FailedNodeCarriesNoRateAndNoPower) {
  dc::DataCenter& dc = scenario->dc;
  const std::size_t failed = 0;
  const std::size_t offset = dc.core_offset(failed);
  const std::size_t cores = dc.node_type(failed).cores_per_node();
  std::vector<std::size_t> pstate = plain.core_pstate;
  for (std::size_t c = 0; c < cores; ++c) pstate[offset + c] = 0;
  dc.set_node_failed(failed, true);
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(dc.num_task_types(), 0.8);
  cheap.idle_factor = 0.7;
  const auto aware =
      solve_stage3_power_aware(dc, *model, plain.crac_out_c, pstate, cheap);
  ASSERT_TRUE(aware.optimal);
  EXPECT_EQ(aware.node_power_kw[failed], 0.0);
  for (std::size_t c = 0; c < cores; ++c) {
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      EXPECT_EQ(aware.tc(i, offset + c), 0.0) << "type " << i << " core " << c;
    }
  }
}

TEST_F(TaskPowerFixture, PipelineRestoresBudget) {
  dc::TaskPowerFactors cheap;
  cheap.task_factor.assign(scenario->dc.num_task_types(), 0.8);
  cheap.idle_factor = 0.8;
  const double before = scenario->dc.p_const_kw;
  TaskPowerAssigner assigner(scenario->dc, *model, cheap);
  assigner.assign();
  EXPECT_DOUBLE_EQ(scenario->dc.p_const_kw, before);
}

TEST_F(TaskPowerFixture, UnitFactorsPipelineStopsEarly) {
  dc::TaskPowerFactors unit;
  TaskPowerAssigner assigner(scenario->dc, *model, unit);
  const TaskPowerResult result = assigner.assign();
  ASSERT_TRUE(result.feasible);
  // No stranded power to reclaim: one or two iterations and no gain.
  EXPECT_NEAR(result.assignment.reward_rate, result.first_iteration_reward,
              1e-6 * result.first_iteration_reward);
}

TEST_F(TaskPowerFixture, RejectsFactorsAboveOne) {
  dc::TaskPowerFactors hot;
  hot.task_factor.assign(scenario->dc.num_task_types(), 1.5);
  EXPECT_DEATH(TaskPowerAssigner(scenario->dc, *model, hot),
               "power bound");
}

TEST_F(TaskPowerFixture, PerTypeFactorsShiftWorkTowardCheapTasks) {
  // Give half the task types a much cheaper power profile; the power-aware
  // LP should never earn less than with uniform expensive factors.
  const std::size_t t = scenario->dc.num_task_types();
  dc::TaskPowerFactors mixed, expensive;
  mixed.task_factor.assign(t, 1.0);
  for (std::size_t i = 0; i < t; i += 2) mixed.task_factor[i] = 0.6;
  mixed.idle_factor = 0.6;  // idle never draws more than any running task
  expensive.task_factor.assign(t, 1.0);
  const auto with_mixed = solve_stage3_power_aware(
      scenario->dc, *model, plain.crac_out_c, plain.core_pstate, mixed);
  const auto with_expensive = solve_stage3_power_aware(
      scenario->dc, *model, plain.crac_out_c, plain.core_pstate, expensive);
  ASSERT_TRUE(with_mixed.optimal && with_expensive.optimal);
  EXPECT_GE(with_mixed.reward_rate, with_expensive.reward_rate - 1e-9);
}

}  // namespace
}  // namespace tapo::core
