#include "core/powermin.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/assigner.h"
#include "testutil.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(PowerMin, MeetsRewardTarget) {
  const auto scenario = test::make_small_scenario(121, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  // Ask for half of what the power-constrained assignment achieved.
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);
  const double target = 0.5 * reference.reward_rate;

  const PowerMinResult result =
      minimize_power_for_reward(scenario.dc, model, target);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.met_target);
  EXPECT_GE(result.reward_rate, target * 0.999);
}

TEST(PowerMin, UsesLessPowerForSmallerTargets) {
  const auto scenario = test::make_small_scenario(122, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);

  const PowerMinResult small =
      minimize_power_for_reward(scenario.dc, model, 0.25 * reference.reward_rate);
  const PowerMinResult large =
      minimize_power_for_reward(scenario.dc, model, 0.75 * reference.reward_rate);
  ASSERT_TRUE(small.feasible && large.feasible);
  EXPECT_LT(small.total_power_kw, large.total_power_kw);
}

TEST(PowerMin, PowerBelowConstrainedRunForSameReward) {
  // Minimizing power for the reward a budget-constrained run achieved should
  // not need more power than that run used (modulo rounding retries).
  const auto scenario = test::make_small_scenario(123, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);

  const PowerMinResult result = minimize_power_for_reward(
      scenario.dc, model, 0.9 * reference.reward_rate);
  ASSERT_TRUE(result.feasible);
  if (result.met_target) {
    EXPECT_LE(result.total_power_kw, reference.total_power_kw() * 1.1);
  }
}

TEST(PowerMin, UnreachableTargetReportsInfeasible) {
  const auto scenario = test::make_small_scenario(124, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  // Ask for more reward than the arrival rates can ever provide.
  double max_possible = 0.0;
  for (const auto& t : scenario.dc.task_types) {
    max_possible += t.reward * t.arrival_rate;
  }
  const PowerMinResult result =
      minimize_power_for_reward(scenario.dc, model, max_possible * 100.0);
  EXPECT_FALSE(result.feasible);
}

TEST(PowerMin, AssignmentSatisfiesThermalConstraints) {
  const auto scenario = test::make_small_scenario(125, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const ThreeStageAssigner assigner(scenario.dc, model);
  const Assignment reference = assigner.assign();
  ASSERT_TRUE(reference.feasible);
  const PowerMinResult result = minimize_power_for_reward(
      scenario.dc, model, 0.5 * reference.reward_rate);
  ASSERT_TRUE(result.feasible);
  const auto temps = model.solve(
      result.assignment.crac_out_c,
      scenario.dc.node_power_from_pstates(result.assignment.core_pstate));
  EXPECT_TRUE(model.within_redlines(temps));
}

TEST(PowerMin, EngineAndWarmChainDoNotChangeThePlan) {
  // The sweep only selects setpoints; every attempt's plan comes from a cold
  // Dense re-solve at the winner. So the plan must be bit-identical whether
  // the sweep ran the Dense engine per point or resident revised sessions
  // on warm chains, at any worker count.
  for (const std::uint64_t seed : {std::uint64_t{127}, std::uint64_t{128}}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto scenario = test::make_small_scenario(seed, 12, 2);
    const thermal::HeatFlowModel model(scenario.dc);
    const Assignment reference =
        ThreeStageAssigner(scenario.dc, model).assign();
    ASSERT_TRUE(reference.feasible);
    const double target = 0.6 * reference.reward_rate;

    std::vector<PowerMinOptions> variants(3);
    variants[0].stage1.lp.engine = solver::LpEngine::Dense;
    variants[1].stage1.threads = 1;  // revised sessions
    variants[2].stage1.threads = 4;
    const PowerMinResult dense =
        minimize_power_for_reward(scenario.dc, model, target, variants[0]);
    ASSERT_TRUE(dense.feasible);
    for (std::size_t i = 1; i < variants.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "variant " << i);
      const PowerMinResult got =
          minimize_power_for_reward(scenario.dc, model, target, variants[i]);
      ASSERT_TRUE(got.feasible);
      EXPECT_EQ(got.attempts, dense.attempts);
      EXPECT_EQ(got.assignment.crac_out_c, dense.assignment.crac_out_c);
      EXPECT_EQ(got.assignment.core_pstate, dense.assignment.core_pstate);
      EXPECT_EQ(got.total_power_kw, dense.total_power_kw);
    }
  }
}

TEST(PowerMin, NegativeOrNonFiniteTargetIsInvalidArgument) {
  const auto scenario = test::make_small_scenario(126, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  for (const double target : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    const PowerMinResult result =
        minimize_power_for_reward(scenario.dc, model, target);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument)
        << "target " << target;
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.met_target);
    EXPECT_EQ(result.attempts, 0u);
  }
}

TEST(PowerMin, OptionsOutOfRangeAreInvalidArguments) {
  const auto scenario = test::make_small_scenario(126, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  // stage1 carries the shared sweep settings.
  static_assert(std::is_base_of_v<CracSweepOptions, Stage1Options>);
  EXPECT_TRUE(PowerMinOptions{}.validate().ok());

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<PowerMinOptions> bad(9);
  bad[0].stage1.psi = 0.0;  // used to abort building the reward curves
  bad[1].stage1.tcrac_min_c = 30.0;  // above tcrac_max_c
  bad[2].stage1.grid.refine_samples = 0;
  bad[3].retry_inflation = 0.5;
  bad[4].retry_inflation = kNaN;
  bad[5].relative_tolerance = 1.0;
  bad[6].relative_tolerance = -0.1;
  bad[7].relative_tolerance = kNaN;
  // Far beyond the cap: rejected before any pool exists, so no thread is
  // ever started for it.
  bad[8].stage1.threads = std::size_t{1} << 40;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    util::telemetry::Registry registry;
    bad[i].stage1.telemetry = &registry;
    EXPECT_EQ(bad[i].validate().code(), util::StatusCode::kInvalidArgument);
    const PowerMinResult result =
        minimize_power_for_reward(scenario.dc, model, 1.0, bad[i]);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument)
        << result.status.to_string();
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.attempts, 0u);
    EXPECT_EQ(registry.counter_value("powermin.attempts"), 0u);
  }
}

TEST(PowerMin, ZeroTargetCostsRoughlyPmin) {
  const auto scenario = test::make_small_scenario(126, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  const PowerMinResult result = minimize_power_for_reward(scenario.dc, model, 0.0);
  ASSERT_TRUE(result.feasible);
  // With no reward requirement the optimum is (close to) the all-off bound.
  EXPECT_LT(result.total_power_kw, scenario.bounds.pmin_kw * 1.1 + 1e-9);
}

}  // namespace
}  // namespace tapo::core
