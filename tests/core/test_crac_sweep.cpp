#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/powermin.h"
#include "core/stage1.h"
#include "testutil.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(CracSweep, EveryCallerForwardsTheRoundHookAndHonoursFullGrid) {
  // Stage 1, power minimization and the baseline run one sweep driver: each
  // forwards a caller's on_round hook (telemetry on) once per recorded sweep
  // round, and each runs the full Cartesian search when asked. The full
  // grid evaluates the same points whatever the LP family, so powermin's
  // LP count must equal Stage 1's grid evaluation count.
  const auto scenario = test::make_small_scenario(301, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  for (const bool full_grid : {false, true}) {
    SCOPED_TRACE(testing::Message() << "full_grid=" << full_grid);
    std::size_t hooks[3] = {0, 0, 0};
    const auto counting = [&hooks](std::size_t k) {
      return [&hooks, k](std::size_t, const solver::GridSearchResult&) {
        ++hooks[k];
      };
    };

    util::telemetry::Registry stage1_reg;
    Stage1Options stage1;
    stage1.full_grid = full_grid;
    stage1.telemetry = &stage1_reg;
    stage1.grid.on_round = counting(0);
    const Stage1Result relaxed = Stage1Solver(scenario.dc, model).solve(stage1);
    ASSERT_TRUE(relaxed.feasible);
    EXPECT_GT(hooks[0], 0u);
    EXPECT_EQ(hooks[0], stage1_reg.counter_value("stage1.sweep_rounds"));

    util::telemetry::Registry powermin_reg;
    PowerMinOptions powermin;
    powermin.stage1 = stage1;
    powermin.stage1.telemetry = &powermin_reg;
    powermin.stage1.grid.on_round = counting(1);
    powermin.max_retries = 0;  // one attempt, one sweep
    const PowerMinResult min_power = minimize_power_for_reward(
        scenario.dc, model, 0.5 * relaxed.objective, powermin);
    ASSERT_TRUE(min_power.feasible) << min_power.status.to_string();
    EXPECT_GT(hooks[1], 0u);
    EXPECT_EQ(hooks[1], powermin_reg.counter_value("powermin.sweep_rounds"));
    if (full_grid) {
      EXPECT_EQ(powermin_reg.counter_value("powermin.lp_solves"),
                stage1_reg.counter_value("stage1.grid_evaluations"));
    }

    util::telemetry::Registry baseline_reg;
    BaselineOptions baseline;
    baseline.full_grid = full_grid;
    baseline.lp.telemetry = &baseline_reg;
    baseline.grid.on_round = counting(2);
    const Assignment plan = BaselineAssigner(scenario.dc, model).assign(baseline);
    ASSERT_TRUE(plan.feasible);
    EXPECT_GT(hooks[2], 0u);
    EXPECT_EQ(hooks[2], baseline_reg.counter_value("baseline.sweep_rounds"));
    if (full_grid) {
      EXPECT_EQ(baseline_reg.counter_value("baseline.lp_solves"),
                stage1_reg.counter_value("stage1.grid_evaluations"));
    }
  }
}

}  // namespace
}  // namespace tapo::core
