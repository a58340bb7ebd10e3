#include "core/stage1.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <optional>
#include <type_traits>
#include <vector>

#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

TEST(Stage1, FeasibleOnGeneratedScenario) {
  const auto scenario = test::make_small_scenario(31, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.objective, 0.0);
  EXPECT_GT(result.lp_solves, 0u);
  EXPECT_EQ(result.node_core_power_kw.size(), scenario.dc.num_nodes());
}

TEST(Stage1, RespectsPowerBudget) {
  const auto scenario = test::make_small_scenario(32, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.compute_power_kw + result.crac_power_kw,
            scenario.dc.p_const_kw + 1e-6);
}

TEST(Stage1, NodePowersWithinPhysicalRange) {
  const auto scenario = test::make_small_scenario(33, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  for (std::size_t j = 0; j < scenario.dc.num_nodes(); ++j) {
    const auto& spec = scenario.dc.node_type(j);
    EXPECT_GE(result.node_core_power_kw[j], -1e-9);
    EXPECT_LE(result.node_core_power_kw[j],
              spec.cores_per_node() * spec.core_power_kw(0) + 1e-9);
  }
}

TEST(Stage1, ThermallyFeasibleAtSolution) {
  const auto scenario = test::make_small_scenario(34, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  // Reconstruct total node powers and check the actual steady state.
  std::vector<double> node_power = result.node_core_power_kw;
  for (std::size_t j = 0; j < node_power.size(); ++j) {
    node_power[j] += scenario.dc.node_type(j).base_power_kw();
  }
  EXPECT_TRUE(model.within_redlines(model.solve(result.crac_out_c, node_power)));
}

TEST(Stage1, InfeasibleWhenBudgetBelowBasePower) {
  auto scenario = test::make_small_scenario(35, 6, 1);
  scenario.dc.p_const_kw = scenario.dc.total_base_power_kw() * 0.5;
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  EXPECT_FALSE(solver.solve().feasible);
}

TEST(Stage1, LargerBudgetNeverHurts) {
  auto scenario = test::make_small_scenario(36, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result tight = solver.solve();
  scenario.dc.p_const_kw *= 1.2;
  const Stage1Result loose = solver.solve();
  ASSERT_TRUE(tight.feasible && loose.feasible);
  EXPECT_GE(loose.objective, tight.objective - 1e-6);
}

TEST(Stage1, SolveAtMatchesSearchBest) {
  const auto scenario = test::make_small_scenario(37, 6, 1);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options options;
  const Stage1Result result = solver.solve(options);
  ASSERT_TRUE(result.feasible);
  const auto at = solver.solve_at(result.crac_out_c, options.psi);
  ASSERT_TRUE(at.feasible);
  EXPECT_NEAR(at.objective, result.objective, 1e-9);
}

TEST(Stage1, ObjectiveBudgetSaturation) {
  // An oversubscribed data center leaves no slack in the budget: the LP
  // should use (almost) all of Pconst.
  const auto scenario = test::make_small_scenario(38, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  const Stage1Result result = solver.solve();
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.compute_power_kw + result.crac_power_kw,
            0.98 * scenario.dc.p_const_kw);
}

TEST(Stage1, FullGridAgreesWithDefaultSearchApproximately) {
  const auto scenario = test::make_small_scenario(39, 6, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options fast;
  Stage1Options grid;
  grid.full_grid = true;
  const auto a = solver.solve(fast);
  const auto b = solver.solve(grid);
  ASSERT_TRUE(a.feasible && b.feasible);
  // Both are heuristic searches over the same LP family; they must land
  // within a few percent of each other.
  EXPECT_NEAR(a.objective, b.objective, 0.05 * std::max(a.objective, b.objective));
}

TEST(Stage1, TelemetryDoesNotChangeTheSolution) {
  // Telemetry is a pure observer: attaching a registry must leave every
  // output bit-identical, and the registry's counters must agree with the
  // result's own bookkeeping.
  const auto scenario = test::make_small_scenario(41, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  Stage1Options plain;
  const Stage1Result without = solver.solve(plain);

  util::telemetry::Registry registry;
  Stage1Options observed;
  observed.telemetry = &registry;
  const Stage1Result with = solver.solve(observed);

  ASSERT_TRUE(without.feasible && with.feasible);
  EXPECT_EQ(with.objective, without.objective);  // bit-identical, not NEAR
  EXPECT_EQ(with.crac_out_c, without.crac_out_c);
  EXPECT_EQ(with.compute_power_kw, without.compute_power_kw);
  EXPECT_EQ(with.crac_power_kw, without.crac_power_kw);
  EXPECT_EQ(with.lp_solves, without.lp_solves);
  EXPECT_EQ(with.node_core_power_kw, without.node_core_power_kw);

  EXPECT_EQ(registry.counter_value("stage1.solves"), 1u);
  EXPECT_EQ(registry.counter_value("stage1.lp_solves"), with.lp_solves);
  EXPECT_EQ(registry.gauge_value("stage1.best_objective"), with.objective);
  EXPECT_EQ(registry.timer_stats("stage1.solve").count, 1u);
  EXPECT_GT(registry.counter_value("stage1.sweep_rounds"), 0u);
  // One best-objective point per sweep round.
  EXPECT_EQ(registry.series_values("stage1.best_objective_by_round").size(),
            registry.counter_value("stage1.sweep_rounds"));
}

TEST(Stage1, IterationCapReportsResourceExhausted) {
  // With a 1-iteration LP cap every sweep solve hits IterLimit; the result
  // must say "resources ran out", not masquerade as thermal infeasibility.
  const auto scenario = test::make_small_scenario(42, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options capped;
  capped.lp.max_iterations = 1;
  const Stage1Result result = solver.solve(capped);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.status.code(), util::StatusCode::kResourceExhausted);
}

TEST(Stage1, OptionsOutOfRangeAreInvalidArguments) {
  const auto scenario = test::make_small_scenario(44, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  // The setpoint range and grid are the shared sweep settings.
  static_assert(std::is_base_of_v<CracSweepOptions, Stage1Options>);
  EXPECT_TRUE(Stage1Options{}.validate().ok());

  std::vector<Stage1Options> bad(8);
  bad[0].psi = 0.0;
  bad[1].psi = 100.5;
  bad[2].tcrac_min_c = 26.0;  // above tcrac_max_c
  bad[3].tcrac_max_c = std::numeric_limits<double>::infinity();
  bad[4].full_grid = true;  // used to abort in linspace
  bad[4].grid.coarse_samples = 0;
  bad[5].grid.refine_samples = 0;
  bad[6].grid.min_resolution = 0.0;
  // Far beyond the cap: rejected before any pool exists, so no thread is
  // ever started for it.
  bad[7].threads = std::size_t{1} << 40;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    util::telemetry::Registry registry;
    bad[i].telemetry = &registry;
    EXPECT_EQ(bad[i].validate().code(), util::StatusCode::kInvalidArgument);
    const Stage1Result result = solver.solve(bad[i]);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument)
        << result.status.to_string();
    EXPECT_EQ(result.lp_solves, 0u);
    EXPECT_EQ(registry.counter_value("stage1.solves"), 0u);  // no work began
  }
  Stage1Options at_cap;
  at_cap.threads = CracSweepOptions::kMaxThreads;
  EXPECT_TRUE(at_cap.validate().ok());
}

TEST(Stage1, EngineAndThreadCountDoNotChangeThePlan) {
  // The published plan must be bit-identical across LP engines and sweep
  // thread counts: the sweep only *selects* a setpoint, and the final
  // re-solve always runs the Dense oracle cold.
  const auto scenario = test::make_small_scenario(43, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  const Stage1Result reference = solver.solve();
  ASSERT_TRUE(reference.feasible);

  std::vector<Stage1Options> variants(3);
  variants[0].lp.engine = solver::LpEngine::Dense;
  variants[1].threads = 1;
  variants[2].threads = 4;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Stage1Result got = solver.solve(variants[i]);
    ASSERT_TRUE(got.feasible) << "variant " << i;
    EXPECT_EQ(got.objective, reference.objective) << "variant " << i;
    EXPECT_EQ(got.crac_out_c, reference.crac_out_c) << "variant " << i;
    EXPECT_EQ(got.node_core_power_kw, reference.node_core_power_kw)
        << "variant " << i;
    EXPECT_EQ(got.compute_power_kw, reference.compute_power_kw) << "variant " << i;
  }
}

TEST(Stage1, SessionSweepIsBitIdenticalAcrossThreadCounts) {
  // The revised engine runs each warm chain on one persistent LP session.
  // Chains are a pure function of the point sequence, so the published plan
  // must stay bit-identical for any worker count, on either engine, and
  // match the dense sweep that builds one LP per point.
  const auto scenario = test::make_small_scenario(45, 12, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  Stage1Options per_point;
  per_point.lp.engine = solver::LpEngine::Dense;
  const Stage1Result reference = solver.solve(per_point);
  ASSERT_TRUE(reference.feasible);

  // The session sweep also skips points that a dual bound rules out; the
  // skipped set is the same for every worker count, and the dense oracle
  // skips nothing.
  for (const solver::LpEngine engine :
       {solver::LpEngine::Revised, solver::LpEngine::Dense}) {
    std::optional<std::uint64_t> prunes;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const bool dense = engine == solver::LpEngine::Dense;
      SCOPED_TRACE(testing::Message()
                   << "dense=" << dense << " threads=" << threads);
      util::telemetry::Registry registry;
      Stage1Options options;
      options.lp.engine = engine;
      options.threads = threads;
      options.telemetry = &registry;
      const Stage1Result got = solver.solve(options);
      ASSERT_TRUE(got.feasible);
      EXPECT_EQ(got.objective, reference.objective);
      EXPECT_EQ(got.crac_out_c, reference.crac_out_c);
      EXPECT_EQ(got.node_core_power_kw, reference.node_core_power_kw);
      EXPECT_EQ(got.compute_power_kw, reference.compute_power_kw);
      EXPECT_EQ(got.crac_power_kw, reference.crac_power_kw);
      const std::uint64_t pruned =
          registry.counter_value("stage1.bound_prunes");
      EXPECT_EQ(got.lp_solves + pruned, reference.lp_solves);
      EXPECT_EQ(registry.counter_value("stage1.lp_solves") + pruned,
                registry.counter_value("stage1.grid_evaluations"));
      if (dense) {
        EXPECT_EQ(pruned, 0u);
      }
      if (!prunes) prunes = pruned;
      EXPECT_EQ(pruned, *prunes);
    }
  }
}

TEST(Stage1, PricingRuleDoesNotChangeThePlan) {
  // The revised engine prices with partial Devex, the dense oracle with
  // Dantzig. Pricing only reorders the sweep's pivots; selection is by
  // objective and the final re-solve at the winner runs the Dense oracle
  // cold, so the published plan must match the dense sweep's bit for bit at
  // every worker count.
  const auto scenario = test::make_small_scenario(46, 11, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  Stage1Options dense;
  dense.lp.engine = solver::LpEngine::Dense;
  const Stage1Result reference = solver.solve(dense);
  ASSERT_TRUE(reference.feasible);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Stage1Options options;
    options.threads = threads;
    const Stage1Result got = solver.solve(options);
    ASSERT_TRUE(got.feasible);
    EXPECT_EQ(got.objective, reference.objective);
    EXPECT_EQ(got.crac_out_c, reference.crac_out_c);
    EXPECT_EQ(got.node_core_power_kw, reference.node_core_power_kw);
    EXPECT_EQ(got.compute_power_kw, reference.compute_power_kw);
    EXPECT_EQ(got.crac_power_kw, reference.crac_power_kw);
  }
}

TEST(Stage1, WarmSeedDoesNotChangeThePlan) {
  const auto scenario = test::make_small_scenario(44, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);

  const Stage1Result cold = solver.solve();
  ASSERT_TRUE(cold.feasible);
  ASSERT_FALSE(cold.basis.empty());

  Stage1Options seeded;
  seeded.warm_seed = &cold.basis;
  const Stage1Result warm = solver.solve(seeded);
  ASSERT_TRUE(warm.feasible);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.crac_out_c, cold.crac_out_c);
  EXPECT_EQ(warm.node_core_power_kw, cold.node_core_power_kw);
}

TEST(Stage1, PsiChangesSelection) {
  const auto scenario = test::make_small_scenario(40, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const Stage1Solver solver(scenario.dc, model);
  Stage1Options p25;
  p25.psi = 25.0;
  Stage1Options p50;
  p50.psi = 50.0;
  const auto a = solver.solve(p25);
  const auto b = solver.solve(p50);
  ASSERT_TRUE(a.feasible && b.feasible);
  // The relaxed objectives are averages over different task-type subsets:
  // psi=25 uses only the most efficient types, so its relaxed bound is at
  // least as high.
  EXPECT_GE(a.objective, b.objective - 1e-6);
}

}  // namespace
}  // namespace tapo::core
