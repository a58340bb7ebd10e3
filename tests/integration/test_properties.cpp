// Cross-module property tests: closed-form thermal solutions, solver stress,
// and invariant chains across the assignment techniques.
#include <gtest/gtest.h>

#include <cmath>

#include "core/baseline.h"
#include "core/exact.h"
#include "core/stage1.h"
#include "solver/lp.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace tapo {
namespace {

// ---- Closed-form thermal check: one node, one CRAC, equal flows. ----
//
// With proportional mixing and equal flows F the inlet weights are 1/2 CRAC
// + 1/2 node, giving analytically
//   Tin_node = tau + h P,  Tout_node = tau + 2 h P,  Tin_crac = tau + h P,
// where h = 1 / (rho Cp F). Heat removed = rho Cp F * (h P) = P exactly.
TEST(HeatFlowAnalytic, SingleNodeClosedForm) {
  dc::DataCenter dc;
  dc.node_types = dc::table1_node_types(0.3);
  dc.nodes = {{0}};
  dc.layout = dc::make_hot_cold_aisle_layout(1, 1);
  dc.cracs = {dc::CracSpec{0.07}};  // equal to the node flow
  dc.finalize();
  dc.alpha = test::proportional_alpha(dc);
  const thermal::HeatFlowModel model(dc);

  const double tau = 17.0, p = 0.61;
  const double h = 1.0 / (dc::kAirDensity * dc::kAirSpecificHeat * 0.07);
  const auto temps = model.solve({tau}, {p});
  EXPECT_NEAR(temps.node_in[0], tau + h * p, 1e-9);
  EXPECT_NEAR(temps.node_out[0], tau + 2.0 * h * p, 1e-9);
  EXPECT_NEAR(temps.crac_in[0], tau + h * p, 1e-9);
  EXPECT_NEAR(dc.cracs[0].heat_removed_kw(temps.crac_in[0], tau), p, 1e-9);
}

// Two identical nodes, one CRAC with the summed flow: by symmetry both nodes
// see the same inlet; the closed form generalizes with the same h per node.
TEST(HeatFlowAnalytic, TwoSymmetricNodes) {
  const auto dc = test::make_tiny_dc({0, 0}, 1);
  const thermal::HeatFlowModel model(dc);
  const auto temps = model.solve({15.0}, {0.4, 0.4});
  EXPECT_NEAR(temps.node_in[0], temps.node_in[1], 1e-9);
  EXPECT_NEAR(temps.node_out[0], temps.node_out[1], 1e-9);
  // Asymmetric power breaks the symmetry in the right direction.
  const auto skewed = model.solve({15.0}, {0.7, 0.1});
  EXPECT_GT(skewed.node_out[0], skewed.node_out[1]);
}

// ---- Simplex stress. ----

TEST(LpStress, LargerRandomInstancesStaySane) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    solver::LpProblem lp;
    const std::size_t n = 30, m = 20;
    for (std::size_t v = 0; v < n; ++v) {
      const double lo = rng.uniform(-1.0, 0.0);
      const double hi = lo + rng.uniform(0.5, 3.0);
      lp.add_variable(lo, hi, rng.uniform(-1.0, 1.0));
    }
    for (std::size_t r = 0; r < m; ++r) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.next_double() < 0.4) terms.emplace_back(v, rng.uniform(-1.0, 1.0));
      }
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        rng.uniform(0.0, 4.0));
    }
    const auto sol = solve_lp(lp);
    ASSERT_NE(sol.status, solver::LpStatus::IterLimit);
    if (sol.optimal()) {
      EXPECT_LT(lp.max_violation(sol.x), 1e-7);
      EXPECT_NEAR(lp.objective_value(sol.x), sol.objective, 1e-9);
    }
  }
}

TEST(LpStress, BadlyScaledCoefficients) {
  // max x + y with one row in units of 1e6 and one in 1e-6.
  solver::LpProblem lp;
  const auto x = lp.add_variable(0, solver::kLpInfinity, 1);
  const auto y = lp.add_variable(0, solver::kLpInfinity, 1);
  lp.add_constraint({{x, 1e6}, {y, 1e6}}, solver::Relation::LessEq, 3e6);
  lp.add_constraint({{x, 1e-6}, {y, 2e-6}}, solver::Relation::LessEq, 5e-6);
  const auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  // Binding: x + 2y <= 5 (scaled), x + y <= 3 -> optimum x=3,y=0 value 3?
  // check: x=3,y=0 satisfies both (3<=3, 3e-6<=5e-6 -> 3<=5 ok). obj=3.
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
}

TEST(LpStress, ManyBoundFlips) {
  // Objective favors upper bounds; single coupling row forces tradeoffs.
  solver::LpProblem lp;
  std::vector<std::pair<std::size_t, double>> terms;
  const std::size_t n = 60;
  for (std::size_t v = 0; v < n; ++v) {
    const auto var = lp.add_variable(0.0, 1.0, 1.0 + 0.01 * static_cast<double>(v));
    terms.emplace_back(var, 1.0);
  }
  lp.add_constraint(std::move(terms), solver::Relation::LessEq, 25.0);
  const auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  // Greedy: the 25 highest-coefficient variables at their upper bound.
  double expected = 0.0;
  for (std::size_t v = n - 25; v < n; ++v) expected += 1.0 + 0.01 * static_cast<double>(v);
  EXPECT_NEAR(sol.objective, expected, 1e-9);
}

// ---- Cross-technique invariant chains. ----

TEST(InvariantChain, RewardOrderingAcrossTechniques) {
  // arrival-value bound >= three-stage and baseline; both verified feasible.
  for (std::uint64_t seed : {501, 502}) {
    const auto scenario = test::make_small_scenario(seed, 10, 2);
    const thermal::HeatFlowModel model(scenario.dc);
    double arrival_value = 0.0;
    for (const auto& t : scenario.dc.task_types) {
      arrival_value += t.reward * t.arrival_rate;
    }
    const core::ThreeStageAssigner three(scenario.dc, model);
    const core::BaselineAssigner base(scenario.dc, model);
    const auto a = three.assign();
    const auto b = base.assign();
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_LE(a.reward_rate, arrival_value + 1e-6);
    EXPECT_LE(b.reward_rate, arrival_value + 1e-6);
    EXPECT_TRUE(core::verify_assignment(scenario.dc, model, a).ok());
    EXPECT_TRUE(core::verify_assignment(scenario.dc, model, b).ok());
  }
}

TEST(InvariantChain, RaisingRedlinesNeverHurts) {
  auto scenario = test::make_small_scenario(503, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const core::ThreeStageAssigner three(scenario.dc, model);
  const auto tight = three.assign();
  scenario.dc.redline_node_c += 2.0;
  const auto loose = three.assign();
  ASSERT_TRUE(tight.feasible && loose.feasible);
  EXPECT_GE(loose.reward_rate, tight.reward_rate - 1e-6);
}

TEST(InvariantChain, ColderRedlineEventuallyInfeasible) {
  auto scenario = test::make_small_scenario(504, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const core::ThreeStageAssigner three(scenario.dc, model);
  scenario.dc.redline_node_c = 5.0;  // below any achievable setpoint mix
  EXPECT_FALSE(three.assign().feasible);
}

TEST(InvariantChain, HeterogeneousCracsSupported) {
  // The paper assumes homogeneous CRACs; the model does not. Give the two
  // units different flows (total still balancing the node flows) and check
  // the pipeline works and can pick distinct setpoints.
  auto dc = test::make_tiny_dc({0, 0, 1, 1, 0, 1, 0, 0, 1, 0}, 2);
  const double total = dc.total_node_flow();
  dc.cracs[0].flow_m3s = 0.7 * total;
  dc.cracs[1].flow_m3s = 0.3 * total;
  dc.alpha = test::proportional_alpha(dc);
  // Borrow workload from a generated scenario of the same shape.
  const auto scenario = test::make_small_scenario(507, 10, 2);
  dc.ecs = scenario.dc.ecs;
  dc.task_types = scenario.dc.task_types;
  dc.p_const_kw = scenario.dc.p_const_kw;

  const thermal::HeatFlowModel model(dc);
  const core::ThreeStageAssigner three(dc, model);
  const auto a = three.assign();
  ASSERT_TRUE(a.feasible);
  EXPECT_TRUE(core::verify_assignment(dc, model, a).ok());
}

// ---- Stage-1 end-to-end properties (parallel setpoint sweep). ----

TEST(Stage1Properties, SolvedPointRespectsBudgetAndRedlines) {
  for (std::uint64_t seed : {601, 602, 603, 604}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto scenario = test::make_small_scenario(seed, 12, 2);
    const thermal::HeatFlowModel model(scenario.dc);
    const core::Stage1Solver solver(scenario.dc, model);
    const auto r = solver.solve();  // default options: parallel sweep
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.compute_power_kw + r.crac_power_kw,
              scenario.dc.p_const_kw + 1e-6);
    // Re-derive the steady state independently and check every redline.
    std::vector<double> node_power(scenario.dc.num_nodes());
    for (std::size_t j = 0; j < node_power.size(); ++j) {
      node_power[j] = r.node_core_power_kw[j] +
                      scenario.dc.node_type(j).base_power_kw();
    }
    const auto temps = model.solve(r.crac_out_c, node_power);
    EXPECT_TRUE(model.within_redlines(temps));
  }
}

TEST(Stage1Properties, ObjectiveMonotoneInPowerBudget) {
  // On a fixed candidate set (coarse full grid, no adaptive refinement) a
  // larger power budget can only relax each grid point's LP, so the Stage-1
  // objective must be monotone non-decreasing in Pconst, and feasibility,
  // once gained, must persist.
  auto scenario = test::make_small_scenario(605, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const core::Stage1Solver solver(scenario.dc, model);
  core::Stage1Options options;
  options.full_grid = true;
  options.grid.coarse_samples = 5;
  options.grid.refine_rounds = 0;
  const double pconst = scenario.dc.p_const_kw;
  bool was_feasible = false;
  double prev_objective = 0.0;
  for (double scale : {0.6, 0.8, 1.0, 1.2, 1.4}) {
    SCOPED_TRACE(testing::Message() << "scale=" << scale);
    scenario.dc.p_const_kw = pconst * scale;
    const auto r = solver.solve(options);
    if (was_feasible) {
      ASSERT_TRUE(r.feasible);
      EXPECT_GE(r.objective, prev_objective - 1e-9);
    }
    if (r.feasible) {
      was_feasible = true;
      prev_objective = r.objective;
    }
  }
  EXPECT_TRUE(was_feasible);  // at least the generated Pconst must work
}

TEST(Stage1Properties, ThreadCountDoesNotChangeTheResult) {
  // The 6-CRAC scenario has more coordinates than the smaller pools have
  // threads, so speculative coordinate passes are cut short and resubmitted;
  // its sweep also skips points that a dual bound rules out, the same ones
  // for every thread count.
  struct Case {
    std::uint64_t seed;
    std::size_t nodes, cracs;
  };
  for (const Case& c : {Case{606, 10, 2}, Case{607, 10, 2}, Case{608, 24, 6}}) {
    const std::uint64_t seed = c.seed;
    const auto scenario = test::make_small_scenario(seed, c.nodes, c.cracs);
    const thermal::HeatFlowModel model(scenario.dc);
    const core::Stage1Solver solver(scenario.dc, model);
    for (bool full_grid : {false, true}) {
      core::Stage1Options options;
      options.full_grid = full_grid;
      options.threads = 1;
      util::telemetry::Registry serial_registry;
      options.telemetry = &serial_registry;
      const auto serial = solver.solve(options);
      ASSERT_TRUE(serial.feasible);
      const std::uint64_t serial_prunes =
          serial_registry.counter_value("stage1.bound_prunes");
      if (c.cracs == 6) {
        EXPECT_GT(serial_prunes, 0u);
      }
      for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " full_grid="
                                        << full_grid << " threads=" << threads);
        options.threads = threads;
        util::telemetry::Registry registry;
        options.telemetry = &registry;
        const auto parallel = solver.solve(options);
        options.telemetry = nullptr;
        if (!full_grid && c.cracs == 6) {
          EXPECT_GT(registry.counter_value("stage1.speculative_discards"), 0u);
        }
        EXPECT_EQ(parallel.feasible, serial.feasible);
        EXPECT_EQ(parallel.crac_out_c, serial.crac_out_c);  // exact, bit-wise
        EXPECT_EQ(parallel.objective, serial.objective);
        EXPECT_EQ(parallel.node_core_power_kw, serial.node_core_power_kw);
        EXPECT_EQ(parallel.compute_power_kw, serial.compute_power_kw);
        EXPECT_EQ(parallel.crac_power_kw, serial.crac_power_kw);
        EXPECT_EQ(parallel.lp_solves, serial.lp_solves);
        EXPECT_EQ(registry.counter_value("stage1.bound_prunes"), serial_prunes);
      }
    }
  }
}

TEST(InvariantChain, RewardScalesWithUniformRewardScaling) {
  // Multiplying every task reward by c multiplies the optimal reward rate
  // by c (the feasible region is unchanged; only the objective scales).
  auto scenario = test::make_small_scenario(505, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const core::ThreeStageAssigner three(scenario.dc, model);
  const auto before = three.assign();
  for (auto& t : scenario.dc.task_types) t.reward *= 3.0;
  const auto after = three.assign();
  ASSERT_TRUE(before.feasible && after.feasible);
  EXPECT_NEAR(after.reward_rate, 3.0 * before.reward_rate,
              1e-6 * after.reward_rate);
}

}  // namespace
}  // namespace tapo
