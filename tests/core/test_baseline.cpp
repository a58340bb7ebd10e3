#include "core/baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/baseline_lp.h"
#include "core/stage1_lp.h"
#include "core/thermal_rows.h"
#include "testutil.h"
#include "util/telemetry.h"

namespace tapo::core {
namespace {

bool same_entries(const solver::Matrix& a, const solver::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

TEST(Baseline, ProducesVerifiedAssignment) {
  const auto scenario = test::make_small_scenario(91, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  EXPECT_GT(a.reward_rate, 0.0);
  const AssignmentCheck check = verify_assignment(scenario.dc, model, a);
  EXPECT_TRUE(check.power_ok);
  EXPECT_TRUE(check.thermal_ok);
  EXPECT_TRUE(check.rates_ok);
}

TEST(Baseline, OnlyUsesP0OrOff) {
  const auto scenario = test::make_small_scenario(92, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  for (std::size_t k = 0; k < scenario.dc.total_cores(); ++k) {
    const auto& spec = scenario.dc.node_types[scenario.dc.core_type(k)];
    EXPECT_TRUE(a.core_pstate[k] == 0 || a.core_pstate[k] == spec.off_state());
  }
}

TEST(Baseline, RoundingProducesIntegerCoreCounts) {
  const auto scenario = test::make_small_scenario(93, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  // By construction the on-cores are a prefix of each node's core range; the
  // realized per-node utilization sum equals the on-core count.
  for (std::size_t j = 0; j < scenario.dc.num_nodes(); ++j) {
    const auto& spec = scenario.dc.node_type(j);
    std::size_t on = 0;
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      if (a.core_pstate[scenario.dc.core_offset(j) + c] == 0) ++on;
    }
    double used = 0.0;
    for (std::size_t i = 0; i < scenario.dc.num_task_types(); ++i) {
      for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
        const std::size_t core = scenario.dc.core_offset(j) + c;
        if (a.tc(i, core) > 0.0) {
          used += a.tc(i, core) *
                  scenario.dc.ecs.etc_seconds(i, scenario.dc.nodes[j].type, 0);
        }
      }
    }
    EXPECT_LE(used, static_cast<double>(on) + 1e-6);
  }
}

TEST(Baseline, RoundingOnlyReducesObjective) {
  const auto scenario = test::make_small_scenario(94, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  const Assignment a = assigner.assign();
  ASSERT_TRUE(a.feasible);
  EXPECT_LE(a.reward_rate, a.stage1_objective + 1e-9);
  // Rounding discards less than one core's worth of work per node; the loss
  // should be a modest fraction on a multi-node system.
  EXPECT_GT(a.reward_rate, 0.5 * a.stage1_objective);
}

TEST(Baseline, InfeasibleBudgetReported) {
  auto scenario = test::make_small_scenario(95, 6, 1);
  scenario.dc.p_const_kw = scenario.dc.total_base_power_kw() * 0.3;
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  EXPECT_FALSE(assigner.assign().feasible);
}

TEST(Baseline, SolveAtRespectsArrivalRates) {
  const auto scenario = test::make_small_scenario(96, 8, 2);
  const auto& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  const BaselineAssigner assigner(dc, model);
  const auto outcome = assigner.solve_at(
      std::vector<double>(dc.num_cracs(), 16.0));
  ASSERT_TRUE(outcome.feasible);
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    double rate = 0.0;
    for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
      rate += outcome.frac(i, j) * dc.node_type(j).cores_per_node() *
              dc.ecs.ecs(i, dc.nodes[j].type, 0);
    }
    EXPECT_LE(rate, dc.task_types[i].arrival_rate + 1e-6);
  }
}

TEST(Baseline, SolveAtRespectsFractionBudget) {
  const auto scenario = test::make_small_scenario(97, 8, 2);
  const auto& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  const BaselineAssigner assigner(dc, model);
  const auto outcome =
      assigner.solve_at(std::vector<double>(dc.num_cracs(), 16.0));
  ASSERT_TRUE(outcome.feasible);
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      EXPECT_GE(outcome.frac(i, j), -1e-9);
      sum += outcome.frac(i, j);
    }
    EXPECT_LE(sum, 1.0 + 1e-7);
  }
}

TEST(Baseline, ThreeStageBeatsOrMatchesBaselineOnAverage) {
  // The paper's central claim, at test scale: averaged over a few scenarios
  // the three-stage technique should not lose to the baseline.
  double total_three = 0.0, total_base = 0.0;
  int feasible_runs = 0;
  for (std::uint64_t seed : {101, 102, 103, 104}) {
    const auto scenario = test::make_small_scenario(seed, 10, 2);
    const thermal::HeatFlowModel model(scenario.dc);
    ThreeStageOptions o25, o50;
    o25.stage1.psi = 25.0;
    o50.stage1.psi = 50.0;
    const ThreeStageAssigner three(scenario.dc, model);
    const Assignment best =
        best_of({three.assign(o25), three.assign(o50)});
    const BaselineAssigner base(scenario.dc, model);
    const Assignment b = base.assign();
    if (!best.feasible || !b.feasible) continue;
    ++feasible_runs;
    total_three += best.reward_rate;
    total_base += b.reward_rate;
  }
  ASSERT_GE(feasible_runs, 3);
  EXPECT_GE(total_three, 0.98 * total_base);
}

TEST(Baseline, SessionSweepMatchesPerPointSweep) {
  // The default sweep (revised engine, warm chains) solves the aggregated
  // resident LP of baseline_sweep_lp on one session per chain; the dense engine
  // solves solve_at's LP at every point. Both select the setpoints the
  // Dense re-solve publishes, so the plans must be bit-identical, for any
  // worker count.
  struct Park {
    std::uint64_t seed;
    std::size_t nodes;
    std::size_t cracs;
  };
  const std::vector<Park> parks = {{201, 10, 2}, {202, 12, 2}, {203, 16, 2},
                                   {204, 20, 3}, {205, 24, 2}, {206, 40, 2},
                                   {207, 40, 3}, {208, 150, 3}};
  for (const Park& park : parks) {
    SCOPED_TRACE(testing::Message() << "seed=" << park.seed
                                    << " nodes=" << park.nodes);
    const auto scenario = test::make_small_scenario(park.seed, park.nodes,
                                                    park.cracs);
    const thermal::HeatFlowModel model(scenario.dc);
    const BaselineAssigner assigner(scenario.dc, model);
    BaselineOptions per_point;
    per_point.lp.engine = solver::LpEngine::Dense;
    const Assignment reference = assigner.assign(per_point);
    ASSERT_TRUE(reference.feasible);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      util::telemetry::Registry registry;
      BaselineOptions options;
      options.grid.threads = threads;
      options.lp.telemetry = &registry;
      const Assignment got = assigner.assign(options);
      ASSERT_TRUE(got.feasible);
      EXPECT_EQ(got.crac_out_c, reference.crac_out_c);
      EXPECT_EQ(got.core_pstate, reference.core_pstate);
      EXPECT_TRUE(same_entries(got.tc, reference.tc));
      EXPECT_EQ(got.reward_rate, reference.reward_rate);
      EXPECT_EQ(got.stage1_objective, reference.stage1_objective);
      // The session sweep skips the points its dual bound rules out.
      EXPECT_EQ(got.lp_solves + registry.counter_value("baseline.bound_prunes"),
                reference.lp_solves);
    }
  }
}

// Walks one resident session of `family` along `path` and checks every stop
// against `cold`, a cold Dense per-point solve: same feasibility, same
// optimum. Returns the number of feasible stops.
template <class Outcome, class Cold>
std::size_t expect_walk_matches(const dc::DataCenter& dc,
                                const thermal::HeatFlowModel& model,
                                const CracSweepLp<Outcome>& family,
                                const Cold& cold,
                                const std::vector<std::vector<double>>& path) {
  SweepSession session(dc, model, family.resident, path.front(), {});
  std::size_t feasible = 0;
  for (std::size_t k = 0; k < path.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "stop " << k);
    if (k > 0) session.move_to(path[k]);
    const Outcome got = family.outcome(session.solve());
    const auto want = cold(path[k]);
    EXPECT_EQ(got.feasible, want.feasible);
    if (!want.feasible || !got.feasible) continue;
    ++feasible;
    EXPECT_NEAR(got.objective, want.objective,
                1e-9 * std::max(1.0, std::abs(want.objective)));
  }
  EXPECT_GT(session.stats().resident_resumes, 0u);
  return feasible;
}

TEST(Baseline, EvaluatorMatchesSolveAtAlongAPath) {
  // Resident sessions walked across setpoints — feasible and infeasible
  // ones — must agree with a cold Dense per-point solve at every stop: the
  // baseline's against solve_at, Stage 1's in both modes against
  // solve_stage1_lp. Each pair writes its thermal rows in the two forms of
  // core/thermal_rows.h (resident and per-point), so this checks the forms
  // against each other, on a healthy park and on a degraded one (a failed
  // node and a derated CRAC).
  struct Park {
    std::uint64_t seed;
    std::size_t nodes, cracs;
    bool degraded;
  };
  for (const Park& park : {Park{211, 20, 2, false}, Park{212, 24, 3, true}}) {
    SCOPED_TRACE(testing::Message() << "seed=" << park.seed);
    auto scenario = test::make_small_scenario(park.seed, park.nodes, park.cracs);
    dc::DataCenter& dc = scenario.dc;
    dc.p_const_kw *= 0.8;
    if (park.degraded) {
      dc.set_node_failed(5, true);
      dc.set_crac_min_outlet(1, 19.0);
    }
    const thermal::HeatFlowModel model(dc);
    const BaselineAssigner assigner(dc, model);
    solver::LpOptions dense;
    dense.engine = solver::LpEngine::Dense;
    // Stops (a, b) set the even CRACs to a and the odd ones to b.
    std::vector<std::vector<double>> path;
    for (const auto& [a, b] : std::vector<std::pair<double, double>>{
             {16.0, 16.0}, {18.0, 16.5}, {25.0, 25.0}, {10.0, 10.0},
             {12.5, 21.0}, {22.0, 11.0}, {16.0, 16.0}, {19.5, 19.5}}) {
      std::vector<double> stop(dc.num_cracs());
      for (std::size_t c = 0; c < stop.size(); ++c) stop[c] = c % 2 ? b : a;
      path.push_back(std::move(stop));
    }

    SCOPED_TRACE("baseline");
    EXPECT_GE(expect_walk_matches(
                  dc, model, baseline_sweep_lp(dc, model),
                  [&](const std::vector<double>& at) {
                    return assigner.solve_at(at, dense);
                  },
                  path),
              4u);

    const double psi = 50.0;
    const double relaxed =
        Stage1Solver(dc, model)
            .solve_at(std::vector<double>(dc.num_cracs(), 17.5), psi)
            .objective;
    ASSERT_GT(relaxed, 0.0);
    for (const Stage1Mode mode :
         {Stage1Mode::MaximizeReward, Stage1Mode::MinimizePower}) {
      SCOPED_TRACE(testing::Message()
                   << "stage1 min_power="
                   << (mode == Stage1Mode::MinimizePower));
      const double floor =
          mode == Stage1Mode::MinimizePower ? 0.5 * relaxed : 0.0;
      EXPECT_GE(expect_walk_matches(
                    dc, model, stage1_sweep_lp(dc, model, mode, psi, floor),
                    [&](const std::vector<double>& at) {
                      return solve_stage1_lp(dc, model, mode, psi, floor, at,
                                             dense);
                    },
                    path),
                4u);
    }
  }
}

TEST(Baseline, BaseLoadRedlineBreachIsInfeasible) {
  // Inlet redlines below the coldest supply air: base load alone breaks
  // them at every setpoint. Both sweeps must say Infeasible (not a
  // resource failure), and so must a session whose redline rows carry
  // no adjustable column (every fraction pinned by an impossible deadline).
  auto scenario = test::make_small_scenario(221, 10, 2);
  scenario.dc.redline_node_c = 5.0;
  scenario.dc.redline_crac_c = 5.0;
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  for (const solver::LpEngine engine :
       {solver::LpEngine::Dense, solver::LpEngine::Revised}) {
    BaselineOptions options;
    options.lp.engine = engine;
    const Assignment a = assigner.assign(options);
    EXPECT_FALSE(a.feasible);
    EXPECT_EQ(a.status.code(), util::StatusCode::kInfeasible);
  }

  for (auto& type : scenario.dc.task_types) type.relative_deadline = 1e-12;
  const std::vector<double> setpoints(scenario.dc.num_cracs(), 15.0);
  EXPECT_FALSE(assigner.solve_at(setpoints).feasible);
  const auto family = baseline_sweep_lp(scenario.dc, model);
  SweepSession session(scenario.dc, model, family.resident, setpoints, {});
  const BaselineAssigner::LpOutcome outcome = family.outcome(session.solve());
  EXPECT_FALSE(outcome.feasible);
  EXPECT_EQ(outcome.status, solver::LpStatus::Infeasible);
}

TEST(Baseline, IterationCapReportsResourceExhausted) {
  const auto scenario = test::make_small_scenario(231, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  for (const solver::LpEngine engine :
       {solver::LpEngine::Dense, solver::LpEngine::Revised}) {
    BaselineOptions capped;
    capped.lp.engine = engine;
    capped.lp.max_iterations = 1;
    const Assignment a = assigner.assign(capped);
    EXPECT_FALSE(a.feasible);
    EXPECT_EQ(a.status.code(), util::StatusCode::kResourceExhausted);
  }
}

TEST(Baseline, DegradedParkYieldsVerifiedPlan) {
  // Failed nodes get no fractions and no base power; a derated CRAC is
  // never set below its raised minimum outlet.
  auto scenario = test::make_small_scenario(241, 30, 3);
  dc::DataCenter& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  for (std::size_t j = 0; j < dc.num_nodes(); j += 10) {
    dc.set_node_failed(j, true);
  }
  dc.set_crac_min_outlet(1, 19.0);
  const BaselineAssigner assigner(dc, model);
  for (const solver::LpEngine engine :
       {solver::LpEngine::Dense, solver::LpEngine::Revised}) {
    SCOPED_TRACE(testing::Message()
                 << "dense=" << (engine == solver::LpEngine::Dense));
    BaselineOptions options;
    options.lp.engine = engine;
    const Assignment a = assigner.assign(options);
    ASSERT_TRUE(a.feasible) << a.status.to_string();
    const AssignmentCheck check = verify_assignment(dc, model, a);
    EXPECT_TRUE(check.ok()) << "power=" << check.power_ok
                            << " thermal=" << check.thermal_ok
                            << " rates=" << check.rates_ok;
    for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
      if (!dc.node_failed(j)) continue;
      for (std::size_t c = 0; c < dc.node_type(j).cores_per_node(); ++c) {
        const std::size_t k = dc.core_offset(j) + c;
        EXPECT_EQ(a.core_pstate[k], dc.node_type(j).off_state());
        for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
          EXPECT_EQ(a.tc(i, k), 0.0);
        }
      }
    }
    for (std::size_t c = 0; c < dc.num_cracs(); ++c) {
      EXPECT_GE(a.crac_out_c[c], dc.crac_min_outlet(c, 10.0));
    }
  }
}

TEST(Baseline, TelemetryCountsTheSweep) {
  const auto scenario = test::make_small_scenario(251, 10, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  util::telemetry::Registry registry;
  BaselineOptions options;
  options.lp.telemetry = &registry;
  const Assignment traced = assigner.assign(options);
  ASSERT_TRUE(traced.feasible);
  EXPECT_EQ(registry.counter_value("baseline.lp_solves"), traced.lp_solves);
  EXPECT_GT(registry.counter_value("baseline.sweep_rounds"), 0u);
  // Every sweep point is one timed session solve: the next round is seeded
  // from the incumbent's own solve, never re-solved, and the serial sweep
  // speculates nothing. The sweep standardizes its LP once and copies it.
  const std::uint64_t timed = registry.timer_stats("baseline.lp").count;
  EXPECT_EQ(timed, traced.lp_solves);
  EXPECT_EQ(registry.counter_value("baseline.speculative_discards"), 0u);
  EXPECT_EQ(registry.counter_value("lp.session.solves"), timed);
  EXPECT_EQ(registry.timer_stats("lp.session.build").count, 1u);
  const Assignment plain = assigner.assign();
  EXPECT_EQ(plain.crac_out_c, traced.crac_out_c);
  EXPECT_EQ(plain.reward_rate, traced.reward_rate);
}

TEST(Baseline, OptionsOutOfRangeAreInvalidArguments) {
  const auto scenario = test::make_small_scenario(252, 8, 2);
  const thermal::HeatFlowModel model(scenario.dc);
  const BaselineAssigner assigner(scenario.dc, model);
  // The setpoint range, grid and its threads are the shared sweep settings.
  static_assert(std::is_base_of_v<CracSweepOptions, BaselineOptions>);
  EXPECT_TRUE(BaselineOptions{}.validate().ok());

  std::vector<BaselineOptions> bad(5);
  bad[0].full_grid = true;  // used to abort in linspace
  bad[0].grid.coarse_samples = 0;
  bad[1].tcrac_min_c = 26.0;  // above tcrac_max_c
  bad[2].tcrac_min_c = std::numeric_limits<double>::quiet_NaN();
  bad[3].grid.min_resolution = -1.0;
  // Far beyond the cap: rejected before any pool exists, so no thread is
  // ever started for it.
  bad[4].grid.threads = std::size_t{1} << 40;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    util::telemetry::Registry registry;
    bad[i].lp.telemetry = &registry;
    EXPECT_EQ(bad[i].validate().code(), util::StatusCode::kInvalidArgument);
    const Assignment a = assigner.assign(bad[i]);
    EXPECT_FALSE(a.feasible);
    EXPECT_EQ(a.status.code(), util::StatusCode::kInvalidArgument)
        << a.status.to_string();
    EXPECT_EQ(a.lp_solves, 0u);
    EXPECT_EQ(registry.counter_value("lp.solves"), 0u);  // no work began
  }
  BaselineOptions at_cap;
  at_cap.grid.threads = CracSweepOptions::kMaxThreads;
  EXPECT_TRUE(at_cap.validate().ok());
}

}  // namespace
}  // namespace tapo::core
