#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "core/baseline.h"
#include "core/baseline_lp.h"
#include "core/powermin.h"
#include "core/stage1.h"
#include "core/stage1_lp.h"
#include "core/thermal_rows.h"
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
    const PowerMinResult min_power = minimize_power_for_reward(
        scenario.dc, model, 0.5 * relaxed.objective, powermin);
    ASSERT_TRUE(min_power.feasible) << min_power.status.to_string();
    EXPECT_EQ(min_power.attempts, 1u);  // one attempt, one sweep
    EXPECT_GT(hooks[1], 0u);
    EXPECT_EQ(hooks[1], powermin_reg.counter_value("powermin.sweep_rounds"));
    if (full_grid) {
      EXPECT_EQ(powermin_reg.counter_value("powermin.lp_solves") +
                    powermin_reg.counter_value("powermin.bound_prunes"),
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
      EXPECT_EQ(baseline_reg.counter_value("baseline.lp_solves") +
                    baseline_reg.counter_value("baseline.bound_prunes"),
                stage1_reg.counter_value("stage1.grid_evaluations"));
    }
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_outcome(const Stage1Solver::LpOutcome& a,
                         const Stage1Solver::LpOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_bits(a.objective, b.objective));
  ASSERT_EQ(a.node_core_power_kw.size(), b.node_core_power_kw.size());
  for (std::size_t j = 0; j < a.node_core_power_kw.size(); ++j) {
    EXPECT_TRUE(same_bits(a.node_core_power_kw[j], b.node_core_power_kw[j]))
        << "node " << j;
  }
  EXPECT_TRUE(same_bits(a.compute_power_kw, b.compute_power_kw));
  EXPECT_TRUE(same_bits(a.crac_power_kw, b.crac_power_kw));
  EXPECT_EQ(a.basis.status, b.basis.status);
}

void expect_same_outcome(const BaselineAssigner::LpOutcome& a,
                         const BaselineAssigner::LpOutcome& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_TRUE(same_bits(a.objective, b.objective));
  ASSERT_EQ(a.frac.rows(), b.frac.rows());
  ASSERT_EQ(a.frac.cols(), b.frac.cols());
  for (std::size_t i = 0; i < a.frac.rows(); ++i) {
    for (std::size_t j = 0; j < a.frac.cols(); ++j) {
      EXPECT_TRUE(same_bits(a.frac(i, j), b.frac(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(a.basis.status, b.basis.status);
}

// The sweep builds one session per sweep and copies it at every chain head.
// A never-solved session built at P0, copied and moved to P must solve
// exactly as one built at P — cold and from a seed — and keep doing so
// along the chain.
template <class Outcome>
void expect_copies_solve_as_fresh(const dc::DataCenter& dc,
                                  const thermal::HeatFlowModel& model,
                                  const CracSweepLp<Outcome>& family) {
  const solver::LpOptions lp;
  const auto make = [&](const std::vector<double>& at) {
    return SweepSession(dc, model, family.resident, at, lp);
  };
  const auto& read = family.outcome;
  const std::vector<double> p0{12.0, 13.5, 12.5};
  const std::vector<double> p{17.5, 19.0, 18.0};
  const std::vector<double> q{18.5, 19.0, 17.0};  // seed source, chain next
  SweepSession seeder = make(q);
  const solver::LpBasis seed = read(seeder.solve()).basis;
  ASSERT_FALSE(seed.empty());
  const SweepSession prototype = make(p0);
  for (const solver::LpBasis* start : {static_cast<const solver::LpBasis*>(nullptr), &seed}) {
    SCOPED_TRACE(testing::Message() << "seeded=" << (start != nullptr));
    SweepSession copy(prototype);
    copy.move_to(p);
    SweepSession fresh = make(p);
    const Outcome got = read(copy.solve(start));
    ASSERT_TRUE(got.feasible);
    expect_same_outcome(got, read(fresh.solve(start)));
    copy.move_to(q);
    fresh.move_to(q);
    expect_same_outcome(read(copy.solve()), read(fresh.solve()));
  }
}

TEST(CracSweep, CopiedEvaluatorSolvesAsAFreshOne) {
  const auto scenario = test::make_small_scenario(302, 12, 3);
  const dc::DataCenter& dc = scenario.dc;
  const thermal::HeatFlowModel model(dc);
  const double psi = 50.0;
  const double relaxed =
      Stage1Solver(dc, model).solve_at({17.5, 19.0, 18.0}, psi).objective;
  ASSERT_GT(relaxed, 0.0);
  for (const Stage1Mode mode :
       {Stage1Mode::MaximizeReward, Stage1Mode::MinimizePower}) {
    SCOPED_TRACE(testing::Message()
                 << "min_power=" << (mode == Stage1Mode::MinimizePower));
    const double floor =
        mode == Stage1Mode::MinimizePower ? 0.5 * relaxed : 0.0;
    expect_copies_solve_as_fresh(
        dc, model, stage1_sweep_lp(dc, model, mode, psi, floor));
  }
  SCOPED_TRACE("baseline");
  expect_copies_solve_as_fresh(dc, model, baseline_sweep_lp(dc, model));
}

// Setpoint vectors for the dual-bound property: uniform values across the
// sweep range, a move down and up in every CRAC around the middle, and a
// uniform target above the node redline, which no plan can meet.
std::vector<std::vector<double>> bound_probe_points(const dc::DataCenter& dc) {
  const std::size_t nc = dc.num_cracs();
  std::vector<std::vector<double>> points;
  for (const double u : {11.0, 14.0, 17.5, 21.0, 24.0}) {
    points.emplace_back(nc, u);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    for (const double delta : {-3.0, 3.0}) {
      std::vector<double> point(nc, 17.5);
      point[c] += delta;
      points.push_back(std::move(point));
    }
  }
  points.emplace_back(nc, dc.redline_node_c + 5.0);
  return points;
}

// Weak duality: the bound from any solved point's duals is at least the
// dense oracle's cold optimum at every other point, and at the source
// itself it is the source's own optimum (strong duality).
template <class Outcome, class DenseValue>
void expect_bounds_hold(SweepSession session, const CracSweepLp<Outcome>& family,
                        const DenseValue& dense_value,
                        const std::vector<std::vector<double>>& points) {
  std::vector<std::optional<double>> value(points.size());
  std::size_t infeasible = 0;
  for (std::size_t t = 0; t < points.size(); ++t) {
    value[t] = dense_value(points[t]);
    infeasible += !value[t];
  }
  EXPECT_GT(infeasible, 0u);
  std::size_t checked = 0;
  for (std::size_t s = 0; s < points.size(); ++s) {
    session.move_to(points[s]);
    const Outcome solved = family.outcome(session.solve());
    ASSERT_EQ(solved.feasible, value[s].has_value()) << "source " << s;
    if (!solved.feasible) continue;
    const SweepSession::BoundSource source =
        session.bound_source(solved.duals);
    const double own = session.bound(source, points[s]);
    EXPECT_NEAR(own, solved.objective,
                1e-6 * std::max(1.0, std::abs(solved.objective)))
        << "source " << s;
    for (std::size_t t = 0; t < points.size(); ++t) {
      if (!value[t]) continue;
      EXPECT_LE(*value[t], session.bound(source, points[t]) +
                               1e-9 * std::max(1.0, std::abs(*value[t])))
          << "source " << s << " target " << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, points.size());
}

TEST(CracSweep, DualBoundNeverUndercutsTheDenseOptimum) {
  struct Park {
    std::uint64_t seed;
    std::size_t nodes, cracs;
  };
  for (const Park& park : {Park{311, 10, 2}, Park{312, 24, 3},
                           Park{313, 60, 6}, Park{314, 150, 3}}) {
    SCOPED_TRACE(testing::Message() << "seed=" << park.seed
                                    << " nodes=" << park.nodes);
    const auto scenario =
        test::make_small_scenario(park.seed, park.nodes, park.cracs);
    const dc::DataCenter& dc = scenario.dc;
    const thermal::HeatFlowModel model(dc);
    const std::vector<std::vector<double>> points = bound_probe_points(dc);
    solver::LpOptions dense;
    dense.engine = solver::LpEngine::Dense;
    const double psi = 50.0;
    const std::vector<double> mid(dc.num_cracs(), 17.5);
    const double relaxed = Stage1Solver(dc, model).solve_at(mid, psi).objective;
    ASSERT_GT(relaxed, 0.0);
    for (const Stage1Mode mode :
         {Stage1Mode::MaximizeReward, Stage1Mode::MinimizePower}) {
      SCOPED_TRACE(testing::Message()
                   << "min_power=" << (mode == Stage1Mode::MinimizePower));
      const double floor =
          mode == Stage1Mode::MinimizePower ? 0.5 * relaxed : 0.0;
      const auto family = stage1_sweep_lp(dc, model, mode, psi, floor);
      expect_bounds_hold(
          SweepSession(dc, model, family.resident, mid, {}), family,
          [&](const std::vector<double>& at) -> std::optional<double> {
            const auto out =
                solve_stage1_lp(dc, model, mode, psi, floor, at, dense);
            if (!out.feasible) return std::nullopt;
            return out.objective;
          },
          points);
    }
    SCOPED_TRACE("baseline");
    const BaselineAssigner baseline(dc, model);
    const auto family = baseline_sweep_lp(dc, model);
    expect_bounds_hold(
        SweepSession(dc, model, family.resident, mid, {}), family,
        [&](const std::vector<double>& at) -> std::optional<double> {
          const auto out = baseline.solve_at(at, dense);
          if (!out.feasible) return std::nullopt;
          return out.objective;
        },
        points);
  }
}

}  // namespace
}  // namespace tapo::core
