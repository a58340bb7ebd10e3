#include "core/stage1_lp.h"

#include <optional>
#include <utility>

#include "core/reward.h"
#include "core/thermal_rows.h"
#include "solver/piecewise.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

using Mode = Stage1Mode;
using Terms = std::vector<std::pair<std::size_t, double>>;

// The columns of the Stage-1 LP, shared by the per-point builder and the
// resident LP so an LpBasis is exchangeable between the two.
struct Columns {
  std::vector<std::vector<std::size_t>> seg_vars;  // per node
  std::vector<std::size_t> crac_power_vars;        // per CRAC
  Terms reward_terms;  // the reward-floor row (MinimizePower only)
};

// Segment variables per node; consecutive segments of a concave function
// have decreasing slopes, so a maximizing LP fills them in order and the
// sum of segment variables is exactly the node core power p_j. Failed nodes
// get no variables at all - their core power is pinned to zero and their
// base draw is excluded from every row via node_base_power_kw. Then one
// auxiliary variable per CRAC carrying its (clamped) power; it appears with
// +1 in the budget row (or the power objective), so the LP presses it down
// onto max(0, linear expression) - an exact encoding of Eq. 3's clamp.
// MaximizeReward prices segments at their slopes; MinimizePower prices
// every column at -1 (minimize power) and collects the reward terms.
Columns add_columns(solver::LpProblem& lp, const dc::DataCenter& dc,
                    Mode mode, double psi) {
  std::vector<solver::PiecewiseLinear> arr_by_type;
  arr_by_type.reserve(dc.node_types.size());
  for (std::size_t t = 0; t < dc.node_types.size(); ++t) {
    arr_by_type.push_back(concave_aggregate_reward_rate(dc, t, psi)
                              .scale_copies(dc.node_types[t].cores_per_node()));
  }
  Columns cols;
  cols.seg_vars.assign(dc.num_nodes(), {});
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    if (dc.node_failed(j)) continue;
    const auto& fn = arr_by_type[dc.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      const double obj = mode == Mode::MaximizeReward ? slopes[s] : -1.0;
      const std::size_t v = lp.add_variable(0.0, len, obj);
      cols.seg_vars[j].push_back(v);
      if (mode == Mode::MinimizePower) cols.reward_terms.emplace_back(v, slopes[s]);
    }
  }
  cols.crac_power_vars.resize(dc.num_cracs());
  for (std::size_t c = 0; c < dc.num_cracs(); ++c) {
    cols.crac_power_vars[c] = lp.add_variable(
        0.0, solver::kLpInfinity, mode == Mode::MaximizeReward ? 0.0 : -1.0);
  }
  return cols;
}

// The outcome of one solve: objective and powers on Optimal; otherwise
// the basis only (on a warm Infeasible, the dual-feasible certificate
// basis, which still warm-starts a neighbor).
Stage1Solver::LpOutcome make_outcome(
    const dc::DataCenter& dc,
    const std::vector<std::vector<std::size_t>>& seg_vars,
    const std::vector<std::size_t>& crac_power_vars,
    const solver::LpSolution& sol) {
  Stage1Solver::LpOutcome out;
  out.status = sol.status;
  out.basis = sol.basis;
  if (!sol.optimal()) return out;
  out.feasible = true;
  out.objective = sol.objective;
  out.duals = sol.duals;
  out.node_core_power_kw.assign(dc.num_nodes(), 0.0);
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    for (std::size_t v : seg_vars[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.compute_power_kw = dc.total_base_power_kw();
  for (double p : out.node_core_power_kw) out.compute_power_kw += p;
  out.crac_power_kw = 0.0;
  for (std::size_t v : crac_power_vars) out.crac_power_kw += sol.x[v];
  return out;
}

}  // namespace

Stage1Solver::LpOutcome solve_stage1_lp(const dc::DataCenter& dc,
                                        const thermal::HeatFlowModel& model,
                                        Mode mode, double psi,
                                        double reward_floor,
                                        const std::vector<double>& crac_out,
                                        const solver::LpOptions& lp_options) {
  // Phase accounting for docs/SOLVER.md §6: everything up to solve_lp is
  // per-point fixed cost that the resident session amortizes away.
  std::optional<util::telemetry::ScopedTimer> build_timer;
  if (lp_options.telemetry) build_timer.emplace(lp_options.telemetry, "lp.phase.build");

  solver::LpProblem lp;
  Columns cols = add_columns(lp, dc, mode, psi);
  if (mode == Mode::MinimizePower) {
    lp.add_constraint(std::move(cols.reward_terms), solver::Relation::GreaterEq,
                      reward_floor);
  }
  // Redlines, CRAC power rows and (MaximizeReward) the budget row over the
  // segment variables, in the per-point form; see core/thermal_rows.h.
  if (!append_point_thermal_rows(lp, dc, model, cols.seg_vars,
                                 std::vector<double>(lp.num_vars(), 1.0),
                                 base_loads_kw(dc), cols.crac_power_vars,
                                 crac_out, mode == Mode::MaximizeReward)) {
    return {};
  }

  build_timer.reset();
  return make_outcome(dc, cols.seg_vars, cols.crac_power_vars,
                      solve_lp(lp, lp_options));
}

CracSweepLp<Stage1Solver::LpOutcome> stage1_sweep_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model, Mode mode,
    double psi, double reward_floor) {
  CracSweepLp<Stage1Solver::LpOutcome> family;
  family.prefix = mode == Mode::MaximizeReward ? "stage1" : "powermin";
  family.solve_at = [&dc, &model, mode, psi, reward_floor](
                        const std::vector<double>& crac_out,
                        const solver::LpOptions& lp) {
    return solve_stage1_lp(dc, model, mode, psi, reward_floor, crac_out, lp);
  };
  Columns cols = add_columns(family.resident.lp, dc, mode, psi);
  if (mode == Mode::MinimizePower) {
    family.resident.lp.add_constraint(std::move(cols.reward_terms),
                                      solver::Relation::GreaterEq,
                                      reward_floor);
  }
  family.outcome = [&dc, seg_vars = cols.seg_vars,
                    crac_power_vars = cols.crac_power_vars](
                       const solver::LpSolution& sol) {
    return make_outcome(dc, seg_vars, crac_power_vars, sol);
  };
  // Redlines, k-scaled CRAC power rows and (MaximizeReward) the budget row
  // over the segment variables; see core/thermal_rows.h.
  family.resident.node_cols = std::move(cols.seg_vars);
  family.resident.crac_power_vars = std::move(cols.crac_power_vars);
  family.resident.budget_row = mode == Mode::MaximizeReward;
  if (mode == Mode::MaximizeReward) {
    family.value = [](const Stage1Solver::LpOutcome& o) { return o.objective; };
  } else {
    family.value = [](const Stage1Solver::LpOutcome& o) {
      return -(o.compute_power_kw + o.crac_power_kw);
    };
    family.value_offset = -dc.total_base_power_kw();
  }
  return family;
}

}  // namespace tapo::core
