#include "core/stage1_lp.h"

#include <utility>

#include "core/reward.h"
#include "solver/piecewise.h"
#include "util/check.h"

namespace tapo::core {

Stage1LpEvaluator::Stage1LpEvaluator(const dc::DataCenter& dc,
                                     const thermal::HeatFlowModel& model,
                                     Mode mode, double psi, double reward_floor,
                                     const std::vector<double>& crac_out0,
                                     const solver::LpOptions& lp_options)
    : dc_(dc), mode_(mode), thermal_rows_(dc, model) {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out0.size() == nc);

  std::vector<solver::PiecewiseLinear> arr_by_type;
  arr_by_type.reserve(dc_.node_types.size());
  for (std::size_t t = 0; t < dc_.node_types.size(); ++t) {
    arr_by_type.push_back(concave_aggregate_reward_rate(dc_, t, psi)
                              .scale_copies(dc_.node_types[t].cores_per_node()));
  }

  solver::LpProblem lp;
  // Same variable layout as Stage1Solver::solve_at / solve_power_at, so an
  // LpBasis is exchangeable between this LP and the classic builders'.
  seg_vars_.assign(nn, {});
  std::vector<std::pair<std::size_t, double>> reward_terms;
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc_.node_failed(j)) continue;
    const auto& fn = arr_by_type[dc_.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      const double obj = mode_ == Mode::MaximizeReward ? slopes[s] : -1.0;
      const std::size_t v = lp.add_variable(0.0, len, obj);
      seg_vars_[j].push_back(v);
      if (mode_ == Mode::MinimizePower) reward_terms.emplace_back(v, slopes[s]);
    }
  }
  crac_power_vars_.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars_[c] = lp.add_variable(
        0.0, solver::kLpInfinity, mode_ == Mode::MaximizeReward ? 0.0 : -1.0);
  }

  if (mode_ == Mode::MinimizePower) {
    lp.add_constraint(std::move(reward_terms), solver::Relation::GreaterEq,
                      reward_floor);
  }
  // Redlines, k-scaled CRAC power rows and (MaximizeReward) the budget row
  // over the segment variables; see core/thermal_rows.h.
  thermal_rows_.append(lp, seg_vars_, crac_power_vars_, crac_out0,
                       mode_ == Mode::MaximizeReward);

  session_ = std::make_unique<solver::LpSession>(std::move(lp), lp_options);
}

void Stage1LpEvaluator::move_to(const std::vector<double>& crac_out) {
  thermal_rows_.move_to(*session_, crac_out);
}

void Stage1LpEvaluator::set_reward_floor(double floor) {
  TAPO_CHECK_MSG(mode_ == Mode::MinimizePower,
                 "reward floor exists only in MinimizePower mode");
  session_->patch_rhs(0, floor);
}

Stage1Solver::LpOutcome Stage1LpEvaluator::solve(const solver::LpBasis* seed) {
  const solver::LpSolution sol = session_->solve(seed);
  Stage1Solver::LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) {
    out.basis = sol.basis;  // certificate basis on a warm Infeasible
    return out;
  }
  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  const std::size_t nn = dc_.num_nodes();
  out.node_core_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : seg_vars_[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.compute_power_kw = dc_.total_base_power_kw();
  for (double p : out.node_core_power_kw) out.compute_power_kw += p;
  out.crac_power_kw = 0.0;
  for (std::size_t v : crac_power_vars_) out.crac_power_kw += sol.x[v];
  return out;
}

}  // namespace tapo::core
