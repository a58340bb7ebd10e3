#include "core/baseline_lp.h"

#include <utility>

#include "core/thermal_rows.h"

namespace tapo::core {

namespace {

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

// The FRAC columns of the Eq.-21 LP, shared by the per-point builder and the
// resident LP so both LPs start with the same columns and rows.
struct FracColumns {
  // var[i][j]; kNoVar where FRAC(i, j) is pinned to 0: node j has failed, or
  // its P-state-0 cores miss task type i's deadline.
  std::vector<std::vector<std::size_t>> var;
  std::vector<std::vector<std::size_t>> by_node;  // node j's columns, by i
  std::vector<double> ppf;  // pi_{j,0} |cores_j|, kW per unit sum_i FRAC(i,j)
};

// Adds FRAC(i, j) in [0, 1] for every allowed pair, i-major, priced at
// r_i ECS(i,j,0) |cores_j|, then the arrival-rate rows
//   sum_j |cores_j| ECS(i,j,0) FRAC(i,j) <= lambda_i
// for every task type with a column.
FracColumns add_frac_columns(solver::LpProblem& lp, const dc::DataCenter& dc) {
  const std::size_t nn = dc.num_nodes();
  const std::size_t t = dc.num_task_types();
  FracColumns frac;
  frac.var.assign(t, std::vector<std::size_t>(nn, kNoVar));
  frac.by_node.assign(nn, {});
  frac.ppf.resize(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc.node_type(j);
    frac.ppf[j] =
        spec.core_power_kw(0) * static_cast<double>(spec.cores_per_node());
  }
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (dc.node_failed(j) ||
          !dc.ecs.can_meet_deadline(i, dc.nodes[j].type, 0,
                                    dc.task_types[i].relative_deadline)) {
        continue;
      }
      const double cores = static_cast<double>(dc.node_type(j).cores_per_node());
      frac.var[i][j] = lp.add_variable(
          0.0, 1.0,
          dc.task_types[i].reward * dc.ecs.ecs(i, dc.nodes[j].type, 0) * cores);
      frac.by_node[j].push_back(frac.var[i][j]);
    }
  }
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac.var[i][j] == kNoVar) continue;
      const double cores = static_cast<double>(dc.node_type(j).cores_per_node());
      terms.emplace_back(frac.var[i][j],
                         cores * dc.ecs.ecs(i, dc.nodes[j].type, 0));
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc.task_types[i].arrival_rate);
    }
  }
  return frac;
}

// The outcome of one solve: objective, duals and fractions on Optimal.
BaselineAssigner::LpOutcome make_outcome(
    const dc::DataCenter& dc, const std::vector<std::vector<std::size_t>>& var,
    const solver::LpSolution& sol) {
  BaselineAssigner::LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;
  out.feasible = true;
  out.basis = sol.basis;
  out.duals = sol.duals;
  out.objective = sol.objective;
  out.frac = solver::Matrix(dc.num_task_types(), dc.num_nodes());
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
      if (var[i][j] != kNoVar) out.frac(i, j) = sol.x[var[i][j]];
    }
  }
  return out;
}

}  // namespace

BaselineAssigner::LpOutcome solve_baseline_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out, const solver::LpOptions& lp_options) {
  solver::LpProblem lp;
  const FracColumns frac = add_frac_columns(lp, dc);
  std::vector<std::size_t> crac_power_vars(dc.num_cracs());
  for (std::size_t& q : crac_power_vars) {
    q = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }
  // Node fraction budgets: sum_i FRAC(i,j) <= 1.
  for (const std::vector<std::size_t>& cols : frac.by_node) {
    if (cols.empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v : cols) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
  }
  // Redlines, CRAC power rows and the budget over node power
  // ppf_j sum_i FRAC(i,j), in the per-point form; see core/thermal_rows.h.
  std::vector<double> col_kw(lp.num_vars(), 0.0);
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    for (std::size_t v : frac.by_node[j]) col_kw[v] = frac.ppf[j];
  }
  if (!append_point_thermal_rows(lp, dc, model, frac.by_node, col_kw,
                                 base_loads_kw(dc), crac_power_vars, crac_out,
                                 /*with_budget_row=*/true)) {
    return {};
  }
  return make_outcome(dc, frac.var, solve_lp(lp, lp_options));
}

CracSweepLp<BaselineAssigner::LpOutcome> baseline_sweep_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model) {
  const std::size_t nn = dc.num_nodes();
  CracSweepLp<BaselineAssigner::LpOutcome> family;
  family.prefix = "baseline";
  family.solve_at = [&dc, &model](const std::vector<double>& crac_out,
                                  const solver::LpOptions& lp) {
    return solve_baseline_lp(dc, model, crac_out, lp);
  };
  SweepLp& resident = family.resident;
  FracColumns frac = add_frac_columns(resident.lp, dc);
  // Node power columns p_j in [0, ppf_j], for nodes with any fraction.
  resident.node_cols.assign(nn, {});
  for (std::size_t j = 0; j < nn; ++j) {
    if (frac.by_node[j].empty()) continue;
    resident.node_cols[j].push_back(
        resident.lp.add_variable(0.0, frac.ppf[j], 0.0));
  }
  resident.crac_power_vars.resize(dc.num_cracs());
  for (std::size_t& q : resident.crac_power_vars) {
    q = resident.lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }
  // Tie rows: sum_i ppf_j FRAC(i,j) - p_j <= 0.
  for (std::size_t j = 0; j < nn; ++j) {
    if (resident.node_cols[j].empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v : frac.by_node[j]) terms.emplace_back(v, frac.ppf[j]);
    terms.emplace_back(resident.node_cols[j].front(), -1.0);
    resident.lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                               0.0);
  }
  resident.budget_row = true;
  family.outcome = [&dc, var = std::move(frac.var)](
                       const solver::LpSolution& sol) {
    return make_outcome(dc, var, sol);
  };
  family.value = [](const BaselineAssigner::LpOutcome& outcome) {
    return outcome.objective;
  };
  return family;
}

}  // namespace tapo::core
