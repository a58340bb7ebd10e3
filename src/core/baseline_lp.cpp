#include "core/baseline_lp.h"

#include <utility>

#include "util/check.h"

namespace tapo::core {

namespace {
constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);
}  // namespace

bool baseline_frac_allowed(const dc::DataCenter& dc, std::size_t i,
                           std::size_t j) {
  return !dc.node_failed(j) &&
         dc.ecs.can_meet_deadline(i, dc.nodes[j].type, 0,
                                  dc.task_types[i].relative_deadline);
}

BaselineLpEvaluator::BaselineLpEvaluator(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model,
                                         const std::vector<double>& crac_out0,
                                         const solver::LpOptions& lp_options)
    : dc_(dc), thermal_rows_(dc, model) {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  const std::size_t t = dc_.num_task_types();
  TAPO_CHECK(crac_out0.size() == nc);

  solver::LpProblem lp;
  // FRAC columns in solve_at's order and with its coefficients.
  frac_var_.assign(t, std::vector<std::size_t>(nn, kNoVar));
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (!baseline_frac_allowed(dc_, i, j)) continue;
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      frac_var_[i][j] = lp.add_variable(
          0.0, 1.0,
          dc_.task_types[i].reward * dc_.ecs.ecs(i, dc_.nodes[j].type, 0) *
              cores);
    }
  }
  // Node power columns p_j in [0, ppf_j], for nodes with any fraction.
  std::vector<double> power_per_frac(nn, 0.0);
  std::vector<std::vector<std::size_t>> power_cols(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    bool any = false;
    for (std::size_t i = 0; i < t; ++i) any = any || frac_var_[i][j] != kNoVar;
    if (!any) continue;
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    power_per_frac[j] =
        spec.core_power_kw(0) * static_cast<double>(spec.cores_per_node());
    power_cols[j].push_back(lp.add_variable(0.0, power_per_frac[j], 0.0));
  }
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }

  // Arrival rates: sum_j |cores_j| ECS(i,j,0) FRAC(i,j) <= lambda_i.
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var_[i][j] == kNoVar) continue;
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      terms.emplace_back(frac_var_[i][j],
                         cores * dc_.ecs.ecs(i, dc_.nodes[j].type, 0));
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc_.task_types[i].arrival_rate);
    }
  }
  // Tie rows: sum_i ppf_j FRAC(i,j) - p_j <= 0.
  for (std::size_t j = 0; j < nn; ++j) {
    if (power_cols[j].empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (frac_var_[i][j] != kNoVar) {
        terms.emplace_back(frac_var_[i][j], power_per_frac[j]);
      }
    }
    terms.emplace_back(power_cols[j].front(), -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, 0.0);
  }
  thermal_rows_.append(lp, power_cols, crac_power_vars, crac_out0,
                       /*with_budget_row=*/true);

  session_.emplace(lp, lp_options);
}

void BaselineLpEvaluator::move_to(const std::vector<double>& crac_out) {
  thermal_rows_.move_to(*session_, crac_out);
}

BaselineAssigner::LpOutcome BaselineLpEvaluator::solve(
    const solver::LpBasis* seed) {
  const solver::LpSolution sol = session_->solve(seed);
  BaselineAssigner::LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;
  out.feasible = true;
  out.basis = sol.basis;
  out.duals = sol.duals;
  out.objective = sol.objective;
  const std::size_t t = dc_.num_task_types();
  const std::size_t nn = dc_.num_nodes();
  out.frac = solver::Matrix(t, nn);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var_[i][j] != kNoVar) out.frac(i, j) = sol.x[frac_var_[i][j]];
    }
  }
  return out;
}

}  // namespace tapo::core
