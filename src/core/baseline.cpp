#include "core/baseline.h"

#include <cmath>
#include <memory>

#include "core/baseline_lp.h"
#include "core/crac_sweep.h"
#include "core/stage1.h"
#include "dc/crac.h"
#include "solver/lp.h"
#include "util/check.h"

namespace tapo::core {

util::Status BaselineOptions::validate() const {
  return validate_sweep_grid("baseline", tcrac_min_c, tcrac_max_c, grid,
                             grid.threads);
}

BaselineAssigner::BaselineAssigner(const dc::DataCenter& dc,
                                   const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out) const {
  return solve_at(crac_out, solver::LpOptions{});
}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out,
    const solver::LpOptions& lp_options) const {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  const std::size_t t = dc_.num_task_types();
  TAPO_CHECK(crac_out.size() == nc);

  const thermal::LinearResponse lr = model_.linearize(crac_out);

  solver::LpProblem lp;
  // frac_var[i][j]; SIZE_MAX marks deadline-infeasible (FRAC pinned to 0).
  std::vector<std::vector<std::size_t>> frac_var(t, std::vector<std::size_t>(nn));
  constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      const std::size_t type = dc_.nodes[j].type;
      if (!baseline_frac_allowed(dc_, i, j)) {
        frac_var[i][j] = kNoVar;
        continue;
      }
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      const double reward_coeff =
          dc_.task_types[i].reward * dc_.ecs.ecs(i, type, 0) * cores;
      frac_var[i][j] = lp.add_variable(0.0, 1.0, reward_coeff);
    }
  }
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }

  // Node compute power per unit of sum_i FRAC(i, j).
  std::vector<double> power_per_frac(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    power_per_frac[j] =
        spec.core_power_kw(0) * static_cast<double>(spec.cores_per_node());
  }

  // Constraint 1 (arrival rates): sum_j |cores_j| ECS(i,j,0) FRAC(i,j) <= lambda_i.
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var[i][j] == kNoVar) continue;
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      terms.emplace_back(frac_var[i][j],
                         cores * dc_.ecs.ecs(i, dc_.nodes[j].type, 0));
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc_.task_types[i].arrival_rate);
    }
  }
  // Constraint 2 (node fraction budget): sum_i FRAC(i,j) <= 1.
  for (std::size_t j = 0; j < nn; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], 1.0);
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
    }
  }

  // Thermal redlines (constraint 4): affine in node powers; node power is
  // affine in the fractions. Failed nodes draw no base power.
  const auto add_thermal_row = [&](const double* coeff_row, double base_rhs) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = base_rhs;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = coeff_row[j];
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      const double per_frac = w * power_per_frac[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    if (terms.empty() && rhs < 0.0) return false;
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
    return true;
  };
  for (std::size_t r = 0; r < nn; ++r) {
    if (!add_thermal_row(lr.node_in_coeff.row(r),
                         dc_.redline_node_c - lr.node_in0[r])) {
      return {};
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    if (!add_thermal_row(lr.crac_in_coeff.row(r),
                         dc_.redline_crac_c - lr.crac_in0[r])) {
      return {};
    }
  }

  // CRAC power definitions: k_c (crac_in_c - tout_c) - q_c <= 0.
  for (std::size_t c = 0; c < nc; ++c) {
    const dc::CracSpec& crac = dc_.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = -k * (lr.crac_in0[c] - crac_out[c]);
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = k * lr.crac_in_coeff(c, j);
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      const double per_frac = w * power_per_frac[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // Power budget (constraint 3).
  {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) {
          terms.emplace_back(frac_var[i][j], power_per_frac[j]);
        }
      }
    }
    for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - dc_.total_base_power_kw());
  }

  const solver::LpSolution sol = solve_lp(lp, lp_options);
  LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;

  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  out.frac = solver::Matrix(t, nn);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var[i][j] != kNoVar) out.frac(i, j) = sol.x[frac_var[i][j]];
    }
  }
  return out;
}

Assignment BaselineAssigner::assign(const BaselineOptions& options) const {
  Assignment assignment;
  assignment.technique = "baseline-P0-or-off";
  assignment.status = options.validate();
  if (!assignment.status.ok()) return assignment;
  const std::size_t nn = dc_.num_nodes();
  const std::size_t t = dc_.num_task_types();

  // The session LP is BaselineLpEvaluator's, over per-node power columns;
  // its bases do not fit solve_at's LP, so the sweep gets no initial seed.
  CracSweepLp<LpOutcome, BaselineLpEvaluator> family;
  family.solve_at = [this](const std::vector<double>& crac_out,
                           const solver::LpOptions& lp) {
    return solve_at(crac_out, lp);
  };
  family.evaluator = [this](const std::vector<double>& crac_out,
                            const solver::LpOptions& lp) {
    return std::make_unique<BaselineLpEvaluator>(dc_, model_, crac_out, lp);
  };
  family.value = [](const LpOutcome& outcome) { return outcome.objective; };
  CracSweepOptions sweep_options;
  sweep_options.prefix = "baseline";
  sweep_options.tcrac_min_c = options.tcrac_min_c;
  sweep_options.tcrac_max_c = options.tcrac_max_c;
  sweep_options.grid = options.grid;
  sweep_options.full_grid = options.full_grid;
  sweep_options.lp = options.lp;
  sweep_options.telemetry = options.lp.telemetry;
  const CracSweepResult<LpOutcome> sweep =
      crac_sweep(dc_, sweep_options, family);

  assignment.lp_solves = sweep.lp_solves;
  assignment.status = sweep.status;
  if (!sweep.status.ok()) return assignment;
  const LpOutcome& best = sweep.best;
  assignment.stage1_basis = best.basis;
  assignment.stage1_objective = best.objective;
  assignment.crac_out_c = sweep.crac_out_c;

  // Rounding: shrink each node's fractions so |cores_j| * sum_i FRAC is an
  // integer core count (Eq. 22 discussion).
  assignment.core_pstate.assign(dc_.total_cores(), 0);
  assignment.tc = solver::Matrix(t, dc_.total_cores());
  double reward = 0.0;
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    const double cores = static_cast<double>(spec.cores_per_node());
    double frac_sum = 0.0;
    for (std::size_t i = 0; i < t; ++i) frac_sum += best.frac(i, j);
    const double used = cores * frac_sum;
    const auto target = static_cast<std::size_t>(std::floor(used + 1e-9));
    const double scale = (used > 1e-12 && target > 0)
                             ? static_cast<double>(target) / used
                             : 0.0;

    const std::size_t offset = dc_.core_offset(j);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      assignment.core_pstate[offset + c] =
          (c < target) ? 0 : spec.off_state();
    }
    if (target == 0) continue;
    for (std::size_t i = 0; i < t; ++i) {
      const double frac = best.frac(i, j) * scale;
      if (frac <= 0.0) continue;
      const double node_rate =
          dc_.ecs.ecs(i, dc_.nodes[j].type, 0) * cores * frac;
      reward += dc_.task_types[i].reward * node_rate;
      const double per_core = node_rate / static_cast<double>(target);
      for (std::size_t c = 0; c < target; ++c) {
        assignment.tc(i, offset + c) = per_core;
      }
    }
  }
  assignment.reward_rate = reward;
  assignment.feasible = true;
  return finalize_assignment(dc_, model_, std::move(assignment));
}

}  // namespace tapo::core
