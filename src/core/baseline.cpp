#include "core/baseline.h"

#include <cmath>

#include "core/baseline_lp.h"
#include "core/crac_sweep.h"
#include "solver/lp.h"

namespace tapo::core {

util::Status BaselineOptions::validate() const {
  return check("baseline", grid.threads);
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
  return solve_baseline_lp(dc_, model_, crac_out, lp_options);
}

Assignment BaselineAssigner::assign(const BaselineOptions& options) const {
  Assignment assignment;
  assignment.technique = "baseline-P0-or-off";
  assignment.status = options.validate();
  if (!assignment.status.ok()) return assignment;
  const std::size_t nn = dc_.num_nodes();
  const std::size_t t = dc_.num_task_types();

  // The resident LP is over per-node power columns; its bases do not fit
  // solve_at's LP, so the sweep gets no initial seed.
  const CracSweepResult<LpOutcome> sweep =
      crac_sweep(dc_, model_, options, options.grid.threads,
                 options.lp.telemetry, baseline_sweep_lp(dc_, model_));

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
