#include "core/stage1.h"

#include <string>
#include <utility>

#include "core/crac_sweep.h"
#include "core/stage1_lp.h"
#include "util/telemetry.h"

namespace tapo::core {

util::Status Stage1Options::validate() const {
  if (!(psi > 0.0 && psi <= 100.0)) {
    return util::Status::InvalidArgument(
        "stage1: psi must be in (0, 100] (got " + std::to_string(psi) + ")");
  }
  return check("stage1", threads);
}

Stage1Solver::Stage1Solver(const dc::DataCenter& dc,
                           const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi) const {
  return solve_at(crac_out, psi, solver::LpOptions{});
}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi,
                                               const solver::LpOptions& lp_options) const {
  return solve_stage1_lp(dc_, model_, Stage1Mode::MaximizeReward, psi, 0.0,
                         crac_out, lp_options);
}

Stage1Result Stage1Solver::solve(const Stage1Options& options) const {
  Stage1Result result;
  result.status = options.validate();
  if (!result.status.ok()) return result;
  util::telemetry::Registry* const reg = options.telemetry;
  const util::telemetry::ScopedTimer stage_timer(reg, "stage1.solve");
  if (reg) reg->count("stage1.solves");

  CracSweepLp<LpOutcome> family = stage1_sweep_lp(
      dc_, model_, Stage1Mode::MaximizeReward, options.psi, 0.0);
  family.seed = options.warm_seed;
  const CracSweepResult<LpOutcome> sweep =
      crac_sweep(dc_, model_, options, options.threads, options.telemetry,
                 std::move(family));
  result.lp_solves = sweep.lp_solves;
  result.status = sweep.status;
  if (!sweep.status.ok()) return result;
  const LpOutcome& best = sweep.best;
  result.feasible = true;
  result.crac_out_c = sweep.crac_out_c;
  result.node_core_power_kw = best.node_core_power_kw;
  result.objective = best.objective;
  result.compute_power_kw = best.compute_power_kw;
  result.crac_power_kw = best.crac_power_kw;
  result.basis = best.basis;
  if (reg) {
    reg->gauge_set("stage1.best_objective", result.objective);
    reg->gauge_set("stage1.compute_power_kw", result.compute_power_kw);
    reg->gauge_set("stage1.crac_power_kw", result.crac_power_kw);
  }
  return result;
}

}  // namespace tapo::core
