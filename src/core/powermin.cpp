#include "core/powermin.h"

#include <cmath>
#include <string>
#include <utility>

#include "core/crac_sweep.h"
#include "core/stage1_lp.h"
#include "core/stage2.h"
#include "core/stage3.h"
#include "util/telemetry.h"

namespace tapo::core {

util::Status PowerMinOptions::validate() const {
  const util::Status s = stage1.validate();
  if (!s.ok()) return s;
  if (!std::isfinite(retry_inflation) || retry_inflation < 1.0) {
    return util::Status::InvalidArgument(
        "powermin: retry_inflation must be finite and >= 1 (got " +
        std::to_string(retry_inflation) + ")");
  }
  if (!std::isfinite(relative_tolerance) || relative_tolerance < 0.0 ||
      relative_tolerance >= 1.0) {
    return util::Status::InvalidArgument(
        "powermin: relative_tolerance must be in [0, 1) (got " +
        std::to_string(relative_tolerance) + ")");
  }
  return util::Status::Ok();
}

PowerMinResult minimize_power_for_reward(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model,
                                         double target_reward_rate,
                                         const PowerMinOptions& options) {
  util::telemetry::Registry* const reg = options.stage1.telemetry;
  const util::telemetry::ScopedTimer total_timer(reg, "powermin.solve");

  PowerMinResult result;
  result.status = options.validate();
  if (!result.status.ok()) return result;
  if (!std::isfinite(target_reward_rate) || target_reward_rate < 0.0) {
    result.status = util::Status::InvalidArgument(
        "reward-rate target must be non-negative and finite (got " +
        std::to_string(target_reward_rate) + ")");
    return result;
  }
  double floor = target_reward_rate;

  solver::LpBasis attempt_seed;  // the previous attempt's winning basis

  for (std::size_t attempt = 0; attempt <= options.max_retries; ++attempt) {
    ++result.attempts;
    if (reg) {
      reg->count("powermin.attempts");
      reg->sample("powermin.floor_by_attempt", static_cast<double>(attempt),
                  floor);
    }

    // Chain heads seed from the previous attempt's winning basis (or the
    // caller's warm_seed on the first attempt): an inflated reward floor
    // only moves one RHS, so that basis is a few dual pivots from the new
    // optimum.
    const solver::LpBasis* seed =
        attempt_seed.empty() ? options.stage1.warm_seed : &attempt_seed;
    CracSweepLp<Stage1Solver::LpOutcome> family = stage1_sweep_lp(
        dc, model, Stage1Mode::MinimizePower, options.stage1.psi, floor);
    family.seed = seed;
    const CracSweepResult<Stage1Solver::LpOutcome> sweep =
        crac_sweep(dc, model, options.stage1, options.stage1.threads, reg,
                   std::move(family));
    if (!sweep.status.ok()) {
      result.status = sweep.status;
      return result;  // target unreachable even relaxed, or a solver failure
    }
    const Stage1Solver::LpOutcome& best = sweep.best;
    attempt_seed = best.basis;

    const Stage2Result s2 =
        convert_power_to_pstates(dc, best.node_core_power_kw, reg);
    if (!s2.status.ok()) {
      result.status = s2.status;
      return result;
    }
    const Stage3Result s3 = solve_stage3(dc, s2.core_pstate, reg);
    if (!s3.optimal) {
      result.status = s3.status.ok()
                          ? util::Status::Internal("powermin: stage3 failure")
                          : s3.status;
      return result;
    }

    Assignment assignment;
    assignment.feasible = true;
    assignment.technique = "power-min";
    assignment.crac_out_c = sweep.crac_out_c;
    assignment.core_pstate = s2.core_pstate;
    assignment.tc = s3.tc;
    assignment.reward_rate = s3.reward_rate;
    assignment.stage1_objective = floor;
    assignment = finalize_assignment(dc, model, std::move(assignment));

    result.feasible = true;
    result.total_power_kw = assignment.total_power_kw();
    result.reward_rate = s3.reward_rate;
    result.assignment = std::move(assignment);
    result.met_target = s3.reward_rate >=
                        target_reward_rate * (1.0 - options.relative_tolerance);
    if (reg) {
      reg->sample("powermin.reward_by_attempt", static_cast<double>(attempt),
                  s3.reward_rate);
      reg->gauge_set("powermin.total_power_kw", result.total_power_kw);
      reg->gauge_set("powermin.reward_rate", result.reward_rate);
      reg->gauge_set("powermin.met_target", result.met_target ? 1.0 : 0.0);
    }
    if (result.met_target) return result;
    floor *= options.retry_inflation;  // rounding shortfall: ask Stage 1 for more
  }
  return result;
}

}  // namespace tapo::core
