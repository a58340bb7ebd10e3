// Persistent Stage-1 LP evaluator: one resident LP re-pointed at successive
// CRAC setpoints through the solver session's patch API.
//
// Stage1Solver::solve_at and powermin's solve_power_at rebuild their LP from
// scratch at every grid point, although between neighboring points only the
// setpoint-dependent pieces move: every row's RHS (through the affine
// offsets of HeatFlowModel::offsets) and, in the CRAC power rows, the CoP
// factor k_c = rho*Cp*F_c / CoP(tout_c). This class builds the LP once per
// warm chain and afterwards patches exactly those pieces in place, through
// the thermal block it shares with the baseline evaluator
// (core/thermal_rows.h):
//
//   * the CRAC power row is carried in the k-scaled form
//       (crac_in_c - tout_c) - q_c / k_c <= 0
//     (the classic builders multiply through by k_c), so the node-power
//     coefficients — the dense thermal part — are setpoint-INDEPENDENT and
//     a move touches one coefficient (-1/k_c) plus the RHS per CRAC;
//   * redline rows keep their coefficients verbatim and move only the RHS;
//   * the reward-floor row (MinimizePower) and the budget row never move.
//
// The feasible set at each point is identical to the classic builders'
// (row scaling changes no solution), the variable layout and row structure
// are exchangeable with theirs (an LpBasis from solve_at warm-starts this
// LP and vice versa), and the sweep's published plan is still the Dense
// cold re-solve at the winning point. See docs/SOLVER.md §7.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/stage1.h"
#include "core/thermal_rows.h"
#include "dc/datacenter.h"
#include "solver/session.h"
#include "thermal/heatflow.h"

namespace tapo::core {

class Stage1LpEvaluator {
 public:
  enum class Mode {
    MaximizeReward,  // Stage 1 proper: reward objective + power budget row
    MinimizePower,   // powermin: -power objective + reward-floor row
  };

  // Builds the LP at crac_out0 and standardizes it into a resident
  // LpSession. reward_floor is only meaningful for MinimizePower (pass 0.0
  // otherwise). lp_options supplies numerics and the telemetry sink; the
  // engine/warm_start fields are ignored (sessions are always the revised
  // engine with per-solve seeds).
  Stage1LpEvaluator(const dc::DataCenter& dc,
                    const thermal::HeatFlowModel& model, Mode mode, double psi,
                    double reward_floor, const std::vector<double>& crac_out0,
                    const solver::LpOptions& lp_options);

  // Re-points the resident LP at new setpoints (patch_rhs on every thermal
  // row, patch_coefficient on one column per CRAC power row).
  void move_to(const std::vector<double>& crac_out);

  // MinimizePower only: moves the reward-floor row's RHS (one patch).
  void set_reward_floor(double floor);

  // Solves the resident LP. A non-null seed warm-starts from that basis
  // (chain heads / cross-round seeding); otherwise the previous solve's
  // state is resumed in place. The outcome mirrors Stage1Solver::solve_at:
  // objective/powers on Optimal, the infeasibility-certificate basis on a
  // warm Infeasible.
  Stage1Solver::LpOutcome solve(const solver::LpBasis* seed = nullptr);

  // Session statistics (patches, FT updates, refactorizations, fallbacks).
  solver::LpSession::Stats session_stats() const { return session_->stats(); }

  // The resident patched problem, for differential-oracle re-solves.
  const solver::LpProblem& problem() const { return session_->problem(); }

 private:
  const dc::DataCenter& dc_;
  Mode mode_;

  std::vector<std::vector<std::size_t>> seg_vars_;
  std::vector<std::size_t> crac_power_vars_;

  // Row layout: [reward floor (MinimizePower)], then the thermal block:
  // node redlines, CRAC redlines, CRAC power rows, [budget (MaximizeReward)].
  ResidentThermalRows thermal_rows_;

  std::unique_ptr<solver::LpSession> session_;
};

}  // namespace tapo::core
