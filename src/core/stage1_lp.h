// The Stage-1 LP at fixed CRAC setpoints, in both of its roles (Stage 1
// proper and power minimization), as the CRAC sweep (core/crac_sweep.h)
// needs it: one builder that solves it once from scratch, and one
// persistent evaluator that keeps it resident and re-points it at
// successive setpoints through the solver session's patch API.
//
// Between neighboring points only the setpoint-dependent pieces move: the
// RHS of every thermal row and one coefficient per CRAC power row. The
// evaluator builds the LP once and then patches exactly those pieces, through
// the resident form of the thermal rows (core/thermal_rows.h); the builder
// writes their per-point form. The reward-floor row (MinimizePower) never
// moves.
//
// The feasible set at each point is the builder's (row scaling changes no
// solution), and both LPs have the same variables, rows and row order, so an
// LpBasis from one warm-starts the other. The sweep's published plan is the
// builder's Dense cold re-solve at the winning point. See docs/SOLVER.md §7.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/crac_sweep.h"
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
  // otherwise). lp_options supplies the iteration cap, the FT update budget
  // and the telemetry sink; the engine field is ignored (sessions are always
  // the revised engine, warm-started by per-solve seeds).
  //
  // A copy is an independent evaluator. A never-solved evaluator built at
  // any setpoints, copied and moved to P, solves bit for bit as one built
  // at P, so the sweep builds one per sweep and copies it at every chain
  // head instead of assembling and standardizing the LP again.
  Stage1LpEvaluator(const dc::DataCenter& dc,
                    const thermal::HeatFlowModel& model, Mode mode, double psi,
                    double reward_floor, const std::vector<double>& crac_out0,
                    const solver::LpOptions& lp_options);

  // Re-points the resident LP at new setpoints (patch_rhs on every thermal
  // row, patch_coefficient on one column per CRAC power row).
  void move_to(const std::vector<double>& crac_out);

  // Solves the resident LP. A non-null seed warm-starts from that basis
  // (chain heads / cross-round seeding); otherwise the previous solve's
  // state is resumed in place. The outcome mirrors solve_stage1_lp:
  // objective/powers on Optimal, the infeasibility-certificate basis on a
  // warm Infeasible.
  Stage1Solver::LpOutcome solve(const solver::LpBasis* seed = nullptr);

  // Session statistics (patches, FT updates, refactorizations, fallbacks).
  solver::LpSession::Stats session_stats() const { return session_->stats(); }

  // The setpoint-dependent rows, and with them the dual bound over this
  // LP (shared by every copy).
  const ResidentThermalRows& thermal_rows() const { return thermal_rows_; }

 private:
  const dc::DataCenter& dc_;

  std::vector<std::vector<std::size_t>> seg_vars_;
  std::vector<std::size_t> crac_power_vars_;

  // Row layout: [reward floor (MinimizePower)], then the thermal block:
  // node redlines, CRAC redlines, CRAC power rows, [budget (MaximizeReward)].
  ResidentThermalRows thermal_rows_;

  // Engaged by the constructor, once the LP is built.
  std::optional<solver::LpSession> session_;
};

// Builds the LP of `mode` at crac_out from scratch and solves it with
// lp_options (engine, iteration cap, telemetry). Row layout: [reward floor
// (MinimizePower)], then the per-point thermal rows (core/thermal_rows.h):
// node redlines, CRAC redlines, CRAC power rows, [budget (MaximizeReward)].
// Stage1Solver::solve_at is the MaximizeReward case.
Stage1Solver::LpOutcome solve_stage1_lp(const dc::DataCenter& dc,
                                        const thermal::HeatFlowModel& model,
                                        Stage1LpEvaluator::Mode mode,
                                        double psi, double reward_floor,
                                        const std::vector<double>& crac_out,
                                        const solver::LpOptions& lp_options);

// The Stage-1 LP family of `mode` for crac_sweep. The sweep maximizes the
// relaxed reward (MaximizeReward) or minus the total power, base power
// included (MinimizePower).
CracSweepLp<Stage1Solver::LpOutcome, Stage1LpEvaluator> stage1_sweep_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    Stage1LpEvaluator::Mode mode, double psi, double reward_floor);

// Stage1Options as crac_sweep options: metrics under `prefix`, chain heads
// seeded from `seed` (may be null).
CracSweepOptions stage1_sweep_options(const Stage1Options& options,
                                      const char* prefix,
                                      const solver::LpBasis* seed);

}  // namespace tapo::core
