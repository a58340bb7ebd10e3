// The Stage-1 LP at fixed CRAC setpoints, in both of its roles (Stage 1
// proper and power minimization), as the CRAC sweep (core/crac_sweep.h)
// needs it: one builder that solves it once from scratch, and the family's
// resident LP, which the sweep keeps in a SweepSession (core/thermal_rows.h)
// and re-points at successive setpoints through the solver session's patch
// API.
//
// Both start from the same columns and, in MinimizePower, the reward-floor
// row, which never moves. Between neighboring points only the thermal rows
// move: the RHS of every thermal row and one coefficient per CRAC power row.
// The builder writes their per-point form; SweepSession appends their
// resident form once and then patches exactly those pieces.
//
// The feasible set at each point is the builder's (row scaling changes no
// solution), and both LPs have the same variables, rows and row order, so an
// LpBasis from one warm-starts the other. The sweep's published plan is the
// builder's Dense cold re-solve at the winning point. See docs/SOLVER.md §7.
#pragma once

#include <vector>

#include "core/crac_sweep.h"
#include "core/stage1.h"
#include "dc/datacenter.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"

namespace tapo::core {

enum class Stage1Mode {
  MaximizeReward,  // Stage 1 proper: reward objective + power budget row
  MinimizePower,   // powermin: -power objective + reward-floor row
};

// Builds the LP of `mode` at crac_out from scratch and solves it with
// lp_options (engine, iteration cap, telemetry). Row layout: [reward floor
// (MinimizePower)], then the per-point thermal rows (core/thermal_rows.h):
// node redlines, CRAC redlines, CRAC power rows, [budget (MaximizeReward)].
// reward_floor is only meaningful for MinimizePower (pass 0.0 otherwise).
// Stage1Solver::solve_at is the MaximizeReward case.
Stage1Solver::LpOutcome solve_stage1_lp(const dc::DataCenter& dc,
                                        const thermal::HeatFlowModel& model,
                                        Stage1Mode mode, double psi,
                                        double reward_floor,
                                        const std::vector<double>& crac_out,
                                        const solver::LpOptions& lp_options);

// The Stage-1 LP family of `mode` for crac_sweep, under the prefix "stage1"
// (MaximizeReward) or "powermin" (MinimizePower). The sweep maximizes the
// relaxed reward or minus the total power, base power included. The
// resident LP has solve_stage1_lp's columns and reward-floor row; a session
// solve's outcome mirrors solve_stage1_lp's: objective and powers on Optimal,
// the infeasibility-certificate basis on a warm Infeasible.
CracSweepLp<Stage1Solver::LpOutcome> stage1_sweep_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    Stage1Mode mode, double psi, double reward_floor);

}  // namespace tapo::core
