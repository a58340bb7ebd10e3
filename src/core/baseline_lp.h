// The Eq.-21 baseline LP at fixed CRAC setpoints, in the two forms the CRAC
// sweep (core/crac_sweep.h) needs, as core/stage1_lp.h has them for Stage 1:
// a builder that solves it once from scratch (BaselineAssigner::solve_at) and
// the family's resident LP, which the sweep keeps in a SweepSession
// (core/thermal_rows.h) and patches from point to point. Both add the same
// FRAC columns and arrival rows and read the fractions back alike.
//
// The builder writes node j's power as ppf_j sum_i FRAC(i,j), with
// ppf_j = pi_{j,0} |cores_j| (the per-point thermal rows of
// core/thermal_rows.h at s_j = ppf_j), so every one of node j's T fraction
// columns carries its own copy of the node's dense thermal column. The
// resident LP adds one column per node, its core power p_j in [0, ppf_j], and
// ties the fractions to it with one row per node,
//
//   sum_i ppf_j FRAC(i,j) - p_j <= 0,
//
// which replaces the node budget sum_i FRAC(i,j) <= 1 (the bound
// p_j <= ppf_j does that job). The resident thermal rows sit on p_j alone,
// so the FRAC columns fall to two entries each (arrival row + tie row). The
// thermal coefficients are nonnegative, so lowering any p_j onto
// ppf_j sum_i FRAC(i,j) keeps every row satisfied: the feasible set's
// projection onto the fractions, and hence the optimum, are the builder's.
// Nodes with no deadline-feasible fraction, and failed nodes, get no p_j.
// The sweep's published plan is the builder's Dense cold re-solve at the
// winning point.
#pragma once

#include <vector>

#include "core/baseline.h"
#include "core/crac_sweep.h"
#include "dc/datacenter.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"

namespace tapo::core {

// Builds the Eq.-21 LP at crac_out from scratch and solves it with
// lp_options: BaselineAssigner::solve_at. Row layout: arrival rates, one
// fraction budget per node with any fraction, then the thermal rows
// (redlines, CRAC power rows, budget).
BaselineAssigner::LpOutcome solve_baseline_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out, const solver::LpOptions& lp_options);

// The baseline's LP family for crac_sweep, under the prefix "baseline": the
// sweep maximizes the LP objective. The resident LP's row layout is arrival
// rates, one tie row per node with a p_j, then the thermal block
// (redlines, CRAC power rows, budget). A session solve's outcome mirrors
// solve_at's: objective and fractions on Optimal; the basis is the resident
// LP's, not exchangeable with solve_at's.
CracSweepLp<BaselineAssigner::LpOutcome> baseline_sweep_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model);

}  // namespace tapo::core
