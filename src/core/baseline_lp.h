// The Eq.-21 baseline LP at fixed CRAC setpoints, in the two forms the CRAC
// sweep (core/crac_sweep.h) needs, as core/stage1_lp.h has them for Stage 1:
// a builder that solves it once from scratch (BaselineAssigner::solve_at) and
// a persistent evaluator that keeps it resident in one LpSession and patches
// it from point to point. Both add the same FRAC columns and arrival rows
// and read the fractions back alike.
//
// The builder writes node j's power as ppf_j sum_i FRAC(i,j), with
// ppf_j = pi_{j,0} |cores_j| (the per-point thermal rows of
// core/thermal_rows.h at s_j = ppf_j), so every one of node j's T fraction
// columns carries its own copy of the node's dense thermal column. The
// evaluator adds one column per node, its core power p_j in [0, ppf_j], and
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

#include <cstddef>
#include <optional>
#include <vector>

#include "core/baseline.h"
#include "core/thermal_rows.h"
#include "dc/datacenter.h"
#include "solver/session.h"
#include "thermal/heatflow.h"

namespace tapo::core {

// Builds the Eq.-21 LP at crac_out from scratch and solves it with
// lp_options: BaselineAssigner::solve_at. Row layout: arrival rates, one
// fraction budget per node with any fraction, then the thermal rows
// (redlines, CRAC power rows, budget).
BaselineAssigner::LpOutcome solve_baseline_lp(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out, const solver::LpOptions& lp_options);

class BaselineLpEvaluator {
 public:
  // Builds the LP at crac_out0 and standardizes it into a resident
  // LpSession. lp_options supplies the iteration cap, the FT update budget
  // and the telemetry sink; the engine field is ignored (sessions are always
  // the revised engine, warm-started by per-solve seeds). Copies behave as Stage1LpEvaluator's: a
  // never-solved evaluator copied and moved to P solves as one built at P.
  BaselineLpEvaluator(const dc::DataCenter& dc,
                      const thermal::HeatFlowModel& model,
                      const std::vector<double>& crac_out0,
                      const solver::LpOptions& lp_options);

  // Re-points the resident LP at new setpoints.
  void move_to(const std::vector<double>& crac_out);

  // Solves the resident LP, resuming the previous solve's state in place
  // (or warm-starting from a non-null seed). The outcome mirrors
  // BaselineAssigner::solve_at: objective and fractions on Optimal; the
  // basis is this LP's, not exchangeable with solve_at's.
  BaselineAssigner::LpOutcome solve(const solver::LpBasis* seed = nullptr);

  solver::LpSession::Stats session_stats() const { return session_->stats(); }

  // As Stage1LpEvaluator::thermal_rows.
  const ResidentThermalRows& thermal_rows() const { return thermal_rows_; }

 private:
  const dc::DataCenter& dc_;
  // frac_var_[i][j]; kNoVar where FRAC(i,j) is pinned to 0.
  std::vector<std::vector<std::size_t>> frac_var_;
  // Row layout: arrival rates, one tie row per powered node, then the
  // thermal block (redlines, CRAC power rows, budget).
  ResidentThermalRows thermal_rows_;
  // Engaged by the constructor, once the LP is built.
  std::optional<solver::LpSession> session_;
};

}  // namespace tapo::core
