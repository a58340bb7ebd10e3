// Baseline assignment technique (Section VII.A, Eq. 21; adapted from
// Parolini et al. [26]).
//
// The comparison technique only chooses between running a core in P-state 0
// and turning it off. FRAC(i, j) is the fraction of node j's cores devoted
// to task type i; the LP maximizes sum r_i * ECS(i,j,0) * |cores_j| *
// FRAC(i,j) subject to arrival rates, per-node fraction budgets, and the
// same power and thermal constraints, again with a discretized CRAC-setpoint
// search on top. Because |cores_j| * sum_i FRAC(i,j) may be fractional, the
// fractions of each node are scaled down so the used-core count is integral
// (the paper's rounding rule).
//
// Note: the paper's Eq. 19 prints PCN_j = B_j + pi_{NTj,0} * sum_i FRAC(i,j);
// the per-node compute power must scale with the number of cores actually
// used, so we take PCN_j = B_j + pi_{NTj,0} * |cores_j| * sum_i FRAC(i,j)
// (see DESIGN.md, paper-typo list).
//
// On a degraded data center failed nodes get no fractions and draw no base
// power, and the setpoint search starts each CRAC at its raised minimum
// outlet, as Stage 1 does.
//
// The setpoint sweep is the shared CRAC sweep (core/crac_sweep.h): on the
// revised engine (the default) each warm chain solves one resident
// BaselineLpEvaluator (core/baseline_lp.h) — the same LP written over
// per-node power columns, patched from point to point; on the dense oracle
// every point solves solve_at's LP. Either way the published plan is
// solve_at's Dense cold re-solve at the selected setpoints. See
// docs/SOLVER.md §4 and §7.
#pragma once

#include <vector>

#include "core/assigner.h"
#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::core {

struct BaselineOptions {
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
  bool full_grid = false;
  // LP engine, iteration cap and telemetry sink for the sweep's solves (the
  // baseline.* and lp.* metrics). The final re-solve
  // at the selected setpoints always runs the Dense oracle
  // (engine-independent published plans, mirroring Stage 1).
  solver::LpOptions lp;

  // InvalidArgument unless validate_sweep_grid (core/stage1.h) accepts the
  // setpoint range, grid and grid.threads.
  util::Status validate() const;
};

class BaselineAssigner {
 public:
  BaselineAssigner(const dc::DataCenter& dc, const thermal::HeatFlowModel& model);

  // An invalid `options` returns its validate() status before any work.
  Assignment assign(const BaselineOptions& options = {}) const;

  // The Eq. 21 LP at fixed CRAC outlet temperatures (before rounding).
  struct LpOutcome {
    bool feasible = false;
    solver::LpStatus status = solver::LpStatus::Infeasible;
    double objective = 0.0;
    solver::Matrix frac;    // T x NCN
    solver::LpBasis basis;  // optimal basis, empty when !feasible
    std::vector<double> duals;  // row duals when feasible
  };
  LpOutcome solve_at(const std::vector<double>& crac_out) const;
  // As above with explicit LP options (engine, iteration cap, telemetry).
  LpOutcome solve_at(const std::vector<double>& crac_out,
                     const solver::LpOptions& lp) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
};

}  // namespace tapo::core
