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
// SweepSession over the baseline's resident LP (core/baseline_lp.h) — the
// same LP written over per-node power columns, patched from point to point;
// on the dense oracle every point solves solve_at's LP. Either way the
// published plan is solve_at's Dense cold re-solve at the selected
// setpoints. See docs/SOLVER.md §4 and §7.
#pragma once

#include <vector>

#include "core/assigner.h"
#include "core/crac_sweep.h"
#include "dc/datacenter.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::core {

// The sweep settings are the shared CracSweepOptions (core/crac_sweep.h).
// The sweep runs on grid.threads workers and records the baseline.* and
// lp.* metrics to lp.telemetry.
struct BaselineOptions : CracSweepOptions {
  // InvalidArgument unless CracSweepOptions::check accepts the sweep
  // settings and grid.threads.
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
