// Stage 1 of the first-step assignment (Section V.B.2).
//
// With the integer P-state constraint relaxed, each core is assigned a
// continuous power in [0, pi_{j,0}] and earns the concave piecewise-linear
// aggregate reward rate ARR_j(p). Identical cores within a node share the
// node budget optimally by splitting it evenly, so the node-level aggregate
// is n * ARR(p/n) - also concave piecewise-linear - and the decision reduces
// to one power variable per node, encoded as bounded segment variables.
//
// For fixed CRAC outlet temperatures the problem is an LP:
//   maximize  sum_j NodeARR_j(p_j)
//   s.t.      total compute power + total CRAC power <= Pconst   (Eq. 9 c1)
//             Tin <= Tredline                                    (Eq. 9 c2)
// where the thermal rows and the CRAC power (at fixed setpoints, with CoP
// known) are affine in the node powers: HeatFlowModel::offsets gives the
// setpoint terms and node_in_coeff()/crac_in_coeff() the power
// sensitivities (rows written by core/thermal_rows.h). The
// outlet temperatures themselves are found by the paper's discretized
// coarse-to-fine search (Section V.B.2's multi-step method).
#pragma once

#include <optional>
#include <vector>

#include "core/crac_sweep.h"
#include "dc/datacenter.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::core {

// The sweep settings (setpoint range, grid, full_grid, lp) are the shared
// CracSweepOptions (core/crac_sweep.h). Stage 1 reads lp for its engine and
// numerics only: its telemetry pointer is ignored, and `telemetry` below is
// used for the lp.* metrics too.
struct Stage1Options : CracSweepOptions {
  double psi = 50.0;  // "best psi%" of task types in ARR_j
  // Worker threads for the setpoint sweep (0 = all hardware threads, 1 =
  // serial; at most kMaxThreads). Each sweep round solves its LPs as one
  // batch, and with more than one thread the coordinate passes speculate:
  // the ±step pairs of every remaining CRAC go out as one batch around the
  // incumbent (solver::GridSearchOptions::threads). Every value yields a
  // bit-identical Stage1Result, lp_solves included — batch results are
  // reduced in a fixed order with value ties broken toward the
  // lexicographically smallest setpoint vector, the warm-start chain
  // partition depends only on the point sequence, discarded speculative
  // solves are counted apart (stage1.speculative_discards), and the points
  // the dual bound skips are the same for every value
  // (stage1.bound_prunes).
  // Overrides grid.threads.
  std::size_t threads = 0;
  // Optional warm-start basis (non-owning; must outlive solve()): seeds the
  // revised engine's first-round chain heads (the dense oracle ignores it);
  // later rounds seed from the incumbent's own basis (core/crac_sweep.h).
  // Within a chain each LP resumes from its predecessor's basis regardless.
  // Recovery passes the pre-fault plan's basis here so a re-plan converges
  // in a handful of dual pivots per grid point.
  const solver::LpBasis* warm_seed = nullptr;
  // Optional metrics sink (stage1.* in docs/OBSERVABILITY.md): per-stage
  // timers, LP-solve / infeasible-candidate counters, the best-objective
  // trajectory per sweep round. Null disables recording; enabling it never
  // changes the solved result. ThreeStageAssigner and powermin reuse this
  // pointer for their stage2.* / stage3.* / powermin.* metrics.
  util::telemetry::Registry* telemetry = nullptr;

  // InvalidArgument unless psi is in (0, 100] and
  // CracSweepOptions::check accepts the sweep settings and threads.
  util::Status validate() const;
};

struct Stage1Result {
  bool feasible = false;
  // Non-ok when infeasible (every candidate setpoint vector violated a
  // constraint) or on an internal solver failure; mirrors `feasible` so the
  // recovery path can report *why* a degraded re-solve found no plan.
  util::Status status;
  std::vector<double> crac_out_c;            // chosen CRAC outlet setpoints
  std::vector<double> node_core_power_kw;    // per node, cores only (excl. base)
  double objective = 0.0;                    // relaxed aggregate reward rate
  double compute_power_kw = 0.0;             // incl. base power
  double crac_power_kw = 0.0;
  std::size_t lp_solves = 0;
  // Optimal basis of the winning LP (from the Dense-oracle re-solve at the
  // selected setpoints); warm-start currency for later re-plans.
  solver::LpBasis basis;
};

class Stage1Solver {
 public:
  Stage1Solver(const dc::DataCenter& dc, const thermal::HeatFlowModel& model);

  Stage1Result solve(const Stage1Options& options = {}) const;

  // The LP at fixed CRAC outlet temperatures; exposed for tests, ablations
  // and the power-minimization extension.
  struct LpOutcome {
    bool feasible = false;
    // Why the point failed: Infeasible is a real thermal/budget violation,
    // IterLimit means the solver cap cut the solve short (the point may well
    // be feasible). Callers that give up must report the distinction (see
    // util::Status::ResourceExhausted).
    solver::LpStatus status = solver::LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> node_core_power_kw;
    double compute_power_kw = 0.0;
    double crac_power_kw = 0.0;
    // Optimal basis when feasible; on a warm-started infeasible solve, the
    // dual phase's infeasibility-certificate basis (still a valid warm
    // seed). Empty otherwise.
    solver::LpBasis basis;
    // Row duals (LpSolution::duals) when feasible; the CRAC sweep bounds
    // other setpoints with them (core/thermal_rows.h).
    std::vector<double> duals;
  };
  LpOutcome solve_at(const std::vector<double>& crac_out, double psi) const;
  // As above with explicit LP options (engine, iteration cap, telemetry);
  // the two-argument form uses defaults. Always a cold solve: warm starts go
  // through a session (SweepSession) and its seed.
  LpOutcome solve_at(const std::vector<double>& crac_out, double psi,
                     const solver::LpOptions& lp) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
};

}  // namespace tapo::core
