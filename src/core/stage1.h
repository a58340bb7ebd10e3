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

#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "solver/lp.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::core {

struct Stage1Options {
  double psi = 50.0;  // "best psi%" of task types in ARR_j
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
  // Full Cartesian coarse-to-fine search (paper's generic multi-step method)
  // instead of the cheaper uniform-value + coordinate-descent default.
  bool full_grid = false;
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
  static constexpr std::size_t kMaxThreads = 256;
  // LP engine and numerics for every solve in the sweep (the final re-solve
  // at the selected setpoints always runs the Dense oracle, so the published
  // plan is engine-independent). The telemetry pointer inside is ignored;
  // `telemetry` below is used for the lp.* metrics too. On the revised
  // engine each warm chain runs on one persistent LP session
  // (core/crac_sweep.h, core/stage1_lp.h): the chain builds its LP once and
  // re-points it at successive grid points through the structure-preserving
  // patch API, keeping the basis and LU factors resident. On the dense
  // oracle every point builds and solves its own LP.
  solver::LpOptions lp;
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

  // InvalidArgument unless psi is in (0, 100] and validate_sweep_grid
  // accepts the setpoint range, grid and threads.
  util::Status validate() const;
};

// The option checks every CRAC-setpoint sweep shares (Stage 1, power
// minimization, the baseline): InvalidArgument, its message prefixed with
// `prefix`, unless tcrac_min_c <= tcrac_max_c are finite,
// grid.coarse_samples and grid.refine_samples are >= 1,
// grid.min_resolution > 0 and threads <= Stage1Options::kMaxThreads.
util::Status validate_sweep_grid(const char* prefix, double tcrac_min_c,
                                 double tcrac_max_c,
                                 const solver::GridSearchOptions& grid,
                                 std::size_t threads);

// `options.grid` with the Stage-1 `threads` knob applied; shared by every
// caller that drives a grid search over the Stage-1-style LP objective.
solver::GridSearchOptions stage1_grid_options(const Stage1Options& options);

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
  // through a session (Stage1LpEvaluator) and its seed.
  LpOutcome solve_at(const std::vector<double>& crac_out, double psi,
                     const solver::LpOptions& lp) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
};

}  // namespace tapo::core
