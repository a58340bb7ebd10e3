// The thermal rows of every planner LP that has them: the CRAC-sweep LPs
// (core/stage1_lp.h, core/baseline_lp.h) and the power-aware Stage 3
// (core/stage3_power.h); and SweepSession, the one resident LP that every
// sweep keeps across grid points. The rows are the node and CRAC inlet
// redlines, one CRAC power row per unit, and the facility power budget, all
// affine in the node powers. They sit over caller-supplied columns: node j
// draws L_j + sum_{v in cols_j} a_v x_v kW, a constant load L_j plus a kW
// coefficient a_v per column. With w_rj row r's inlet coefficient for node j
// (HeatFlowModel::node_in_coeff/crac_in_coeff), in0 the inlet offsets at
// setpoints tout (HeatFlowModel::offsets) and k_c = rho*Cp*F_c / CoP(tout_c),
// the rows come in two forms that share the term loop and the budget row. A
// column with a_v = 0 adds no term.
//
// Per-point (append_point_thermal_rows), for an LP built and solved once;
// k_c is multiplied through and the RHS subtracts one load term at a time:
//
//   node redline r:  sum_j sum_{v in cols_j} w_rj a_v x_v
//                        <= T_red - node_in0_r - w_r1 L_1 - w_r2 L_2 - ...
//   CRAC power c:    sum_j sum_{v in cols_j} k_c w_cj a_v x_v - q_c
//                        <= -k_c (crac_in0_c - tout_c) - k_c w_c1 L_1 - ...
//
// A redline that no column term reaches and constant load alone breaks ends
// the build; one that it does not break constrains nothing and is kept. The
// callers:
//   * Stage 1: node j's segment variables, a_v = 1, L_j = B_j, node j's base
//     power (0 when failed);
//   * the baseline: its FRAC columns, a_v = ppf_j (the node's full
//     P-state-0 core power), L_j = B_j;
//   * the power-aware Stage 3: its rate columns, a_v = etc * pi * (mu_i -
//     mu_idle), the extra draw of running task i over idling (0 for a task
//     that draws the idle power), L_j = B_j plus the idle draw of node j's
//     on cores (0 when failed).
//
// Resident (SweepSession), for the LP a sweep keeps in one session across
// grid points; a_v = 1, L_j = B_j, the RHS subtracts a base sum formed once,
// and the CRAC power row is k-scaled:
//
//   node redline r:  sum_j w_rj sum_{v in cols_j} x_v
//                        <= (T_red - node_in0_r) - sum_j w_rj B_j
//   CRAC power c:    sum_j w_cj sum_{v in cols_j} x_v - q_c / k_c
//                        <= -(crac_in0_c - tout_c) - sum_j w_cj B_j
//
// so the thermal coefficients are setpoint-INDEPENDENT: a move patches
// every redline and CRAC power row's RHS plus -1/k_c per CRAC. An empty
// redline row with a negative RHS is kept, so the structure stays
// point-invariant and the LP reports Infeasible through the normal path.
//
// CRAC redline rows follow the node redline's form with the CRAC inlet
// coefficients, and both forms write the same budget row, which never moves:
//
//   budget:          sum_j sum_{v in cols_j} a_v x_v + sum_c q_c
//                        <= Pconst - (L_1 + L_2 + ...)
//
// The forms have the same feasible set but not the same bits; the published
// plans are the per-point form's, so its arithmetic is the one to keep.
//
// Weak-duality bound. Because the resident block is the only part of the LP
// that moves with the setpoints T', the duals of one solve bound the optimum
// at any other T' without a pivot. For max c.x s.t. rows, lo <= x <= hi, any
// multipliers y with y >= 0 on <= rows and y <= 0 on >= rows give
//
//   c.x <= y.b(T') + sum_v max(d_v lo_v, d_v hi_v),   d = c - A(T')^T y,
//
// which is +inf while a column with hi_v = +inf keeps d_v > 0. A solve's
// duals, clamped to those signs, fix two pieces once (bound_source):
//   * y.b(T') = K + g.T': HeatFlowModel::offsets is linear in T', and every
//     other RHS is fixed;
//   * d on every column but the CRAC power columns q_c, whose coefficient
//     -1/k_c(T') in power row c moves: d_q(T') = d_q0 + y_pc / k_c(T'),
//     with d_q0 = c_q - (the budget row's y_B, if any).
// A candidate T' then costs O(#columns) (bound). q_c is unbounded above,
// so a d_q(T') > 0 is repaired two ways and the smaller bound kept:
//   (a) raise y_B by max_c d_q(T'), which lowers d on every budget column;
//   (b) lower each offending y_pc onto -d_q0 * k_c(T'), which raises d on
//       the node columns by y_pc's drop times the row's coefficients.
// The power-minimization LP has no budget row, so only (b) applies there.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dc/datacenter.h"
#include "solver/lp.h"
#include "solver/session.h"
#include "thermal/heatflow.h"

namespace tapo::core {

// A sweep family's LP but for its thermal block: every column, every row
// that does not move with the setpoints, and the columns the block reads.
struct SweepLp {
  solver::LpProblem lp;
  // node_cols[j] lists the columns whose sum is node j's core power (kW).
  std::vector<std::vector<std::size_t>> node_cols;
  std::vector<std::size_t> crac_power_vars;  // CRAC c's power column
  bool budget_row = false;                   // append the Pconst row
};

// The resident sweep LP: a family's SweepLp with the resident thermal block
// appended, standardized once into an LpSession and re-pointed from grid
// point to grid point. A copy is an independent session; copies share what
// the block records. A never-solved session built at any setpoints, copied
// and moved to P, solves bit for bit as one built at P, so the sweep builds
// one per sweep and copies it at every warm-chain head.
class SweepSession {
 public:
  // Appends the resident form at crac_out0 to base.lp: the node redline,
  // CRAC redline and CRAC power rows, in that order, then the budget row
  // when base.budget_row is set. lp_options supplies the iteration cap, the
  // FT update budget and the telemetry sink; its engine field is ignored (a
  // session is always the revised engine, warm-started by per-solve seeds).
  SweepSession(const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
               SweepLp base, const std::vector<double>& crac_out0,
               const solver::LpOptions& lp_options);

  // Re-points the LP at new setpoints (patch_rhs on every redline and CRAC
  // power row, patch_coefficient of -1/k_c per CRAC).
  void move_to(const std::vector<double>& crac_out);

  // Solves the LP. A non-null seed warm-starts from that basis (chain heads,
  // cross-round seeding); otherwise the previous solve's state is resumed in
  // place.
  solver::LpSolution solve(const solver::LpBasis* seed = nullptr) {
    return session_.solve(seed);
  }

  // Session statistics (patches, FT updates, refactorizations, fallbacks).
  solver::LpSession::Stats stats() const { return session_.stats(); }

  // What one solve's duals fix of the bound (see the file comment).
  struct BoundSource {
    double k = 0.0;                // y.b(T') = k + g.T'
    std::vector<double> g;         // per CRAC
    std::vector<double> d;         // per column; 0 on the CRAC power columns
    std::vector<double> dq0;       // per CRAC: d_q without power row c
    std::vector<double> y_power;   // per CRAC: the power row's multiplier
  };
  // `duals` are one optimal solve's LpSolution::duals, one per row.
  BoundSource bound_source(const std::vector<double>& duals) const;
  // An upper bound on the LP optimum at crac_out (+inf when the source
  // proves nothing there).
  double bound(const BoundSource& source,
               const std::vector<double>& crac_out) const;

 private:
  struct Block;  // what the constructor records; thermal_rows.cpp

  // Appends the block to base.lp and records it with the whole problem.
  static std::shared_ptr<const Block> append(
      const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
      SweepLp& base, const std::vector<double>& crac_out0);

  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  std::shared_ptr<const Block> block_;
  solver::LpSession session_;
};

// node_base_power_kw(j) per node: the constant load L_j of Stage 1's, the
// baseline's and every resident LP's thermal rows.
std::vector<double> base_loads_kw(const dc::DataCenter& dc);

// Appends the per-point form at crac_out: the node redline, CRAC redline and
// CRAC power rows, in that order, then the budget row when with_budget_row
// is set. node_cols[j] lists node j's columns, col_kw[v] is column v's a_v
// (one entry per LP column, read only for the columns in node_cols),
// node_load_kw[j] is L_j and crac_power_vars[c] is CRAC c's power column.
// Returns false, leaving `lp` partly built, when constant load alone breaks
// a redline at crac_out.
bool append_point_thermal_rows(
    solver::LpProblem& lp, const dc::DataCenter& dc,
    const thermal::HeatFlowModel& model,
    const std::vector<std::vector<std::size_t>>& node_cols,
    const std::vector<double>& col_kw, const std::vector<double>& node_load_kw,
    const std::vector<std::size_t>& crac_power_vars,
    const std::vector<double>& crac_out, bool with_budget_row);

}  // namespace tapo::core
