// The setpoint-dependent block of a resident CRAC-sweep LP, shared by the
// persistent Stage-1 and baseline evaluators (core/stage1_lp.h,
// core/baseline_lp.h).
//
// Both LPs constrain the same physics: node and CRAC inlet redlines, one
// CRAC power variable per unit, and the facility power budget, all affine
// in the per-node core powers. The block writes those rows over caller-
// supplied node power columns — Stage 1 passes node j's segment variables,
// the baseline passes its single power column p_j — so each column of node
// j carries node j's thermal coefficients verbatim:
//
//   node redline r:  sum_j w_rj sum_{v in cols_j} x_v <= (T_red - node_in0_r)
//                                                        - sum_j w_rj B_j
//   CRAC redline c:  likewise with the CRAC inlet coefficients
//   CRAC power c:    sum_j w_cj sum_{v in cols_j} x_v - q_c / k_c
//                        <= -(crac_in0_c - tout_c) - sum_j w_cj B_j
//   budget:          sum_j sum_{v in cols_j} x_v + sum_c q_c <= Pconst - B
//
// The CRAC power row is carried k-scaled (the per-point builders multiply
// through by k_c = rho*Cp*F_c / CoP(tout_c)), so the thermal coefficients are
// setpoint-INDEPENDENT: a move to new setpoints patches every redline and
// CRAC power row's RHS plus the -1/k_c coefficient per CRAC, and the budget
// row never moves. Failed nodes contribute no base power (node_base_power_kw).
//
// A redline row may be empty (no adjustable node reaches it) with a negative
// RHS when base load alone breaks the redline; it is kept rather than
// short-circuited, so the row structure stays point-invariant and the LP
// reports Infeasible through the normal path.
#pragma once

#include <cstddef>
#include <vector>

#include "dc/datacenter.h"
#include "solver/lp.h"
#include "solver/session.h"
#include "thermal/heatflow.h"

namespace tapo::core {

class ResidentThermalRows {
 public:
  ResidentThermalRows(const dc::DataCenter& dc,
                      const thermal::HeatFlowModel& model);

  // Appends the node redline, CRAC redline and CRAC power rows at crac_out0,
  // in that order, followed by the budget row when with_budget_row is set.
  // node_cols[j] lists the columns whose sum is node j's core power (kW);
  // crac_power_vars[c] is CRAC c's power column.
  void append(solver::LpProblem& lp,
              const std::vector<std::vector<std::size_t>>& node_cols,
              const std::vector<std::size_t>& crac_power_vars,
              const std::vector<double>& crac_out0, bool with_budget_row);

  // Re-points the appended rows at new setpoints (patch_rhs on every
  // redline and CRAC power row, patch_coefficient of -1/k_c per CRAC).
  void move_to(solver::LpSession& session,
               const std::vector<double>& crac_out) const;

 private:
  static double inv_k(const dc::CracSpec& crac, double tout);

  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;

  std::vector<std::size_t> crac_power_vars_;
  std::size_t node_row0_ = 0;
  std::size_t crac_row0_ = 0;
  std::size_t power_row0_ = 0;

  // Setpoint-independent RHS base terms (sum over nodes of w * base power,
  // accumulated in the same order as the per-point builders).
  std::vector<double> node_rhs_base_, crac_rhs_base_, power_rhs_base_;
};

}  // namespace tapo::core
