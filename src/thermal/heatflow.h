// Abstract heat-flow model (Tang et al.; Section IV of the paper).
//
// Inlet temperatures are linear combinations of outlet temperatures,
// Tin = A_hat * Tout, where the coefficient for (source i -> sink j) is
// alpha(i,j) * F_i / F_j; flow balance makes every inlet a convex
// combination of outlets. Node outlet temperatures satisfy
//   Tout_n = Tin_n + P_n / (rho * Cp * F_n)                        (Eq. 4)
// so for fixed CRAC outlet temperatures the steady state solves the linear
// fixed point (I - G_nn) Tout_nodes = G_nc * Tcrac_out + D * P. This module
// factors that system once per data center and exposes both a direct solve
// and the affine sensitivity of every inlet temperature (and of the total
// CRAC power at fixed outlet setpoints) to the node power vector - the rows
// the Stage-1 and baseline LPs are built from.
#pragma once

#include <optional>
#include <vector>

#include "dc/datacenter.h"
#include "solver/lu.h"
#include "solver/matrix.h"
#include "util/status.h"

namespace tapo::thermal {

struct Temperatures {
  std::vector<double> crac_in;   // NCRAC
  std::vector<double> crac_out;  // NCRAC (inputs, echoed)
  std::vector<double> node_in;   // NCN
  std::vector<double> node_out;  // NCN
};

// Affine response of the thermal state to node power at fixed CRAC outlets:
//   node_in  = node_in0  + node_in_coeff  * p
//   crac_in  = crac_in0  + crac_in_coeff  * p
// where p is the NCN-vector of *total* node powers in kW.
struct LinearResponse {
  std::vector<double> crac_out;  // the fixed setpoints this response is for
  std::vector<double> node_in0;
  solver::Matrix node_in_coeff;  // NCN x NCN
  std::vector<double> crac_in0;
  solver::Matrix crac_in_coeff;  // NCRAC x NCN
};

// The inlet mixing matrix G(j, i) = alpha(i, j) * F_i / F_j: the weight of
// source i's outlet in sink j's inlet, entities ordered CRACs then nodes.
// The one statement of what a valid alpha is: sized to the data center,
// entries finite and non-negative, and every row of G summing to 1 (inlet
// flow balance, Appendix B constraint 2). Anything else is INVALID_ARGUMENT,
// so the archive loader can reject the alpha HeatFlowModel would refuse.
util::StatusOr<solver::Matrix> inlet_mixing(const dc::DataCenter& dc);

class HeatFlowModel {
 public:
  // Builds A_hat via inlet_mixing() and factors (I - G_nn). Aborts
  // (TAPO_CHECK) when inlet_mixing() fails or (I - G_nn) is singular.
  explicit HeatFlowModel(const dc::DataCenter& dc);

  // Steady-state temperatures for given CRAC outlet setpoints and node
  // powers (kW, length NCN).
  Temperatures solve(const std::vector<double>& crac_out,
                     const std::vector<double>& node_power) const;

  LinearResponse linearize(const std::vector<double>& crac_out) const;

  // The setpoint-dependent part of LinearResponse alone. The coefficient
  // blocks are CRAC-independent (see node_in_coeff()/crac_in_coeff()), so a
  // caller that keeps a resident LP across grid points — the persistent
  // Stage-1 evaluator — re-reads only these offsets per point instead of
  // copying the full matrices. linearize() is implemented on top of this,
  // so the two views are arithmetically identical.
  struct AffineOffsets {
    std::vector<double> node_in0;  // NCN
    std::vector<double> crac_in0;  // NCRAC
  };
  AffineOffsets offsets(const std::vector<double>& crac_out) const;

  // CRAC-independent inlet sensitivities to node power (kW), precomputed in
  // the constructor: node_in_coeff()(j, i) is degC at node j's inlet per kW
  // at node i; crac_in_coeff() likewise for CRAC inlets.
  const solver::Matrix& node_in_coeff() const { return node_in_coeff_; }
  const solver::Matrix& crac_in_coeff() const { return crac_in_coeff_; }

  // Total electrical CRAC power for a steady state (sum of Eq. 3 over units).
  double total_crac_power_kw(const Temperatures& temps) const;

  // True when every inlet respects its redline.
  bool within_redlines(const Temperatures& temps) const;

  // Convenience: inlet-to-outlet heating of node j per kW (1/(rho*Cp*F_j)).
  double node_heating_per_kw(std::size_t node) const;

  const solver::Matrix& inlet_matrix() const { return g_; }

 private:
  const dc::DataCenter& dc_;
  // g_(j, i): weight of outlet i in inlet j; entities CRACs-first.
  solver::Matrix g_;
  solver::Matrix g_nc_, g_nn_, g_cc_, g_cn_;
  std::optional<solver::LuFactorization> fixed_point_;  // LU of (I - G_nn)
  std::vector<double> heating_;          // per node, degC per kW
  // The power-sensitivity blocks of LinearResponse do not depend on the CRAC
  // setpoints, so the O(n^3) solve/multiply chain behind them runs once here
  // and linearize() only rebuilds the affine offsets (O(n^2) per call). The
  // CRAC grid sweep calls linearize() per grid point, so this is the
  // difference between the sweep being thermal-bound and LP-bound.
  solver::Matrix node_in_coeff_;  // G_nn (I-G_nn)^-1 D
  solver::Matrix crac_in_coeff_;  // G_cn (I-G_nn)^-1 D
};

}  // namespace tapo::thermal
