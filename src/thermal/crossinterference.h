// Cross-interference coefficient generation (Appendix B of the paper).
//
// The paper replaces per-node CFD runs with a feasibility problem over the
// air-flow fractions alpha(i, j): outlet fractions of every entity sum to 1,
// inlet flows balance (sum_i alpha(i,j) F_i = F_j), node->CRAC exit
// coefficients stay inside the Table-II ranges split across CRAC units by
// the hot-aisle matrix M, and each node's recirculation coefficient stays
// inside its label's range. In absolute flows f_ij = alpha(i,j) * F_i this
// constraint set is a transportation polytope with arc bounds, which we
// solve as a feasible circulation (max-flow with lower bounds). Randomness
// enters by drawing per-node EC/RC targets inside the Table-II ranges and
// tightening the arc bounds around them; if a draw is jointly infeasible the
// generator widens the bounds back toward the full ranges and retries. The
// strict Table-II polytope itself can be empty: each rack's bottom labels
// emit more node-to-node air (1-EC up to 70% of their flow) than the RC
// ranges let the other nodes absorb, and with a partial last rack the label
// mix makes this unavoidable. The generator then widens the EC and RC upper
// bounds in small steps until a feasible pattern exists (the applied widening
// is reported via GenerationInfo).
#pragma once

#include <optional>

#include "dc/layout.h"
#include "solver/matrix.h"
#include "util/rng.h"

namespace tapo::thermal {

struct EcRcRange {
  double ec_min, ec_max;  // exit coefficient (fraction of node outlet to CRACs)
  double rc_min, rc_max;  // recirculation coefficient (node-origin share of inlet)
};

// Table II of the paper: ranges per rack-position label (A bottom .. E top).
EcRcRange table2_range(dc::RackLabel label);

struct GenerationInfo {
  std::size_t attempts = 0;
  // Widening applied on top of the Table-II EC/RC upper bounds (0 = strict).
  double range_relaxation = 0.0;
};

// flows: entity air flows, CRACs first then nodes (length NCRAC + NCN).
// Returns alpha ((NCRAC+NCN)^2) or nullopt when even the full Table-II
// ranges admit no feasible flow pattern (e.g. inconsistent flow totals).
std::optional<solver::Matrix> generate_cross_interference(
    const dc::Layout& layout, const std::vector<double>& flows, util::Rng& rng,
    GenerationInfo* info = nullptr);

struct AlphaCheckResult {
  bool ok = false;
  double max_outflow_error = 0.0;      // |row sum - 1|
  double max_flow_balance_error = 0.0; // |sum_i alpha(i,j) F_i - F_j| / F_j
  double max_ec_violation = 0.0;       // distance outside Table-II EC range
  double max_rc_violation = 0.0;       // distance outside Table-II RC range
};

// Verifies all Appendix-B constraints for an alpha matrix. range_tolerance
// accepts EC/RC values that exceed the Table-II upper bounds by at most that
// amount (pass GenerationInfo::range_relaxation for relaxed matrices).
AlphaCheckResult verify_cross_interference(const solver::Matrix& alpha,
                                           const dc::Layout& layout,
                                           const std::vector<double>& flows,
                                           double range_tolerance = 0.0);

}  // namespace tapo::thermal
