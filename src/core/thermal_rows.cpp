#include "core/thermal_rows.h"

#include <utility>

#include "dc/crac.h"
#include "util/check.h"

namespace tapo::core {

namespace {

using Terms = std::vector<std::pair<std::size_t, double>>;

// One thermal row's adjustable terms (every column of node j at weight
// coeff(r, j)) and its setpoint-independent base term sum_j w_rj B_j.
double thermal_terms(const dc::DataCenter& dc, const solver::Matrix& coeff,
                     std::size_t r,
                     const std::vector<std::vector<std::size_t>>& node_cols,
                     Terms& terms) {
  double rhs_base = 0.0;
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    const double w = coeff(r, j);
    if (w == 0.0) continue;
    rhs_base += w * dc.node_base_power_kw(j);
    for (std::size_t v : node_cols[j]) terms.emplace_back(v, w);
  }
  return rhs_base;
}

}  // namespace

ResidentThermalRows::ResidentThermalRows(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

double ResidentThermalRows::inv_k(const dc::CracSpec& crac, double tout) {
  // k_c = rho*Cp*F_c / CoP(tout_c); the resident row carries -1/k_c on the
  // CRAC power variable so the thermal coefficients stay fixed.
  return crac.cop(tout) /
         (dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s);
}

void ResidentThermalRows::append(
    solver::LpProblem& lp,
    const std::vector<std::vector<std::size_t>>& node_cols,
    const std::vector<std::size_t>& crac_power_vars,
    const std::vector<double>& crac_out0, bool with_budget_row) {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(node_cols.size() == nn);
  TAPO_CHECK(crac_power_vars.size() == nc);
  TAPO_CHECK(crac_out0.size() == nc);
  crac_power_vars_ = crac_power_vars;

  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out0);
  const solver::Matrix& node_coeff = model_.node_in_coeff();
  const solver::Matrix& crac_coeff = model_.crac_in_coeff();

  node_row0_ = lp.num_constraints();
  node_rhs_base_.assign(nn, 0.0);
  for (std::size_t r = 0; r < nn; ++r) {
    Terms terms;
    node_rhs_base_[r] = thermal_terms(dc_, node_coeff, r, node_cols, terms);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      (dc_.redline_node_c - off.node_in0[r]) -
                          node_rhs_base_[r]);
  }
  crac_row0_ = lp.num_constraints();
  crac_rhs_base_.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    Terms terms;
    crac_rhs_base_[c] = thermal_terms(dc_, crac_coeff, c, node_cols, terms);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      (dc_.redline_crac_c - off.crac_in0[c]) -
                          crac_rhs_base_[c]);
  }
  power_row0_ = lp.num_constraints();
  power_rhs_base_.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    Terms terms;
    power_rhs_base_[c] = thermal_terms(dc_, crac_coeff, c, node_cols, terms);
    terms.emplace_back(crac_power_vars_[c],
                       -inv_k(dc_.cracs[c], crac_out0[c]));
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      -(off.crac_in0[c] - crac_out0[c]) - power_rhs_base_[c]);
  }

  if (with_budget_row) {
    Terms terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t v : node_cols[j]) terms.emplace_back(v, 1.0);
    }
    for (std::size_t v : crac_power_vars_) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - dc_.total_base_power_kw());
  }
}

void ResidentThermalRows::move_to(solver::LpSession& session,
                                  const std::vector<double>& crac_out) const {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);
  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out);
  for (std::size_t r = 0; r < nn; ++r) {
    session.patch_rhs(node_row0_ + r, (dc_.redline_node_c - off.node_in0[r]) -
                                          node_rhs_base_[r]);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session.patch_rhs(crac_row0_ + c, (dc_.redline_crac_c - off.crac_in0[c]) -
                                          crac_rhs_base_[c]);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session.patch_coefficient(power_row0_ + c, crac_power_vars_[c],
                              -inv_k(dc_.cracs[c], crac_out[c]));
    session.patch_rhs(power_row0_ + c,
                      -(off.crac_in0[c] - crac_out[c]) - power_rhs_base_[c]);
  }
}

}  // namespace tapo::core
