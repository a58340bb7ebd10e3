#include "core/thermal_rows.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "dc/crac.h"
#include "util/check.h"

namespace tapo::core {

namespace {

using Terms = std::vector<std::pair<std::size_t, double>>;

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

// Appends row r of `coeff` times k over the node columns: each column v of
// node j at w_j * col_kw[v], w_j = k * coeff(r, j), nodes with w_j == 0 and
// columns with col_kw[v] == 0 skipped. base(w_j * load[j]) receives each
// node's constant-load term in node order; the per-point form subtracts them
// from the RHS one by one, the resident form sums them into a base first.
template <class BaseTerm>
void node_terms(const solver::Matrix& coeff, std::size_t r, double k,
                const std::vector<std::vector<std::size_t>>& node_cols,
                const std::vector<double>& col_kw,
                const std::vector<double>& load, Terms& terms,
                BaseTerm&& base) {
  for (std::size_t j = 0; j < node_cols.size(); ++j) {
    const double w = k * coeff(r, j);
    if (w == 0.0) continue;
    base(w * load[j]);
    for (std::size_t v : node_cols[j]) {
      if (col_kw[v] != 0.0) terms.emplace_back(v, w * col_kw[v]);
    }
  }
}

// The budget row of both forms; returns its RHS, Pconst - sum_j load_j with
// the loads summed in node order.
double add_budget_row(solver::LpProblem& lp, double p_const_kw,
                      const std::vector<std::vector<std::size_t>>& node_cols,
                      const std::vector<double>& col_kw,
                      const std::vector<double>& load,
                      const std::vector<std::size_t>& crac_power_vars) {
  Terms terms;
  for (const std::vector<std::size_t>& cols : node_cols) {
    for (std::size_t v : cols) {
      if (col_kw[v] != 0.0) terms.emplace_back(v, col_kw[v]);
    }
  }
  for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
  double total_load = 0.0;
  for (double p : load) total_load += p;
  const double rhs = p_const_kw - total_load;
  lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  return rhs;
}

// k_c = rho*Cp*F_c / CoP(tout_c): the per-point form multiplies CRAC c's
// power row through by it.
double crac_k(const dc::CracSpec& crac, double tout) {
  return dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
         crac.cop(tout);
}

// 1/k_c: the resident form carries -1/k_c on the CRAC power variable so the
// thermal coefficients stay fixed.
double inv_k(const dc::CracSpec& crac, double tout) {
  return crac.cop(tout) /
         (dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s);
}

// A dual clamped to its row's sign: >= 0 on <= rows, <= 0 on >= rows.
double sign_clamped(double y, solver::Relation rel) {
  switch (rel) {
    case solver::Relation::LessEq:
      return std::max(0.0, y);
    case solver::Relation::GreaterEq:
      return std::min(0.0, y);
    case solver::Relation::Equal:
      break;
  }
  return y;
}

// max(d lo, d hi) over lo <= x <= hi, with hi possibly +inf.
double box_max(double d, double lo, double hi) {
  if (hi == kInf) return d > 0.0 ? kInf : d * lo;
  return std::max(d * lo, d * hi);
}

}  // namespace

struct SweepSession::Block {
  std::vector<std::size_t> crac_power_vars;
  std::size_t node_row0 = 0;
  std::size_t crac_row0 = 0;
  std::size_t power_row0 = 0;
  bool budget = false;  // the budget row follows the CRAC power rows
  double budget_rhs = 0.0;

  // Setpoint-independent RHS base terms (sum over nodes of w * base power,
  // accumulated in the same order as the per-point builders).
  std::vector<double> node_rhs_base, crac_rhs_base, power_rhs_base;

  // The rest of the problem, as the bound reads it: per column its cost,
  // box and node (kNoNode off the node power columns), and the caller's
  // rows ahead of this block, verbatim.
  std::vector<double> cost, lo, hi;
  std::vector<std::size_t> node_of;
  struct Row {
    Terms terms;
    solver::Relation rel;
    double rhs;
  };
  std::vector<Row> rows;
  // HeatFlowModel::offsets at each unit setpoint vector e_c; offsets is
  // linear, so offsets(T') = sum_c T'_c unit[c].
  std::vector<thermal::HeatFlowModel::AffineOffsets> unit;

  // (M T')_c of the CRAC inlet offsets.
  double crac_in0(std::size_t c, const std::vector<double>& crac_out) const {
    double t = 0.0;
    for (std::size_t e = 0; e < unit.size(); ++e) {
      t += unit[e].crac_in0[c] * crac_out[e];
    }
    return t;
  }
};

SweepSession::SweepSession(const dc::DataCenter& dc,
                           const thermal::HeatFlowModel& model, SweepLp base,
                           const std::vector<double>& crac_out0,
                           const solver::LpOptions& lp_options)
    : dc_(dc),
      model_(model),
      block_(append(dc, model, base, crac_out0)),
      session_(base.lp, lp_options) {}

std::shared_ptr<const SweepSession::Block> SweepSession::append(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    SweepLp& base, const std::vector<double>& crac_out0) {
  solver::LpProblem& lp = base.lp;
  const std::vector<std::vector<std::size_t>>& node_cols = base.node_cols;
  const std::vector<std::size_t>& crac_power_vars = base.crac_power_vars;
  const std::size_t nn = dc.num_nodes();
  const std::size_t nc = dc.num_cracs();
  TAPO_CHECK(node_cols.size() == nn);
  TAPO_CHECK(crac_power_vars.size() == nc);
  TAPO_CHECK(crac_out0.size() == nc);
  Block b;
  b.crac_power_vars = crac_power_vars;

  const thermal::HeatFlowModel::AffineOffsets off = model.offsets(crac_out0);
  const solver::Matrix& node_coeff = model.node_in_coeff();
  const solver::Matrix& crac_coeff = model.crac_in_coeff();

  b.node_row0 = lp.num_constraints();
  for (std::size_t r = 0; r < b.node_row0; ++r) {
    b.rows.push_back({lp.row(r), lp.relation(r), lp.rhs(r)});
  }
  // Row r's terms and their base sum sum_j w_rj B_j.
  const std::vector<double> ones(lp.num_vars(), 1.0);
  const std::vector<double> base_load = base_loads_kw(dc);
  const auto resident_terms = [&](const solver::Matrix& coeff, std::size_t r,
                                  Terms& terms) {
    double rhs_base = 0.0;
    node_terms(coeff, r, 1.0, node_cols, ones, base_load, terms,
               [&rhs_base](double wb) { rhs_base += wb; });
    return rhs_base;
  };
  const auto add_redlines = [&](const solver::Matrix& coeff,
                                const std::vector<double>& in0, double redline,
                                std::vector<double>& rhs_base) {
    rhs_base.assign(in0.size(), 0.0);
    for (std::size_t r = 0; r < in0.size(); ++r) {
      Terms terms;
      rhs_base[r] = resident_terms(coeff, r, terms);
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        (redline - in0[r]) - rhs_base[r]);
    }
  };
  add_redlines(node_coeff, off.node_in0, dc.redline_node_c, b.node_rhs_base);
  b.crac_row0 = lp.num_constraints();
  add_redlines(crac_coeff, off.crac_in0, dc.redline_crac_c, b.crac_rhs_base);
  b.power_row0 = lp.num_constraints();
  b.power_rhs_base.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    Terms terms;
    b.power_rhs_base[c] = resident_terms(crac_coeff, c, terms);
    terms.emplace_back(crac_power_vars[c], -inv_k(dc.cracs[c], crac_out0[c]));
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      -(off.crac_in0[c] - crac_out0[c]) - b.power_rhs_base[c]);
  }
  if (base.budget_row) {
    b.budget = true;
    b.budget_rhs = add_budget_row(lp, dc.p_const_kw, node_cols, ones,
                                  base_load, crac_power_vars);
  }

  const std::size_t n = lp.num_vars();
  b.cost.resize(n);
  b.lo.resize(n);
  b.hi.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    b.cost[v] = lp.objective_coeff(v);
    b.lo[v] = lp.lower_bound(v);
    b.hi[v] = lp.upper_bound(v);
  }
  b.node_of.assign(n, kNoNode);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : node_cols[j]) b.node_of[v] = j;
  }
  for (std::size_t v : crac_power_vars) TAPO_CHECK(b.lo[v] == 0.0);
  std::vector<double> e(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    e[c] = 1.0;
    b.unit.push_back(model.offsets(e));
    e[c] = 0.0;
  }
  return std::make_shared<const Block>(std::move(b));
}

void SweepSession::move_to(const std::vector<double>& crac_out) {
  const Block& b = *block_;
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);
  const thermal::HeatFlowModel::AffineOffsets off = model_.offsets(crac_out);
  for (std::size_t r = 0; r < nn; ++r) {
    session_.patch_rhs(b.node_row0 + r,
                       (dc_.redline_node_c - off.node_in0[r]) -
                           b.node_rhs_base[r]);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session_.patch_rhs(b.crac_row0 + c,
                       (dc_.redline_crac_c - off.crac_in0[c]) -
                           b.crac_rhs_base[c]);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    session_.patch_coefficient(b.power_row0 + c, b.crac_power_vars[c],
                               -inv_k(dc_.cracs[c], crac_out[c]));
    session_.patch_rhs(b.power_row0 + c,
                       -(off.crac_in0[c] - crac_out[c]) - b.power_rhs_base[c]);
  }
}

SweepSession::BoundSource SweepSession::bound_source(
    const std::vector<double>& duals) const {
  const Block& b = *block_;
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(duals.size() == b.power_row0 + nc + (b.budget ? 1 : 0));
  BoundSource s;
  s.d = b.cost;
  s.g.assign(nc, 0.0);

  // The caller's rows: fixed RHS, fixed coefficients.
  for (std::size_t r = 0; r < b.node_row0; ++r) {
    const double y = sign_clamped(duals[r], b.rows[r].rel);
    if (y == 0.0) continue;
    s.k += y * b.rows[r].rhs;
    for (const auto& [v, a] : b.rows[r].terms) s.d[v] -= y * a;
  }
  const double y_budget =
      b.budget ? std::max(0.0, duals[b.power_row0 + nc]) : 0.0;
  s.k += y_budget * b.budget_rhs;

  // The thermal rows, all <=: u_j = sum_r y_r w_rj is what they take off
  // the reduced cost of each of node j's columns.
  std::vector<double> u(nn, y_budget);
  for (std::size_t r = 0; r < nn; ++r) {
    const double y = std::max(0.0, duals[b.node_row0 + r]);
    if (y == 0.0) continue;
    s.k += y * (dc_.redline_node_c - b.node_rhs_base[r]);
    for (std::size_t c = 0; c < nc; ++c) s.g[c] -= y * b.unit[c].node_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      u[j] += y * model_.node_in_coeff()(r, j);
    }
  }
  s.y_power.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    const double y_red = std::max(0.0, duals[b.crac_row0 + c]);
    const double y_pow = std::max(0.0, duals[b.power_row0 + c]);
    s.y_power[c] = y_pow;
    const double y = y_red + y_pow;
    if (y == 0.0) continue;
    s.k += y_red * (dc_.redline_crac_c - b.crac_rhs_base[c]) -
           y_pow * b.power_rhs_base[c];
    s.g[c] += y_pow;
    for (std::size_t e = 0; e < nc; ++e) s.g[e] -= y * b.unit[e].crac_in0[c];
    for (std::size_t j = 0; j < nn; ++j) {
      u[j] += y * model_.crac_in_coeff()(c, j);
    }
  }
  for (std::size_t v = 0; v < s.d.size(); ++v) {
    if (b.node_of[v] != kNoNode) s.d[v] -= u[b.node_of[v]];
  }
  s.dq0.assign(nc, 0.0);
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t q = b.crac_power_vars[c];
    s.dq0[c] = s.d[q] - y_budget;
    s.d[q] = 0.0;
  }
  return s;
}

double SweepSession::bound(const BoundSource& s,
                           const std::vector<double>& crac_out) const {
  const Block& b = *block_;
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);
  double yb = s.k;
  for (std::size_t c = 0; c < nc; ++c) yb += s.g[c] * crac_out[c];

  // sum_v max(d_v lo_v, d_v hi_v) over every column but the CRAC power
  // columns, with d_v shifted by shift(node of v).
  const auto box_sum = [&](auto&& shift) {
    double sum = 0.0;
    for (std::size_t v = 0; v < s.d.size(); ++v) {
      const std::size_t j = b.node_of[v];
      sum += box_max(j == kNoNode ? s.d[v] : s.d[v] + shift(j), b.lo[v],
                     b.hi[v]);
    }
    return sum;
  };

  std::vector<double> inv(nc);
  double worst = 0.0;  // the largest d_q(T') > 0, if any
  for (std::size_t c = 0; c < nc; ++c) {
    inv[c] = inv_k(dc_.cracs[c], crac_out[c]);
    worst = std::max(worst, s.dq0[c] + s.y_power[c] * inv[c]);
  }
  if (worst == 0.0) return yb + box_sum([](std::size_t) { return 0.0; });

  double best = kInf;
  if (b.budget) {  // (a) raise y_B by `worst`
    best = yb + worst * b.budget_rhs +
           box_sum([worst](std::size_t) { return -worst; });
  }
  // (b) lower each offending y_pc onto -dq0 / inv_k (>= 0 only if dq0 <= 0).
  std::vector<double> shift(nn, 0.0);
  double yb_b = yb;
  for (std::size_t c = 0; c < nc; ++c) {
    if (s.dq0[c] + s.y_power[c] * inv[c] <= 0.0) continue;
    if (s.dq0[c] > 0.0) return best;
    const double drop = s.y_power[c] + s.dq0[c] / inv[c];
    const double power_rhs =
        crac_out[c] - b.crac_in0(c, crac_out) - b.power_rhs_base[c];
    yb_b -= drop * power_rhs;
    for (std::size_t j = 0; j < nn; ++j) {
      shift[j] += drop * model_.crac_in_coeff()(c, j);
    }
  }
  return std::min(best, yb_b + box_sum([&shift](std::size_t j) {
                          return shift[j];
                        }));
}

std::vector<double> base_loads_kw(const dc::DataCenter& dc) {
  std::vector<double> load(dc.num_nodes());
  for (std::size_t j = 0; j < load.size(); ++j) {
    load[j] = dc.node_base_power_kw(j);
  }
  return load;
}

bool append_point_thermal_rows(
    solver::LpProblem& lp, const dc::DataCenter& dc,
    const thermal::HeatFlowModel& model,
    const std::vector<std::vector<std::size_t>>& node_cols,
    const std::vector<double>& col_kw, const std::vector<double>& node_load_kw,
    const std::vector<std::size_t>& crac_power_vars,
    const std::vector<double>& crac_out, bool with_budget_row) {
  const std::size_t nc = dc.num_cracs();
  TAPO_CHECK(node_cols.size() == dc.num_nodes());
  TAPO_CHECK(node_load_kw.size() == dc.num_nodes());
  TAPO_CHECK(col_kw.size() == lp.num_vars());
  TAPO_CHECK(crac_power_vars.size() == nc);
  TAPO_CHECK(crac_out.size() == nc);
  const thermal::HeatFlowModel::AffineOffsets off = model.offsets(crac_out);

  // One row per inlet; false when constant load alone breaks a redline at
  // these setpoints.
  const auto add_redlines = [&](const solver::Matrix& coeff,
                                const std::vector<double>& in0,
                                double redline) {
    for (std::size_t r = 0; r < in0.size(); ++r) {
      Terms terms;
      double rhs = redline - in0[r];
      node_terms(coeff, r, 1.0, node_cols, col_kw, node_load_kw, terms,
                 [&rhs](double wb) { rhs -= wb; });
      if (rhs < 0.0 && terms.empty()) return false;
      lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
    }
    return true;
  };
  if (!add_redlines(model.node_in_coeff(), off.node_in0, dc.redline_node_c) ||
      !add_redlines(model.crac_in_coeff(), off.crac_in0, dc.redline_crac_c)) {
    return false;
  }
  for (std::size_t c = 0; c < nc; ++c) {
    const double k = crac_k(dc.cracs[c], crac_out[c]);
    Terms terms;
    double rhs = -k * (off.crac_in0[c] - crac_out[c]);
    node_terms(model.crac_in_coeff(), c, k, node_cols, col_kw, node_load_kw,
               terms, [&rhs](double wb) { rhs -= wb; });
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }
  if (with_budget_row) {
    add_budget_row(lp, dc.p_const_kw, node_cols, col_kw, node_load_kw,
                   crac_power_vars);
  }
  return true;
}

}  // namespace tapo::core
