#include "solver/lp.h"

#include <algorithm>
#include <cmath>

#include "solver/revised_core.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::solver {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterLimit: return "iteration-limit";
  }
  return "?";
}

std::size_t LpProblem::add_variable(double lo, double hi, double obj) {
  TAPO_CHECK_MSG(std::isfinite(lo), "variable lower bound must be finite");
  TAPO_CHECK_MSG(hi >= lo, "variable bounds crossed");
  lo_.push_back(lo);
  hi_.push_back(hi);
  obj_.push_back(obj);
  return lo_.size() - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<std::size_t, double>> terms,
                               Relation rel, double rhs) {
  for (const auto& [v, coeff] : terms) {
    TAPO_CHECK_MSG(v < num_vars(), "constraint references unknown variable");
    (void)coeff;
  }
  rows_.push_back(std::move(terms));
  rel_.push_back(rel);
  rhs_.push_back(rhs);
}

void LpProblem::patch_rhs(std::size_t r, double rhs) {
  TAPO_CHECK_MSG(r < num_constraints(), "patch_rhs: unknown row");
  rhs_[r] = rhs;
}

void LpProblem::patch_coefficient(std::size_t r, std::size_t v, double coeff) {
  TAPO_CHECK_MSG(r < num_constraints(), "patch_coefficient: unknown row");
  TAPO_CHECK_MSG(v < num_vars(), "patch_coefficient: unknown variable");
  std::size_t hits = 0;
  for (auto& [var, value] : rows_[r]) {
    if (var != v) continue;
    value = coeff;
    ++hits;
  }
  TAPO_CHECK_MSG(hits == 1,
                 "patch_coefficient: term must exist exactly once in the row "
                 "(add a 0.0 placeholder at build time)");
}

LpProblem::SparseColumns LpProblem::columns() const {
  SparseColumns csc;
  const std::size_t n = num_vars();
  std::vector<std::size_t> count(n, 0);
  std::size_t nnz = 0;
  for (const auto& row : rows_) {
    for (const auto& [v, coeff] : row) {
      (void)coeff;
      ++count[v];
      ++nnz;
    }
  }
  csc.starts.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) csc.starts[v + 1] = csc.starts[v] + count[v];
  csc.rows.resize(nnz);
  csc.values.resize(nnz);
  std::vector<std::size_t> fill(csc.starts.begin(), csc.starts.end() - 1);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (const auto& [v, coeff] : rows_[r]) {
      const std::size_t k = fill[v]++;
      csc.rows[k] = r;
      csc.values[k] = coeff;
    }
  }
  // Coalesce duplicate (row, variable) terms. Rows were scanned in order, so
  // each column's entries are already row-sorted and duplicates are adjacent;
  // the write cursor never overtakes the read cursor.
  std::size_t w = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t begin = csc.starts[v];
    const std::size_t end = csc.starts[v + 1];
    csc.starts[v] = w;
    for (std::size_t k = begin; k < end; ++k) {
      if (w > csc.starts[v] && csc.rows[w - 1] == csc.rows[k]) {
        csc.values[w - 1] += csc.values[k];
      } else {
        csc.rows[w] = csc.rows[k];
        csc.values[w] = csc.values[k];
        ++w;
      }
    }
  }
  csc.starts[n] = w;
  csc.rows.resize(w);
  csc.values.resize(w);
  return csc;
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  TAPO_CHECK(x.size() == num_vars());
  double s = 0.0;
  for (std::size_t v = 0; v < num_vars(); ++v) s += obj_[v] * x[v];
  return s;
}

double LpProblem::max_violation(const std::vector<double>& x) const {
  TAPO_CHECK(x.size() == num_vars());
  double worst = 0.0;
  for (std::size_t v = 0; v < num_vars(); ++v) {
    worst = std::max(worst, lo_[v] - x[v]);
    if (std::isfinite(hi_[v])) worst = std::max(worst, x[v] - hi_[v]);
  }
  for (std::size_t r = 0; r < rel_.size(); ++r) {
    double lhs = 0.0;
    for (const auto& [v, coeff] : rows_[r]) lhs += coeff * x[v];
    switch (rel_[r]) {
      case Relation::LessEq: worst = std::max(worst, lhs - rhs_[r]); break;
      case Relation::GreaterEq: worst = std::max(worst, rhs_[r] - lhs); break;
      case Relation::Equal: worst = std::max(worst, std::fabs(lhs - rhs_[r])); break;
    }
  }
  return std::max(worst, 0.0);
}

namespace {

enum class VarStatus : unsigned char { AtLower, AtUpper, Basic };

}  // namespace

// Dense bounded-variable simplex working on the standardized system
//   A z = b,  0 <= z_j <= ub_j,
// where z are the shifted structural variables followed by one logical
// (slack) variable per row and, when needed, phase-1 artificials.
class SimplexSolver {
 public:
  SimplexSolver(const LpProblem& p, const LpOptions& opt) : p_(p), opt_(opt) {
    m_ = p.num_constraints();
    n_struct_ = p.num_vars();
  }

  LpSolution run();

 private:
  void build_standard_form();
  void price_out_objective();
  // Returns true when the current phase reached optimality, false on
  // unbounded (phase 2 only).
  bool iterate(bool phase1);
  bool choose_entering(bool bland, std::size_t& enter, int& dir) const;
  void apply_pivot(std::size_t enter, int dir, std::size_t pivot_row, double delta,
                   bool leaving_at_upper);
  LpSolution extract(LpStatus status) const;

  const LpProblem& p_;
  LpOptions opt_;

  std::size_t m_ = 0;         // rows
  std::size_t n_struct_ = 0;  // structural variables
  std::size_t n_total_ = 0;   // structural + slacks + artificials

  // Dense tableau: B^{-1} A, m_ rows by n_total_ columns.
  std::vector<std::vector<double>> tab_;
  std::vector<double> xb_;           // current basic variable values
  std::vector<std::size_t> basis_;   // variable index basic in each row
  std::vector<VarStatus> status_;    // per variable
  std::vector<double> ub_;           // per variable upper bound (shifted space)
  std::vector<double> d_;            // objective row (reduced costs)
  std::vector<double> rel_sign_;     // -1 for GreaterEq rows, +1 otherwise
  std::size_t first_artificial_ = 0;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
};

void SimplexSolver::build_standard_form() {
  // Dense rows over structural variables, shifted so every lower bound is 0.
  // b' = b - A*lo ; GreaterEq rows negated to LessEq before adding slacks.
  std::vector<std::vector<double>> rows(m_, std::vector<double>(n_struct_, 0.0));
  std::vector<double> rhs(m_);
  std::vector<bool> is_equality(m_);
  rel_sign_.assign(m_, 1.0);

  for (std::size_t r = 0; r < m_; ++r) {
    double b = p_.rhs_[r];
    for (const auto& [v, coeff] : p_.rows_[r]) {
      rows[r][v] += coeff;
      b -= coeff * p_.lo_[v];
    }
    is_equality[r] = p_.rel_[r] == Relation::Equal;
    if (p_.rel_[r] == Relation::GreaterEq) {
      for (auto& c : rows[r]) c = -c;
      b = -b;
      rel_sign_[r] = -1.0;
    }
    rhs[r] = b;
  }

  // Slack columns: index n_struct_ + r, coefficient +1 in row r.
  // Equality rows get a slack fixed at 0 so all rows become equalities.
  // Finally rows with negative rhs are negated so the phase-1 start is b >= 0.
  ub_.assign(n_struct_, 0.0);
  for (std::size_t v = 0; v < n_struct_; ++v) {
    ub_[v] = std::isfinite(p_.hi_[v]) ? p_.hi_[v] - p_.lo_[v] : kLpInfinity;
  }
  std::vector<double> slack_sign(m_, 1.0);
  for (std::size_t r = 0; r < m_; ++r) {
    ub_.push_back(is_equality[r] ? 0.0 : kLpInfinity);
    if (rhs[r] < 0.0) {
      for (auto& c : rows[r]) c = -c;
      rhs[r] = -rhs[r];
      slack_sign[r] = -1.0;
    }
  }

  const std::size_t n_with_slack = n_struct_ + m_;

  // Initial basis: slack when usable (coefficient +1 and unbounded above),
  // otherwise a phase-1 artificial column.
  basis_.assign(m_, 0);
  std::vector<bool> needs_artificial(m_, false);
  std::size_t n_art = 0;
  for (std::size_t r = 0; r < m_; ++r) {
    if (slack_sign[r] > 0 && !is_equality[r]) {
      basis_[r] = n_struct_ + r;
    } else {
      needs_artificial[r] = true;
      ++n_art;
    }
  }
  first_artificial_ = n_with_slack;
  n_total_ = n_with_slack + n_art;

  tab_.assign(m_, std::vector<double>(n_total_, 0.0));
  xb_.assign(m_, 0.0);
  status_.assign(n_total_, VarStatus::AtLower);

  std::size_t next_art = first_artificial_;
  for (std::size_t r = 0; r < m_; ++r) {
    auto& row = tab_[r];
    for (std::size_t v = 0; v < n_struct_; ++v) row[v] = rows[r][v];
    row[n_struct_ + r] = slack_sign[r];
    if (needs_artificial[r]) {
      ub_.push_back(kLpInfinity);
      row[next_art] = 1.0;
      basis_[r] = next_art;
      ++next_art;
    }
    xb_[r] = rhs[r];
    status_[basis_[r]] = VarStatus::Basic;
  }

  max_iterations_ = opt_.max_iterations
                        ? opt_.max_iterations
                        : 50 * (m_ + n_total_) + 2000;
}

void SimplexSolver::price_out_objective() {
  // d starts as the raw objective in the shifted space; basic columns are
  // then priced out so that d is the reduced-cost row for the current basis.
  for (std::size_t r = 0; r < m_; ++r) {
    const double cb = d_[basis_[r]];
    if (cb == 0.0) continue;
    const auto& row = tab_[r];
    for (std::size_t v = 0; v < n_total_; ++v) d_[v] -= cb * row[v];
  }
}

bool SimplexSolver::choose_entering(bool bland, std::size_t& enter, int& dir) const {
  const double tol = kLpTolerance;
  double best = tol;
  bool found = false;
  for (std::size_t v = 0; v < n_total_; ++v) {
    if (status_[v] == VarStatus::Basic) continue;
    if (ub_[v] <= 0.0 && status_[v] == VarStatus::AtLower) continue;  // fixed
    double gain = 0.0;
    int candidate_dir = 0;
    if (status_[v] == VarStatus::AtLower && d_[v] > tol) {
      gain = d_[v];
      candidate_dir = +1;
    } else if (status_[v] == VarStatus::AtUpper && d_[v] < -tol) {
      gain = -d_[v];
      candidate_dir = -1;
    } else {
      continue;
    }
    if (bland) {
      enter = v;
      dir = candidate_dir;
      return true;
    }
    if (gain > best) {
      best = gain;
      enter = v;
      dir = candidate_dir;
      found = true;
    }
  }
  return found;
}

void SimplexSolver::apply_pivot(std::size_t enter, int dir, std::size_t pivot_row,
                                double delta, bool leaving_at_upper) {
  // Update basic values along the direction, then swap basis and eliminate.
  for (std::size_t r = 0; r < m_; ++r) {
    if (r == pivot_row) continue;
    xb_[r] -= dir * delta * tab_[r][enter];
  }
  const std::size_t leaving = basis_[pivot_row];
  status_[leaving] = leaving_at_upper ? VarStatus::AtUpper : VarStatus::AtLower;
  basis_[pivot_row] = enter;
  status_[enter] = VarStatus::Basic;
  xb_[pivot_row] = (dir > 0) ? delta : ub_[enter] - delta;

  auto& prow = tab_[pivot_row];
  const double pivot = prow[enter];
  const double inv = 1.0 / pivot;
  for (auto& c : prow) c *= inv;
  for (std::size_t r = 0; r < m_; ++r) {
    if (r == pivot_row) continue;
    const double f = tab_[r][enter];
    if (f == 0.0) continue;
    auto& row = tab_[r];
    for (std::size_t v = 0; v < n_total_; ++v) row[v] -= f * prow[v];
  }
  const double fd = d_[enter];
  if (fd != 0.0) {
    for (std::size_t v = 0; v < n_total_; ++v) d_[v] -= fd * prow[v];
  }
}

bool SimplexSolver::iterate(bool phase1) {
  const double tol = kLpTolerance;
  // Switch to Bland's anti-cycling rule if Dantzig pricing stalls.
  const std::size_t bland_after = 10 * (m_ + n_total_) + 500;
  std::size_t local_iter = 0;

  while (true) {
    TAPO_CHECK_MSG(iterations_ <= max_iterations_, "caller must check the cap");
    if (iterations_ == max_iterations_) return true;  // handled by caller
    const bool bland = local_iter > bland_after;

    std::size_t enter = 0;
    int dir = 0;
    if (!choose_entering(bland, enter, dir)) return true;  // phase optimal

    // Ratio test: largest step delta keeping all basic variables in their
    // bounds; the entering variable itself may only travel to its other
    // bound (a "bound flip").
    double delta = ub_[enter];  // may be +inf
    std::ptrdiff_t pivot_row = -1;
    bool leaving_at_upper = false;
    for (std::size_t r = 0; r < m_; ++r) {
      const double w = dir * tab_[r][enter];
      const std::size_t bvar = basis_[r];
      if (w > kLpPivotTolerance) {
        const double limit = xb_[r] / w;  // basic variable reaches 0
        if (limit < delta - tol ||
            (limit < delta + tol && pivot_row >= 0 &&
             std::fabs(tab_[r][enter]) > std::fabs(tab_[static_cast<std::size_t>(pivot_row)][enter]))) {
          delta = std::max(limit, 0.0);
          pivot_row = static_cast<std::ptrdiff_t>(r);
          leaving_at_upper = false;
        }
      } else if (w < -kLpPivotTolerance && std::isfinite(ub_[bvar])) {
        const double limit = (ub_[bvar] - xb_[r]) / (-w);  // basic reaches ub
        if (limit < delta - tol ||
            (limit < delta + tol && pivot_row >= 0 &&
             std::fabs(tab_[r][enter]) > std::fabs(tab_[static_cast<std::size_t>(pivot_row)][enter]))) {
          delta = std::max(limit, 0.0);
          pivot_row = static_cast<std::ptrdiff_t>(r);
          leaving_at_upper = true;
        }
      }
    }

    if (!std::isfinite(delta)) {
      // No limit: unbounded. Cannot happen in phase 1 (objective bounded by 0).
      TAPO_CHECK(!phase1);
      return false;
    }

    ++iterations_;
    ++local_iter;

    if (pivot_row < 0) {
      // Bound flip: entering variable moves to its opposite bound.
      for (std::size_t r = 0; r < m_; ++r) xb_[r] -= dir * delta * tab_[r][enter];
      status_[enter] =
          (status_[enter] == VarStatus::AtLower) ? VarStatus::AtUpper : VarStatus::AtLower;
      continue;
    }
    apply_pivot(enter, dir, static_cast<std::size_t>(pivot_row), delta, leaving_at_upper);
  }
}

LpSolution SimplexSolver::extract(LpStatus status) const {
  LpSolution sol;
  sol.status = status;
  sol.iterations = iterations_;
  sol.x.assign(n_struct_, 0.0);
  if (status != LpStatus::Optimal && status != LpStatus::IterLimit) return sol;

  std::vector<double> z(n_total_, 0.0);
  for (std::size_t v = 0; v < n_total_; ++v) {
    if (status_[v] == VarStatus::AtUpper) z[v] = ub_[v];
  }
  for (std::size_t r = 0; r < m_; ++r) z[basis_[r]] = xb_[r];
  for (std::size_t v = 0; v < n_struct_; ++v) sol.x[v] = p_.lo_[v] + z[v];
  sol.objective = p_.objective_value(sol.x);

  // Duals from the final reduced costs of the slack columns. With y_std the
  // dual of the fully standardized system, the slack column (coefficient
  // slack_sign * e_r) gives d_slack = -slack_sign * y_std_r, and mapping back
  // through both negations (GreaterEq flip g, rhs flip h) yields
  // y_orig = (g*h) * y_std = -(g*h) * d_slack / h = -g * d_slack.
  sol.duals.assign(m_, 0.0);
  for (std::size_t r = 0; r < m_; ++r) {
    sol.duals[r] = -rel_sign_[r] * d_[n_struct_ + r];
  }

  // Export the final basis for warm starts. The dense standardization's
  // slack variable is the same logical variable as the revised engine's
  // (the negative-rhs row flip rewrites a x + s = b to (-a) x - s = -b,
  // which is the identical system), so statuses transfer across engines.
  if (status == LpStatus::Optimal) {
    sol.basis.status.resize(n_struct_ + m_);
    for (std::size_t v = 0; v < n_struct_ + m_; ++v) {
      switch (status_[v]) {
        case VarStatus::Basic: sol.basis.status[v] = LpBasisStatus::Basic; break;
        case VarStatus::AtUpper: sol.basis.status[v] = LpBasisStatus::AtUpper; break;
        case VarStatus::AtLower: sol.basis.status[v] = LpBasisStatus::AtLower; break;
      }
    }
  }
  return sol;
}

LpSolution SimplexSolver::run() {
  build_standard_form();

  // ---- Phase 1: maximize -(sum of artificials). ----
  if (first_artificial_ < n_total_) {
    d_.assign(n_total_, 0.0);
    for (std::size_t v = first_artificial_; v < n_total_; ++v) d_[v] = -1.0;
    price_out_objective();
    iterate(/*phase1=*/true);
    if (iterations_ >= max_iterations_) return extract(LpStatus::IterLimit);

    double infeasibility = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] >= first_artificial_) infeasibility += xb_[r];
    }
    if (infeasibility > 1e-6) return extract(LpStatus::Infeasible);

    // Drive remaining (zero-valued) artificials out of the basis where
    // possible; redundant rows keep a zero artificial pinned by ub_ = 0.
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      std::size_t replacement = n_total_;
      for (std::size_t v = 0; v < first_artificial_; ++v) {
        if (status_[v] == VarStatus::Basic) continue;
        if (std::fabs(tab_[r][v]) > 1e-7) {
          replacement = v;
          break;
        }
      }
      if (replacement == n_total_) {
        ub_[basis_[r]] = 0.0;  // redundant row: pin the artificial at zero
        continue;
      }
      // Degenerate pivot (delta = 0) to swap the artificial out.
      const int dir = (status_[replacement] == VarStatus::AtLower) ? +1 : -1;
      apply_pivot(replacement, dir, r, 0.0, /*leaving_at_upper=*/false);
    }
    // Forbid artificials from ever re-entering.
    for (std::size_t v = first_artificial_; v < n_total_; ++v) {
      if (status_[v] != VarStatus::Basic) ub_[v] = 0.0;
    }
  }

  // ---- Phase 2: maximize the real objective. ----
  d_.assign(n_total_, 0.0);
  for (std::size_t v = 0; v < n_struct_; ++v) d_[v] = p_.obj_[v];
  price_out_objective();
  const bool bounded = iterate(/*phase1=*/false);
  if (iterations_ >= max_iterations_) return extract(LpStatus::IterLimit);
  if (!bounded) return extract(LpStatus::Unbounded);
  return extract(LpStatus::Optimal);
}

namespace internal {

void count_lp_solve(util::telemetry::Registry* reg, const LpSolution& sol,
                    bool warm_attempted) {
  if (reg == nullptr) return;
  reg->count("lp.solves");
  reg->count("lp.iterations", sol.iterations);
  if (warm_attempted) {
    reg->count(sol.warm_used ? "lp.warm_starts" : "lp.warm_rejects");
  }
  const char* bucket = sol.iterations <= 4     ? "lp.iters.le_4"
                       : sol.iterations <= 16  ? "lp.iters.le_16"
                       : sol.iterations <= 64  ? "lp.iters.le_64"
                       : sol.iterations <= 256 ? "lp.iters.le_256"
                                               : "lp.iters.gt_256";
  reg->count(bucket);
}

}  // namespace internal

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options) {
  // The revised engine is built directly, not through LpSession, so the
  // lp.session.* metrics count sessions only.
  LpSolution sol =
      options.engine == LpEngine::Dense
          ? SimplexSolver(problem, options).run()
          : internal::RevisedCore(problem, options).solve(/*seed=*/nullptr);
  internal::count_lp_solve(options.telemetry, sol, /*warm_attempted=*/false);
  return sol;
}

}  // namespace tapo::solver
