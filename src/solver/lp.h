// Linear programming: two-phase bounded-variable simplex, in two engines.
//
// All optimization problems in the paper reduce, after its own decomposition,
// to linear programs once the CRAC outlet temperatures are fixed:
//   * Stage 1 power allocation (piecewise-linear concave reward vs. power),
//   * Stage 3 desired-execution-rate assignment,
//   * the baseline technique of Eq. 21 (fractional core allocation).
// These LPs have a few hundred rows and up to a few thousand columns, with
// many variables carrying finite upper bounds (piecewise-linear segment
// lengths, per-node fractions). A bounded-variable simplex keeps those bounds
// out of the row count.
//
// Two engines share this interface (LpOptions::engine):
//   * Revised (default): revised simplex over an LU-factorized basis with
//     in-place Forrest–Tomlin updates and budgeted refactorization, and
//     sparse column access. Its persistent form, LpSession
//     (solver/session.h), warm-starts from a seed LpBasis or from its own
//     previous solve (a dual-simplex phase absorbs RHS/bound changes). This
//     is what makes the CRAC setpoint sweep and the recovery re-plans cheap:
//     neighboring grid points differ mostly in the RHS, so the previous
//     optimal basis is a few pivots from optimal. A solve_lp call is a
//     fresh session's first solve: always cold.
//   * Dense: the original dense-tableau implementation, kept as a
//     differential-testing oracle and as the engine for the final re-solve
//     at a selected grid point (engine-independent published plans).
// See docs/SOLVER.md for the algorithmic details and invariants.
//
// Conventions: maximize c^T x subject to rows (<=, =, >=) and box bounds
// lo <= x <= hi (lo finite, hi possibly +infinity).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::solver {

// Sentinel for "no upper bound" in add_variable.
inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

// Row sense of a constraint: a^T x (<= | = | >=) rhs.
enum class Relation { LessEq, Equal, GreaterEq };

// Outcome of solve_lp. IterLimit means the cap in LpOptions was hit before
// phase 2 converged; the returned point is the best basic solution found
// and may be suboptimal or (if phase 1 was cut short) infeasible. Callers
// must treat IterLimit as non-optimal (see optimal()).
enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit };

// Human-readable status name ("optimal", "infeasible", ...) for logs.
const char* to_string(LpStatus status);

// Which simplex implementation solve_lp runs (see file comment).
enum class LpEngine { Revised, Dense };

// Basis status of one variable in an exported basis. The slot order is:
// structural variables (problem order) first, then one logical/slack
// variable per constraint row.
enum class LpBasisStatus : unsigned char { AtLower, AtUpper, Basic };

// An exportable/importable simplex basis — the warm-start currency. A basis
// captured from one LP stays meaningful for any LP with the same variable
// and row structure (bounds, RHS and coefficients may change; that is
// exactly the CRAC-grid / recovery re-solve situation). LpSession::solve
// takes one as a seed, validates it (size, basic count, factorizability)
// and silently falls back to a cold start when it does not fit.
struct LpBasis {
  std::vector<LpBasisStatus> status;  // num_vars + num_constraints entries

  bool empty() const { return status.empty(); }
  std::size_t size() const { return status.size(); }
};

// An LP under construction: maximize c^T x subject to sparse rows and box
// bounds. Build with add_variable/add_constraint, then hand to solve_lp.
// Variable indices are dense and in insertion order.
class LpProblem {
 public:
  // Adds a variable with bounds [lo, hi] and objective coefficient obj.
  // lo must be finite; hi may be kLpInfinity. Returns the variable index.
  std::size_t add_variable(double lo, double hi, double obj);

  // Adds a constraint given as sparse (variable, coefficient) terms.
  void add_constraint(std::vector<std::pair<std::size_t, double>> terms,
                      Relation rel, double rhs);

  // ---- in-place patching (structure preserving) ----
  // Mutate an already-built problem without changing its structure: the
  // variable/row counts, each row's relation, and the sparsity pattern all
  // stay fixed. That is what keeps an exported LpBasis — and a resident
  // LpSession (solver/session.h) — meaningful across patches. The CRAC grid
  // sweep uses these to re-point one resident LP at successive setpoints
  // instead of rebuilding it per grid point.

  // Replaces the RHS of row r.
  void patch_rhs(std::size_t r, double rhs);
  // Replaces the coefficient of variable v in row r. The (r, v) term must
  // already exist and be unique in the row; a coefficient that may change
  // later must be added at build time (0.0 is a valid placeholder).
  void patch_coefficient(std::size_t r, std::size_t v, double coeff);

  std::size_t num_vars() const { return lo_.size(); }
  std::size_t num_constraints() const { return rel_.size(); }

  double lower_bound(std::size_t v) const { return lo_[v]; }
  double upper_bound(std::size_t v) const { return hi_[v]; }
  double objective_coeff(std::size_t v) const { return obj_[v]; }
  Relation relation(std::size_t r) const { return rel_[r]; }
  double rhs(std::size_t r) const { return rhs_[r]; }
  // Row r's terms as added (duplicates not coalesced).
  const std::vector<std::pair<std::size_t, double>>& row(std::size_t r) const {
    return rows_[r];
  }

  // Compressed sparse column (CSC) view of the raw constraint matrix, built
  // in one O(nnz) pass with duplicate (row, variable) entries coalesced.
  // Column j's entries are rows[starts[j]..starts[j+1]) with matching
  // values, in increasing row order. The revised engine works entirely off
  // this view; the dense oracle keeps its row-major tableau.
  struct SparseColumns {
    std::vector<std::size_t> starts;  // num_vars + 1
    std::vector<std::size_t> rows;
    std::vector<double> values;
  };
  SparseColumns columns() const;

  // Evaluates the objective at x.
  double objective_value(const std::vector<double>& x) const;

  // Returns the largest violation of any row or bound at x (0 if feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  friend class SimplexSolver;
  std::vector<double> lo_, hi_, obj_;
  std::vector<std::vector<std::pair<std::size_t, double>>> rows_;
  std::vector<Relation> rel_;
  std::vector<double> rhs_;
};

// Both engines' fixed numerics: the feasibility / optimality tolerance and
// the minimum pivot magnitude a ratio test accepts.
inline constexpr double kLpTolerance = 1e-9;
inline constexpr double kLpPivotTolerance = 1e-8;

// The caller-set knobs of solve_lp and LpSession; the defaults suit this
// repo's LP sizes (hundreds of rows, thousands of columns).
struct LpOptions {
  // Hard iteration cap; 0 means "auto" (50 * (rows + cols) + 2000).
  std::size_t max_iterations = 0;
  // Which simplex implementation runs (see file comment).
  LpEngine engine = LpEngine::Revised;
  // Revised engine, Forrest–Tomlin factor updates (docs/SOLVER.md §6a):
  // refactorize after this many in-place column replacements. Smaller =
  // tighter numerics, more O(m^3) work. Must be >= 1.
  std::size_t ft_max_updates = 96;
  // Optional lp.* metrics sink (docs/OBSERVABILITY.md): solves, iterations,
  // warm-start accepts/rejects, refactorizations, fallbacks, and a bucketed
  // per-solve iteration histogram. Never changes the solved result.
  util::telemetry::Registry* telemetry = nullptr;
};

// Result of solve_lp. x and duals are meaningful only when status is
// Optimal (check optimal() or LpSolution::status before using them).
struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;      // primal values (num_vars)
  std::vector<double> duals;  // one per constraint, sign convention: for a
                              // maximization, duals of <= rows are >= 0,
                              // of >= rows are <= 0.
  std::size_t iterations = 0;

  // Exported basis for warm-starting a structurally identical LP; filled on
  // Optimal (both engines) and, by the revised engine, on a warm-started
  // Infeasible solve (the dual phase's certificate basis — dual feasible and
  // artificial-free, so a chain of warm starts survives an infeasible
  // stretch of grid points). Empty otherwise. Extraction is canonical — it
  // depends only on the final basis, not on the pivot path — so a warm
  // re-solve that lands on the same basis reproduces x and objective
  // bit-for-bit.
  LpBasis basis;
  // True when the solve started from a warm basis: an accepted session seed
  // or the session's resident previous solve.
  bool warm_used = false;

  bool optimal() const { return status == LpStatus::Optimal; }
};

// Solves the LP with the engine selected in options. The problem object is
// not modified.
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace tapo::solver
