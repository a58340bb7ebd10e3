// Internal: the revised-simplex engine class behind solve_lp and LpSession.
// Not part of the public solver API — include solver/lp.h (one-shot solves)
// or solver/session.h (persistent sessions) instead.
//
// The class has one driver over one set of state: the constructor
// standardizes the problem once, any number of patch_*() calls edit the
// resident standardized arrays in place (CSC values, shifted RHS, bounds,
// costs), and solve() solves the patched problem — from a seed basis, from
// the previous solve's resident basis and factors, or cold. A one-shot
// solve_lp is a fresh core's first solve. A patched column that is currently
// basic is queued for an in-place Forrest–Tomlin column replacement of the
// resident factorization instead of a refactorization. A stability monitor
// (spike-pivot and residual checks) demotes updates to a refactorization
// and, failing that, to the cold path, so a resumed solve is never less
// correct than a fresh one (docs/SOLVER.md §7).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/lp.h"
#include "solver/lu.h"
#include "solver/session.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::solver::internal {

// The standardized structural columns as the pricing dots read them: column
// j's entries are [begin[j], end[j]) of the row/val arrays, plus its longest
// contiguous row run (see RevisedCore::col_run_start_). Rows ascend within
// each column. Columns need not be laid out back to back: bit-identical
// columns may share one range (RevisedCore stores each class once).
struct RunColumns {
  const std::size_t* begin;      // first entry of column j
  const std::size_t* end;        // one past its last entry
  const std::size_t* row;        // row index per entry
  const double* val;             // coefficient per entry
  const std::size_t* run_start;  // position of column j's run
  const std::size_t* run_len;    // its length (0 only for an empty column)
};

// y · column j, split into sparse head / contiguous dense run / sparse tail.
// The three loops visit the column's entries in ascending-row order, so the
// sum is the same as a plain CSC walk; the run loop just drops the row-index
// gather.
inline double run_col_dot(const RunColumns& a, const double* y,
                          std::size_t j) {
  double s = 0.0;
  const std::size_t k1 = a.end[j];
  const std::size_t rs = a.run_start[j];
  const std::size_t rl = a.run_len[j];
  for (std::size_t k = a.begin[j]; k < rs; ++k) s += y[a.row[k]] * a.val[k];
  if (rl != 0) {
    const double* yv = y + a.row[rs];
    const double* cv = a.val + rs;
    for (std::size_t i = 0; i < rl; ++i) s += yv[i] * cv[i];
  }
  for (std::size_t k = rs + rl; k < k1; ++k) s += y[a.row[k]] * a.val[k];
  return s;
}

// dots[j] = run_col_dot(a, y, j) for every j in cols[0, n), bit for bit.
// Columns go four at a time: each lane keeps its own sum in run_col_dot's
// order and expression shape, and the lanes only interleave independent add
// chains, so the lockstep hides floating-point add latency without
// reassociating any sum. The lanes run the common prefix of their runs
// together; each then finishes its own remainder. A final group of fewer
// than four columns falls back to run_col_dot.
void run_col_dots(const RunColumns& a, const double* y, const std::size_t* cols,
                  std::size_t n, double* dots);

// Books one solve's lp.* metrics (docs/OBSERVABILITY.md): lp.solves,
// lp.iterations, the lp.iters.* histogram bucket and, when the solve tried
// a warm start, lp.warm_starts or lp.warm_rejects. solve_lp and
// LpSession::solve both call it; a null registry books nothing.
void count_lp_solve(util::telemetry::Registry* reg, const LpSolution& sol,
                    bool warm_attempted);

class RevisedCore {
 public:
  // Standardizes `p` into the resident arrays. The core keeps no reference
  // to `p`: nothing of it is read afterwards (the structure is fixed).
  RevisedCore(const LpProblem& p, const LpOptions& opt);

  // In-place patches of the standardized arrays, with LpProblem::patch_*'s
  // contracts. Extraction reads bounds and costs from the resident arrays,
  // so these are the whole patched problem. patch_coefficient requires the
  // CSC entry to exist; patching a column that shares its stored entries
  // with other members of its class first gives it a private copy.
  void patch_rhs(std::size_t r, double rhs);
  void patch_coefficient(std::size_t r, std::size_t v, double coeff);

  // Solves the resident (patched) problem. A non-empty seed imports that
  // basis (one refactorization — the chain-head cost); otherwise the
  // previous solve's basis and factors are resumed with pending column
  // updates applied, and a core that has not solved yet starts cold. Falls
  // back to a cold solve on any validation or numerical failure. Extraction
  // is canonical: the result depends only on the final basis.
  LpSolution solve(const LpBasis* seed);

  // Lifetime counters; never reset.
  const LpSession::Stats& stats() const { return stats_; }

  // The structural columns as the pricing dots read them.
  RunColumns run_columns() const {
    return {col_begin_.data(), col_end_.data(), col_row_.data(),
            col_val_.data(),   col_run_start_.data(), col_run_len_.data()};
  }

 private:
  enum class VarStatus : unsigned char { AtLower, AtUpper, Basic };
  enum class Step { Done, Unbounded, Numerical };
  enum class Outcome { Optimal, Infeasible, Unbounded, IterLimit, Restart };

  // ---- setup ----
  void standardize(const LpProblem& p);
  void build_col_classes();
  void store_classes_once();
  void make_col_private(std::size_t v);
  void demote_col_class(std::size_t v);
  void cold_start();
  bool try_warm(const LpBasis& wb);

  // ---- basis inverse ----
  bool refactorize();
  // FTRAN: v <- B^{-1} v. `entering` marks v as an entering/replacement
  // column whose update the next push_update_and_maybe_refactor() will
  // apply: the partially solved spike is captured for it.
  void ftran(std::vector<double>& v, bool entering = false) const;
  void btran(std::vector<double>& v) const;

  // ---- column access (structural / slack / artificial uniformly) ----
  template <typename F>
  void for_col(std::size_t j, F&& f) const {
    if (j < slack0_) {
      for (std::size_t k = col_begin_[j]; k < col_end_[j]; ++k) {
        f(col_row_[k], col_val_[k]);
      }
    } else if (j < art0_) {
      f(j - slack0_, 1.0);
    } else {
      f(j - art0_, art_sign_[j - art0_]);
    }
  }
  // Pricing dot of any column: run_col_dot for structural columns, one
  // array read for slacks and artificials.
  double col_dot(const std::vector<double>& y, std::size_t j) const {
    if (j < slack0_) return run_col_dot(run_columns(), y.data(), j);
    if (j < art0_) return y[j - slack0_];
    return y[j - art0_] * art_sign_[j - art0_];
  }
  void load_col(std::size_t j, std::vector<double>& w) const {
    w.assign(m_, 0.0);
    for_col(j, [&](std::size_t r, double v) { w[r] += v; });
  }

  // Memoized pricing dot. Structural columns that are bit-identical (every
  // Stage-1 segment variable of a node carries its node's thermal column)
  // share a class; the dot against the current pricing vector is computed
  // once per class per pricing epoch. The class representative's entries are
  // the same values in the same order as the member's, so the memoized sum
  // is bit-identical to col_dot — pivot selection cannot change.
  double priced_dot(const std::vector<double>& y, std::size_t j) {
    if (j >= slack0_) return col_dot(y, j);  // slack/artificial: O(1) anyway
    const std::size_t rep = col_class_[j];
    if (class_stamp_[rep] != pricing_epoch_) {
      class_dot_[rep] = col_dot(y, rep);
      class_stamp_[rep] = pricing_epoch_;
    }
    return class_dot_[rep];
  }
  // Batched memo fill for a full pricing pass: queue_class_dot(v) queues
  // structural column v's class when its memo is stale for the current
  // epoch, and flush_class_dots(y) fills every queued memo with
  // run_col_dots. A pass queues its columns first and then reads them
  // through priced_dot as before, now all memo hits.
  void queue_class_dot(std::size_t v) {
    const std::size_t rep = col_class_[v];
    if (class_stamp_[rep] == pricing_epoch_) return;
    class_stamp_[rep] = pricing_epoch_;
    dot_batch_.push_back(rep);
  }
  void flush_class_dots(const std::vector<double>& y) {
    run_col_dots(run_columns(), y.data(), dot_batch_.data(), dot_batch_.size(),
                 class_dot_.data());
    dot_batch_.clear();
  }
  // The batched fill for the columns every full pass visits: each nonbasic,
  // non-fixed structural column.
  void fill_nonbasic_class_dots(const std::vector<double>& y);

  // ---- state recomputation ----
  void price_y(const std::vector<double>& cost);
  void compute_xb();
  double primal_infeasibility() const;

  // ---- pricing (docs/SOLVER.md §8) ----
  // Entering-variable selection for one primal iteration: candidate-list
  // partial Devex; `bland` forces the full lowest-index anti-cycling scan.
  // Returns false when no eligible candidate exists anywhere — that verdict
  // is only reached by a full scan after the candidate list ran dry (y is
  // re-priced fresh every pivot), so it is the same optimality certificate
  // as a full scan.
  bool price_entering(const std::vector<double>& cost, bool bland,
                      std::size_t& enter, int& dir);
  // Rebuilds the candidate-list units (one unit per column class) after
  // build_col_classes or a class demotion.
  void rebuild_pricing_units();
  // Resets the Devex reference framework (all weights to 1). Runs at every
  // cold start / basis import — weights describe pivot history of the
  // current basis trajectory — and on weight overflow (counted as
  // lp.pricing.devex_resets). Resident session resumes keep their weights.
  void reset_devex(bool count_overflow = false);
  // Flushes the per-iterate phase-time accumulators and pricing counters to
  // the registry; called once per primal_iterate/dual_iterate return.
  void flush_iterate_stats();

  // ---- pivoting ----
  // Applies the basis update for the column that just became basic in
  // `pivot_row`: an in-place FT column replacement consuming the spike the
  // last entering ftran captured. Refactorizes when the update budget, the
  // fill monitor or the stability monitor says so.
  bool push_update_and_maybe_refactor(std::size_t pivot_row);
  bool pivot(std::size_t enter, int dir, std::size_t pivot_row, double delta,
             bool leaving_at_upper);
  Step primal_iterate(bool phase1, const std::vector<double>& cost);
  Step dual_iterate();
  void make_dual_feasible();
  bool driveout_artificials();

  // Shared solve tail from an established (warm, resident, or post-phase-1)
  // basis: optional dual repair of primal infeasibility, then primal
  // phase 2. repair_primal is false on the cold path, where phase 1 already
  // guarantees feasibility (matching the pre-session control flow exactly).
  Outcome finish_from_basis(bool repair_primal);
  Outcome cold_attempt();
  LpSolution extract(LpStatus status);

  // ---- resident-state internals ----
  // Applies queued column-replacement updates to the resident factorization;
  // refactorizes on a spike pivot or an exhausted update budget. False = numerical
  // failure (caller falls back to cold).
  bool apply_pending_updates();
  // Residual stability check of the resident solution xb against the
  // patched system; part of the session's stability monitor.
  bool residual_ok();

  LpOptions opt_;
  util::telemetry::Registry* reg_ = nullptr;

  std::size_t m_ = 0;         // rows
  std::size_t n_struct_ = 0;  // structural variables
  std::size_t slack0_ = 0;    // first slack index (= n_struct_)
  std::size_t art0_ = 0;      // first artificial index (= n_struct_ + m_)
  std::size_t n_total_ = 0;   // n_struct_ + 2 * m_

  // Standardized structural columns, rel_sign already applied: column v's
  // entries are [col_begin_[v], col_end_[v]) of col_row_/col_val_, rows
  // ascending. Each class of bit-identical columns (see col_class_) is
  // stored once and its members share the range; col_shared_[v] marks a
  // column whose range another column may read, so patch_coefficient copies
  // it out (make_col_private) before writing. In the Stage-1 LPs every
  // segment column of a node repeats the node's thermal column, so this
  // keeps about a third of the nonzeros.
  std::vector<std::size_t> col_begin_, col_end_, col_row_;
  std::vector<double> col_val_;
  std::vector<char> col_shared_;

  // Per structural column, the longest contiguous row-index run inside its
  // CSC slice: col_run_start_[v] is a CSC position k in
  // [col_begin_[v], col_end_[v]] and col_run_len_[v] its length, with
  // col_row_[k..k+len) consecutive. In the Stage-1 LPs this is the dense
  // thermal block of the column; col_dot iterates it without the row-index
  // gather. Row structure never changes after standardize() (patches edit
  // values only), so the runs are computed once.
  std::vector<std::size_t> col_run_start_, col_run_len_;

  // Pricing dedup state (see priced_dot). col_class_[v] is the smallest
  // structural index whose column is bit-identical to v's (v itself for a
  // singleton); patch_coefficient demotes the patched column to a singleton.
  std::vector<std::size_t> col_class_;
  std::vector<double> class_dot_;          // memoized dot, indexed by rep
  std::vector<std::uint64_t> class_stamp_; // epoch the memo slot was filled
  std::uint64_t pricing_epoch_ = 1;        // bumped when y_/rho_ change
  std::vector<std::size_t> dot_batch_;     // reps queued for flush_class_dots

  // Candidate-list partial pricing (docs/SOLVER.md §8). A unit is one column
  // class: units_ lists the representatives ascending, and unit_cols_
  // (grouped by unit_start_) the member columns of each unit, ascending —
  // members share the class dot but carry their own objective coefficients,
  // so a partial scan prices the class dot once and still visits every
  // member. cand_units_ is the candidate list: the globally best-scoring
  // ~2*sqrt(#units) units of the last full scan (price_window_ is that
  // capacity), re-scanned each iteration and rebuilt by a fresh full scan
  // when it yields no eligible candidate. The list persists across
  // iterations AND session resumes (the amortization is exactly the point).
  // Slack/artificial columns are priced every iteration (O(1) dots) and
  // never enter the list. rep_unit_ maps a class representative to its unit
  // (the leaving variable's unit is promoted into the list every pivot —
  // its reduced cost just flipped, so it is the likeliest next candidate).
  // Class demotions mark units_dirty_; unit lists are rebuilt lazily at the
  // next persistent solve.
  std::vector<std::size_t> units_;
  std::vector<std::size_t> unit_start_, unit_cols_;
  std::vector<std::size_t> rep_unit_;
  std::vector<std::size_t> cand_units_;
  std::size_t price_window_ = 0;
  // Minor-cycle length control: pivots since the candidate list was last
  // rebuilt by a full scan. The list is refreshed when it runs dry, shrinks
  // below half capacity, or serves more than price_window_ pivots — stale
  // best-of-list picks degrade pivot quality well before the list empties
  // (measured: dry-only refreshes cost +53% iterations vs a full scan).
  std::size_t pivots_since_rebuild_ = 0;
  bool units_dirty_ = false;

  // Devex reference weights. Primal: per-column (n_total_), selection score
  // d^2 / weight, leaving-variable update from the pivot element of the
  // already-computed FTRAN column. Dual: per-row (m_), leaving-row score
  // violation^2 / weight, O(m) exact update from the FTRAN column. Both
  // reset to the unit framework on cold starts / basis imports and on
  // overflow past kDevexResetThreshold; resident resumes keep them (§8's
  // session-survival contract).
  static constexpr double kDevexResetThreshold = 1e8;

  std::vector<double> devex_w_;
  std::vector<double> dual_devex_w_;

  // Per-iterate phase-time accumulators (lp.phase.price/ftran/update) and
  // pricing counters (lp.pricing.*), flushed by flush_iterate_stats once
  // per iterate call — per-pivot ScopedTimers would pay the registry mutex
  // on the hot path.
  double t_price_ = 0.0, t_ftran_ = 0.0, t_update_ = 0.0;
  std::uint64_t n_window_refreshes_ = 0;
  std::uint64_t n_devex_resets_ = 0;
  std::uint64_t n_full_scan_fallbacks_ = 0;

  std::vector<double> rel_sign_;  // -1 for GreaterEq rows, +1 otherwise
  std::vector<char> equality_;    // per row
  std::vector<double> art_sign_;  // artificial column coefficient, per row
  std::vector<double> b_;         // standardized rhs
  std::vector<double> ub_;        // per variable, shifted space
  std::vector<double> obj2_;      // phase-2 cost over all n_total_ slots
  double bnorm_ = 0.0;            // max |b_r|, for relative feasibility tests

  std::vector<std::size_t> basis_;  // variable basic in each row
  std::vector<VarStatus> status_;   // per variable
  std::vector<double> xb_;          // basic variable values, aligned to basis_

  // Forrest–Tomlin update monitors: refactorize once update fill-in grows
  // the stored factor entries beyond kFtFillFactor times the
  // post-refactorization baseline, and reject an update (and refactorize)
  // when its emerging diagonal is below kFtPivotTolerance *
  // max(1, ||spike||_inf). The update-count budget is
  // LpOptions::ft_max_updates (docs/SOLVER.md §6a).
  static constexpr double kFtFillFactor = 4.0;
  static constexpr double kFtPivotTolerance = 1e-7;

  // Basis inverse: ft_ holds the factors and absorbs basis changes as
  // in-place Forrest–Tomlin column replacements. spike_ holds the partially
  // solved entering column the last ftran(v, true) captured — the
  // replacement column the next update consumes.
  std::optional<FtFactorization> ft_;
  mutable std::vector<double> spike_;
  mutable bool spike_valid_ = false;

  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  bool needs_phase1_ = false;
  bool warm_used_ = false;

  // Structural lower bounds (extraction adds them back to the shifted
  // values).
  std::vector<double> lo_;  // n_struct_

  // Resident state. rhs_shift_ holds the per-row sum of a_std * lo, so
  // patches can maintain the standardized b_ = rel_sign * rhs_raw -
  // rhs_shift incrementally. dirty_cols_ queues patched columns that were
  // basic at patch time for factor updates.
  std::vector<double> rhs_shift_;  // m_
  std::vector<std::size_t> dirty_cols_;
  std::vector<char> col_dirty_;  // n_struct_, dedupes dirty_cols_
  bool resident_ok_ = false;  // basis_/status_/factors describe a prior solve
  bool b_dirty_ = false;      // bnorm_ needs a refresh before the next solve
  bool extract_refactor_ok_ = true;  // canonical refactorize succeeded
  std::uint64_t pending_patches_ = 0;  // patch_* calls since the last solve
  LpSession::Stats stats_;

  // Scratch (one per solver instance; the in-place LU solves also use a
  // per-factorization scratch, so nothing here is shareable across threads).
  std::vector<double> y_, w_, rho_, wf_;  // wf_: BFRT flip-column scratch
  std::vector<double> d_;       // nonbasic reduced costs (dual phase only)
  std::vector<double> alphas_;  // pivot-row entries, refreshed per dual pivot
};

}  // namespace tapo::solver::internal
