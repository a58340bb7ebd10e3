// LU factorization with partial pivoting.
//
// Used to solve the heat-flow fixed point (I - G_nn) x = rhs, to compute
// the linear sensitivity of node outlet temperatures to node power, and as
// the basis factorization of the revised simplex (solver/revised.cpp), whose
// FTRAN/BTRAN kernels need allocation-free and transposed solves. The
// systems are small (order NCN ~ 150) and well conditioned because G_nn is a
// strict sub-stochastic recirculation matrix.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/matrix.h"

namespace tapo::solver {

class LuFactorization {
 public:
  // Factors a copy of `a`. `ok()` is false if `a` is singular to working
  // precision.
  explicit LuFactorization(const Matrix& a);

  bool ok() const { return ok_; }

  // Solves A x = b. Requires ok().
  std::vector<double> solve(const std::vector<double>& b) const;

  // Solves A x = b in place (b becomes x). Requires ok(). Used by the
  // simplex FTRAN kernel, which solves one system per pivot.
  void solve_in_place(std::vector<double>& b) const;

  // Solves A^T x = b in place (b becomes x). Requires ok(). Used by the
  // simplex BTRAN kernel (duals and pivot rows need B^{-T}).
  void solve_transposed_in_place(std::vector<double>& b) const;

  // Split halves of the in-place solves, for callers that need the partially
  // solved vector between the triangular substitutions (the Forrest–Tomlin
  // update captures its spike there). Composing the two halves performs the
  // same operations in the same order as the fused method, so the results
  // are bitwise identical.
  //
  // solve_lower_in_place: b <- L^{-1} P b (permute, then unit-L forward).
  void solve_lower_in_place(std::vector<double>& b) const;
  // solve_upper_in_place: b <- U^{-1} b (back substitution).
  void solve_upper_in_place(std::vector<double>& b) const;
  // solve_upper_transposed_in_place: b <- U^{-T} b (forward substitution).
  void solve_upper_transposed_in_place(std::vector<double>& b) const;
  // solve_lower_transposed_in_place: b <- P^T L^{-T} b (back substitution,
  // then scatter through the permutation).
  void solve_lower_transposed_in_place(std::vector<double>& b) const;

  // Solves A X = B column-by-column. Requires ok().
  Matrix solve(const Matrix& b) const;

 private:
  // Sparse view of one triangle of the factors, row- or column-oriented,
  // entries in ascending index order. The simplex basis is mostly slack
  // (identity) columns, so L and U are sparse; the in-place kernels iterate
  // only the stored nonzeros. Skipped terms contribute an exact ±0.0 to the
  // dense accumulation, so the sparse substitutions produce the same values
  // as the dense loops (ascending order keeps the summation order, too).
  struct SparseTri {
    std::vector<std::size_t> start;  // n + 1 offsets into idx/val
    std::vector<std::size_t> idx;
    std::vector<double> val;
  };
  void build_sparse_tris();

  Matrix lu_;
  std::vector<std::size_t> perm_;
  SparseTri lrow_, urow_;  // strict lower by row, strict upper by row
  SparseTri lcol_, ucol_;  // strict lower by column, strict upper by column
  std::vector<double> udiag_;  // U's diagonal
  // Scratch for the in-place solves; makes those two methods unsafe to call
  // concurrently on one factorization (each simplex instance owns its own).
  mutable std::vector<double> scratch_;
  bool ok_ = false;

  friend class FtFactorization;
};

// Forrest–Tomlin updatable basis factorization (solver/revised.cpp).
//
// Wraps a fresh LuFactorization of the basis B0 = P^T L U and supports
// replacing one basis column at a time by mutating U in place instead of
// appending product-form etas. The representation after k updates is
//   B = P^T L E_1^{-1} ... E_k^{-1} Ubar
// where each E_i = I - mult_i e_{r_i} e_{j_i}^T is a recorded row eta and
// Ubar is upper triangular with respect to a maintained logical ordering of
// (row, column) pairs. FTRAN/BTRAN therefore cost one sparse triangular pair
// plus k scalar eta applications, independent of how dense the replaced
// columns were — the per-iteration win over the product-form eta file.
//
// Ubar's rows are indexed by elimination index (L's row space) and its
// columns by basis position. Values live in a dense m×m array; per-row and
// per-column lists enumerate the off-diagonal nonzero *structure* (entries
// whose value hits exact 0.0 stay listed and contribute an exact ±0.0 to the
// substitutions, mirroring the SparseTri convention above). A replacement
// cyclically moves the replaced pair to the last logical position and
// eliminates the spiked row against the pairs it jumped over, recording one
// row eta per eliminated entry.
//
// The updatable structures materialize lazily on the first replace_column():
// until then ftran/btran delegate to the wrapped LuFactorization's fused
// solves, so a zero-update FtFactorization is bitwise identical to a fresh
// LuFactorization. Not thread-safe (mutable
// scratch), matching LuFactorization.
class FtFactorization {
 public:
  explicit FtFactorization(const Matrix& basis);

  // False if the initial basis was singular to working precision.
  bool ok() const { return base_.ok(); }

  // Number of column replacements applied since construction.
  std::size_t updates() const { return n_updates_; }

  // True once update fill-in has grown the stored off-diagonal entry count
  // beyond `fill_factor` times the post-factorization baseline; the caller
  // should refactorize rather than keep updating.
  bool fill_exceeded(double fill_factor) const;

  // FTRAN: v <- B^{-1} v. If `spike` is non-null it receives the partially
  // solved vector after L^{-1}P and the recorded row etas but before the
  // U-solve — exactly the column representation replace_column() expects for
  // v's original (entering) column.
  void ftran(std::vector<double>& v, std::vector<double>* spike = nullptr) const;

  // BTRAN: v <- B^{-T} v.
  void btran(std::vector<double>& v) const;

  enum class Update { kOk, kUnstable };

  // Replaces the basis column at position `pos` with the column whose
  // ftran-captured spike is `spike`. Returns kUnstable when the emerging
  // diagonal fails |d| >= min_ratio * max(1, ||spike||_inf); the
  // factors are then no longer usable and the caller must refactorize.
  Update replace_column(std::size_t pos, const std::vector<double>& spike,
                        double min_ratio);

 private:
  void materialize();
  void set_spike_entry(std::uint32_t row, std::uint32_t col, double value);

  LuFactorization base_;
  std::size_t m_ = 0;
  bool materialized_ = false;
  std::size_t n_updates_ = 0;

  // Ubar: dense values (rows = elimination index, cols = basis position)
  // plus off-diagonal structure lists and a membership bitmap that keeps the
  // row/column lists duplicate-free across updates.
  std::vector<double> u_;
  std::vector<std::vector<std::uint32_t>> urow_, ucol_;
  std::vector<char> in_u_;

  // Logical pair order: pair k is (row_at_[k], col_at_[k]); rpos_/cpos_ are
  // the inverse maps. Ubar is upper triangular in this order and the pair
  // diagonals u_(row_at_[k], col_at_[k]) are the pivots.
  std::vector<std::uint32_t> row_at_, col_at_, rpos_, cpos_;

  // FTRAN applies v[spike_row] -= mult * v[pivot_row] in recorded order;
  // BTRAN applies v[pivot_row] -= mult * v[spike_row] in reverse order.
  struct RowEta {
    std::uint32_t spike_row;
    std::uint32_t pivot_row;
    double mult;
  };
  std::vector<RowEta> retas_;

  std::size_t base_entries_ = 0;  // off-diagonal entries at materialization
  std::size_t entries_ = 0;       // current stored off-diagonal entries
  mutable std::vector<double> scratch_;
};

}  // namespace tapo::solver
