#include "solver/lu.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace tapo::solver {

LuFactorization::LuFactorization(const Matrix& a) : lu_(a) {
  TAPO_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  ok_ = true;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: largest absolute value in this column at/below the
    // diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-13) {
      ok_ = false;
      return;
    }
    if (pivot != col) {
      std::swap(perm_[pivot], perm_[col]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(pivot, c), lu_(col, c));
    }
    const double inv_piv = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_piv;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      const double* src = lu_.row(col);
      double* dst = lu_.row(r);
      for (std::size_t c = col + 1; c < n; ++c) dst[c] -= factor * src[c];
    }
  }
  build_sparse_tris();
}

void LuFactorization::build_sparse_tris() {
  const std::size_t n = lu_.rows();
  const auto build = [n](SparseTri& t) {
    t.start.assign(n + 1, 0);
    t.idx.clear();
    t.val.clear();
  };
  build(lrow_);
  build(urow_);
  build(lcol_);
  build(ucol_);
  udiag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    udiag_[i] = lu_(i, i);
    const double* r = lu_.row(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (r[j] == 0.0) continue;
      lrow_.idx.push_back(j);
      lrow_.val.push_back(r[j]);
    }
    lrow_.start[i + 1] = lrow_.idx.size();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (r[j] == 0.0) continue;
      urow_.idx.push_back(j);
      urow_.val.push_back(r[j]);
    }
    urow_.start[i + 1] = urow_.idx.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double v = lu_(j, i);
      if (v == 0.0) continue;
      ucol_.idx.push_back(j);
      ucol_.val.push_back(v);
    }
    ucol_.start[i + 1] = ucol_.idx.size();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = lu_(j, i);
      if (v == 0.0) continue;
      lcol_.idx.push_back(j);
      lcol_.val.push_back(v);
    }
    lcol_.start[i + 1] = lcol_.idx.size();
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  TAPO_CHECK(ok_);
  const std::size_t n = lu_.rows();
  TAPO_CHECK(b.size() == n);
  std::vector<double> x(n);
  // Forward substitution with permuted rhs (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    const double* r = lu_.row(i);
    for (std::size_t j = 0; j < i; ++j) acc -= r[j] * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = x[i];
    const double* r = lu_.row(i);
    for (std::size_t j = i + 1; j < n; ++j) acc -= r[j] * x[j];
    x[i] = acc / r[i];
  }
  return x;
}

void LuFactorization::solve_in_place(std::vector<double>& b) const {
  solve_lower_in_place(b);
  solve_upper_in_place(b);
}

void LuFactorization::solve_lower_in_place(std::vector<double>& b) const {
  TAPO_CHECK(ok_);
  const std::size_t n = lu_.rows();
  TAPO_CHECK(b.size() == n);
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch_[i] = b[perm_[i]];
  // Forward substitution (L unit diagonal); x_j for j < i already sits in b.
  // Only the stored nonzeros of each row participate (see SparseTri).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = scratch_[i];
    for (std::size_t k = lrow_.start[i]; k < lrow_.start[i + 1]; ++k) {
      acc -= lrow_.val[k] * b[lrow_.idx[k]];
    }
    b[i] = acc;
  }
}

void LuFactorization::solve_upper_in_place(std::vector<double>& b) const {
  TAPO_CHECK(ok_);
  const std::size_t n = lu_.rows();
  TAPO_CHECK(b.size() == n);
  // Back substitution with U.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = b[i];
    for (std::size_t k = urow_.start[i]; k < urow_.start[i + 1]; ++k) {
      acc -= urow_.val[k] * b[urow_.idx[k]];
    }
    b[i] = acc / udiag_[i];
  }
}

void LuFactorization::solve_transposed_in_place(std::vector<double>& b) const {
  solve_upper_transposed_in_place(b);
  solve_lower_transposed_in_place(b);
}

void LuFactorization::solve_upper_transposed_in_place(
    std::vector<double>& b) const {
  TAPO_CHECK(ok_);
  const std::size_t n = lu_.rows();
  TAPO_CHECK(b.size() == n);
  // With PA = LU (P the row permutation applied during factorization),
  // A^{-T} b = P^T L^{-T} U^{-T} b.
  // Step 1: z = U^{-T} b. U^T is lower triangular with U's diagonal; column
  // i of U holds row i of U^T, so ucol_ drives the substitution.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = ucol_.start[i]; k < ucol_.start[i + 1]; ++k) {
      acc -= ucol_.val[k] * b[ucol_.idx[k]];
    }
    b[i] = acc / udiag_[i];
  }
}

void LuFactorization::solve_lower_transposed_in_place(
    std::vector<double>& b) const {
  TAPO_CHECK(ok_);
  const std::size_t n = lu_.rows();
  TAPO_CHECK(b.size() == n);
  // Step 2: w = L^{-T} z. L^T is unit upper triangular.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = b[i];
    for (std::size_t k = lcol_.start[i]; k < lcol_.start[i + 1]; ++k) {
      acc -= lcol_.val[k] * b[lcol_.idx[k]];
    }
    b[i] = acc;
  }
  // Step 3: x = P^T w, i.e. x[perm_[i]] = w[i].
  scratch_.assign(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) b[perm_[i]] = scratch_[i];
}

Matrix LuFactorization::solve(const Matrix& b) const {
  TAPO_CHECK(ok_);
  TAPO_CHECK(b.rows() == lu_.rows());
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const auto sol = solve(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

FtFactorization::FtFactorization(const Matrix& basis)
    : base_(basis), m_(basis.rows()) {}

bool FtFactorization::fill_exceeded(double fill_factor) const {
  if (!materialized_) return false;
  const double budget =
      fill_factor * static_cast<double>(std::max(base_entries_, m_));
  return static_cast<double>(entries_) > budget;
}

void FtFactorization::materialize() {
  // Copy the wrapped factorization's U into the mutable representation. The
  // pair order starts as the identity, so Ubar's structure and values match
  // base_'s urow_/ucol_/udiag_ exactly.
  u_.assign(m_ * m_, 0.0);
  urow_.assign(m_, {});
  ucol_.assign(m_, {});
  in_u_.assign(m_ * m_, 0);
  row_at_.resize(m_);
  col_at_.resize(m_);
  rpos_.resize(m_);
  cpos_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto u32 = static_cast<std::uint32_t>(i);
    row_at_[i] = u32;
    col_at_[i] = u32;
    rpos_[i] = u32;
    cpos_[i] = u32;
    u_[i * m_ + i] = base_.udiag_[i];
  }
  entries_ = 0;
  const LuFactorization::SparseTri& urow = base_.urow_;
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t k = urow.start[i]; k < urow.start[i + 1]; ++k) {
      const std::size_t j = urow.idx[k];
      u_[i * m_ + j] = urow.val[k];
      urow_[i].push_back(static_cast<std::uint32_t>(j));
      ucol_[j].push_back(static_cast<std::uint32_t>(i));
      in_u_[i * m_ + j] = 1;
      ++entries_;
    }
  }
  base_entries_ = entries_;
  materialized_ = true;
}

void FtFactorization::set_spike_entry(std::uint32_t row, std::uint32_t col,
                                      double value) {
  u_[row * m_ + col] = value;
  if (!in_u_[row * m_ + col]) {
    in_u_[row * m_ + col] = 1;
    urow_[row].push_back(col);
    ucol_[col].push_back(row);
    ++entries_;
  }
}

void FtFactorization::ftran(std::vector<double>& v,
                            std::vector<double>* spike) const {
  if (!materialized_) {
    // Zero updates: delegate to the fused solves so the results are bitwise
    // identical to a fresh LuFactorization.
    base_.solve_lower_in_place(v);
    if (spike != nullptr) *spike = v;
    base_.solve_upper_in_place(v);
    return;
  }
  TAPO_CHECK(v.size() == m_);
  base_.solve_lower_in_place(v);
  for (const RowEta& e : retas_) v[e.spike_row] -= e.mult * v[e.pivot_row];
  if (spike != nullptr) *spike = v;
  // Back substitution with Ubar in logical pair order. The input is indexed
  // by elimination row, the output by basis position, so the solve goes
  // through scratch. Stored entries at logical positions before the pivot
  // read scratch slots not yet written: those entries are exact zeros (see
  // the header), and the zero-fill below keeps 0.0 * scratch exact.
  scratch_.assign(m_, 0.0);
  for (std::size_t kk = m_; kk > 0; --kk) {
    const std::uint32_t r = row_at_[kk - 1];
    const std::uint32_t c = col_at_[kk - 1];
    double acc = v[r];
    const double* urow_vals = u_.data() + static_cast<std::size_t>(r) * m_;
    for (const std::uint32_t j : urow_[r]) acc -= urow_vals[j] * scratch_[j];
    scratch_[c] = acc / urow_vals[c];
  }
  v.assign(scratch_.begin(), scratch_.end());
}

void FtFactorization::btran(std::vector<double>& v) const {
  if (!materialized_) {
    base_.solve_transposed_in_place(v);
    return;
  }
  TAPO_CHECK(v.size() == m_);
  // Forward substitution with Ubar^T in logical pair order (input indexed by
  // basis position, output by elimination row).
  scratch_.assign(m_, 0.0);
  for (std::size_t kk = 0; kk < m_; ++kk) {
    const std::uint32_t r = row_at_[kk];
    const std::uint32_t c = col_at_[kk];
    double acc = v[c];
    for (const std::uint32_t i : ucol_[c]) {
      acc -= u_[static_cast<std::size_t>(i) * m_ + c] * scratch_[i];
    }
    scratch_[r] = acc / u_[static_cast<std::size_t>(r) * m_ + c];
  }
  v.assign(scratch_.begin(), scratch_.end());
  for (std::size_t kk = retas_.size(); kk > 0; --kk) {
    const RowEta& e = retas_[kk - 1];
    v[e.pivot_row] -= e.mult * v[e.spike_row];
  }
  base_.solve_lower_transposed_in_place(v);
}

FtFactorization::Update FtFactorization::replace_column(
    std::size_t pos, const std::vector<double>& spike,
    double min_ratio) {
  TAPO_CHECK(ok());
  TAPO_CHECK(pos < m_);
  TAPO_CHECK(spike.size() == m_);
  if (!materialized_) materialize();

  const auto p = static_cast<std::uint32_t>(pos);
  const std::uint32_t kp = cpos_[p];
  const std::uint32_t rp = row_at_[kp];

  // Column p becomes the spike. Old entries not overwritten stay listed with
  // an exact 0.0 value.
  for (const std::uint32_t r : ucol_[p]) u_[static_cast<std::size_t>(r) * m_ + p] = 0.0;
  u_[static_cast<std::size_t>(rp) * m_ + p] = 0.0;
  double spike_max = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    const double v = spike[i];
    if (v == 0.0) continue;
    const double mag = std::fabs(v);
    if (mag > spike_max) spike_max = mag;
    if (i == rp) {
      u_[static_cast<std::size_t>(rp) * m_ + p] = v;  // the pair's diagonal slot
    } else {
      set_spike_entry(static_cast<std::uint32_t>(i), p, v);
    }
  }

  // Cyclically move the replaced pair to the last logical position. Column p
  // is then trivially upper triangular; row rp's entries at the pairs it
  // jumped over are now below the diagonal and get eliminated next.
  for (std::uint32_t k = kp; k + 1 < m_; ++k) {
    row_at_[k] = row_at_[k + 1];
    col_at_[k] = col_at_[k + 1];
    rpos_[row_at_[k]] = k;
    cpos_[col_at_[k]] = k;
  }
  row_at_[m_ - 1] = rp;
  col_at_[m_ - 1] = p;
  rpos_[rp] = static_cast<std::uint32_t>(m_ - 1);
  cpos_[p] = static_cast<std::uint32_t>(m_ - 1);

  // Eliminate row rp against the jumped pairs in increasing logical order.
  // Each pivot row rj has entries only at logical positions >= its own, so
  // fill lands at later positions and is handled as the loop advances; fill
  // at column p accumulates into the emerging diagonal.
  double* rp_vals = u_.data() + static_cast<std::size_t>(rp) * m_;
  for (std::uint32_t k = kp; k + 1 < m_; ++k) {
    const std::uint32_t rj = row_at_[k];
    const std::uint32_t cj = col_at_[k];
    const double val = rp_vals[cj];
    if (val == 0.0) continue;
    const double* rj_vals = u_.data() + static_cast<std::size_t>(rj) * m_;
    const double mult = val / rj_vals[cj];
    rp_vals[cj] = 0.0;
    for (const std::uint32_t c2 : urow_[rj]) {
      const double uv = rj_vals[c2];
      if (uv == 0.0) continue;  // stale structure entry
      if (c2 == p) {
        rp_vals[p] -= mult * uv;
        continue;
      }
      rp_vals[c2] -= mult * uv;
      if (!in_u_[static_cast<std::size_t>(rp) * m_ + c2]) {
        in_u_[static_cast<std::size_t>(rp) * m_ + c2] = 1;
        urow_[rp].push_back(c2);
        ucol_[c2].push_back(rp);
        ++entries_;
      }
    }
    retas_.push_back(RowEta{rp, rj, mult});
  }

  const double diag = rp_vals[p];
  if (!(std::fabs(diag) >= min_ratio * std::max(1.0, spike_max))) {
    return Update::kUnstable;
  }
  ++n_updates_;
  return Update::kOk;
}

}  // namespace tapo::solver
