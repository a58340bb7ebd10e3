// Property-based tests for the simplex solver.
//
// Random LPs are checked with a complete optimality certificate: the primal
// point must be feasible, the returned duals must be sign-feasible, and the
// dual objective (with reduced costs priced against the box bounds) must
// equal the primal objective - weak duality then proves optimality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "solver/lp.h"
#include "util/rng.h"

namespace tapo::solver {
namespace {

struct RandomLp {
  LpProblem problem;
  std::vector<std::vector<double>> rows;  // dense copies for the certificate
  std::vector<Relation> rels;
  std::vector<double> rhs;
};

RandomLp make_random_lp(util::Rng& rng, std::size_t n_vars, std::size_t n_rows) {
  RandomLp lp;
  for (std::size_t v = 0; v < n_vars; ++v) {
    const double lo = rng.uniform(-2.0, 0.0);
    // A mix of finite and infinite upper bounds.
    const double hi = rng.next_double() < 0.7 ? lo + rng.uniform(0.5, 4.0) : kLpInfinity;
    lp.problem.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<double> dense(n_vars, 0.0);
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v = 0; v < n_vars; ++v) {
      if (rng.next_double() < 0.6) {
        dense[v] = rng.uniform(-1.5, 1.5);
        terms.emplace_back(v, dense[v]);
      }
    }
    const double pick = rng.next_double();
    // Mostly <= rows with generous rhs keeps a healthy share feasible while
    // still exercising >= and = standardization paths.
    Relation rel = Relation::LessEq;
    double rhs = rng.uniform(0.5, 6.0);
    if (pick < 0.15) {
      rel = Relation::GreaterEq;
      rhs = rng.uniform(-6.0, -0.5);
    } else if (pick < 0.25) {
      rel = Relation::Equal;
      rhs = rng.uniform(-1.0, 1.0);
    }
    lp.rows.push_back(dense);
    lp.rels.push_back(rel);
    lp.rhs.push_back(rhs);
    lp.problem.add_constraint(std::move(terms), rel, rhs);
  }
  return lp;
}

// Complete optimality certificate for a maximization LP with box bounds.
void expect_optimality_certificate(const RandomLp& lp, const LpSolution& sol) {
  const double tol = 1e-6;
  const std::size_t n = lp.problem.num_vars();

  // 1. Primal feasibility.
  EXPECT_LT(lp.problem.max_violation(sol.x), tol);

  // 2. Dual sign feasibility + complementary slackness on rows.
  ASSERT_EQ(sol.duals.size(), lp.rows.size());
  for (std::size_t r = 0; r < lp.rows.size(); ++r) {
    const double activity =
        std::inner_product(lp.rows[r].begin(), lp.rows[r].end(), sol.x.begin(), 0.0);
    const double slack = lp.rhs[r] - activity;
    switch (lp.rels[r]) {
      case Relation::LessEq:
        EXPECT_GT(sol.duals[r], -tol);
        EXPECT_LT(std::fabs(sol.duals[r] * slack), 1e-4);
        break;
      case Relation::GreaterEq:
        EXPECT_LT(sol.duals[r], tol);
        EXPECT_LT(std::fabs(sol.duals[r] * slack), 1e-4);
        break;
      case Relation::Equal:
        break;  // free dual
    }
  }

  // 3. Strong duality: dual objective == primal objective. Reduced costs are
  // priced against whichever bound they push toward.
  double dual_obj = 0.0;
  for (std::size_t r = 0; r < lp.rows.size(); ++r) dual_obj += sol.duals[r] * lp.rhs[r];
  for (std::size_t v = 0; v < n; ++v) {
    double reduced = lp.problem.objective_coeff(v);
    for (std::size_t r = 0; r < lp.rows.size(); ++r) {
      reduced -= sol.duals[r] * lp.rows[r][v];
    }
    if (reduced > tol) {
      ASSERT_TRUE(std::isfinite(lp.problem.upper_bound(v)))
          << "positive reduced cost on an unbounded variable";
      dual_obj += reduced * lp.problem.upper_bound(v);
    } else if (reduced < -tol) {
      dual_obj += reduced * lp.problem.lower_bound(v);
    }
  }
  EXPECT_NEAR(dual_obj, sol.objective, 1e-4 * std::max(1.0, std::fabs(sol.objective)));
}

class LpRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRandomProperty, CertificateHoldsWhenOptimal) {
  util::Rng rng(GetParam());
  const auto n_vars = static_cast<std::size_t>(rng.uniform_int(2, 14));
  const auto n_rows = static_cast<std::size_t>(rng.uniform_int(1, 10));
  const RandomLp lp = make_random_lp(rng, n_vars, n_rows);
  const LpSolution sol = solve_lp(lp.problem);
  ASSERT_NE(sol.status, LpStatus::IterLimit);
  if (sol.status == LpStatus::Optimal) {
    expect_optimality_certificate(lp, sol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomProperty, ::testing::Range<std::uint64_t>(0, 120));

class LpKnapsackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpKnapsackProperty, MatchesGreedyContinuousKnapsack) {
  // max c^T x s.t. w^T x <= B, 0 <= x <= u has the classic greedy optimum:
  // fill variables in decreasing c/w density.
  util::Rng rng(GetParam() + 5000);
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 20));
  std::vector<double> c(n), w(n), u(n);
  LpProblem p;
  std::vector<std::pair<std::size_t, double>> terms;
  for (std::size_t v = 0; v < n; ++v) {
    c[v] = rng.uniform(0.1, 5.0);
    w[v] = rng.uniform(0.1, 3.0);
    u[v] = rng.uniform(0.1, 2.0);
    p.add_variable(0.0, u[v], c[v]);
    terms.emplace_back(v, w[v]);
  }
  const double budget = rng.uniform(0.2, 5.0);
  p.add_constraint(terms, Relation::LessEq, budget);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return c[a] / w[a] > c[b] / w[b]; });
  double remaining = budget, greedy = 0.0;
  for (std::size_t v : order) {
    const double amount = std::min(u[v], remaining / w[v]);
    greedy += c[v] * amount;
    remaining -= w[v] * amount;
    if (remaining <= 0) break;
  }

  const LpSolution sol = solve_lp(p);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, greedy, 1e-7 * std::max(1.0, greedy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpKnapsackProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(LpProperty, RelaxingRhsNeverDecreasesObjective) {
  util::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n_vars = static_cast<std::size_t>(rng.uniform_int(2, 8));
    RandomLp tight = make_random_lp(rng, n_vars, 4);
    const LpSolution s1 = solve_lp(tight.problem);
    if (s1.status != LpStatus::Optimal) continue;

    // Rebuild with every <= rhs relaxed by +1.
    LpProblem relaxed;
    for (std::size_t v = 0; v < n_vars; ++v) {
      relaxed.add_variable(tight.problem.lower_bound(v), tight.problem.upper_bound(v),
                           tight.problem.objective_coeff(v));
    }
    for (std::size_t r = 0; r < tight.rows.size(); ++r) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t v = 0; v < n_vars; ++v) {
        if (tight.rows[r][v] != 0.0) terms.emplace_back(v, tight.rows[r][v]);
      }
      const double delta = tight.rels[r] == Relation::LessEq ? 1.0 : 0.0;
      relaxed.add_constraint(std::move(terms), tight.rels[r], tight.rhs[r] + delta);
    }
    const LpSolution s2 = solve_lp(relaxed);
    ASSERT_EQ(s2.status, LpStatus::Optimal);
    EXPECT_GE(s2.objective, s1.objective - 1e-7);
  }
}

TEST(LpProperty, ScalingObjectiveScalesOptimum) {
  // Scaling the objective by 3 keeps the feasible set, so the optimum
  // scales by 3. Checked on every optimal draw of a fixed sequence; the
  // floor on the optimal count keeps the test from passing vacuously.
  util::Rng rng(88);
  std::size_t optimal = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomLp lp = make_random_lp(rng, 6, 4);
    const LpSolution s1 = solve_lp(lp.problem);
    if (s1.status != LpStatus::Optimal) continue;
    ++optimal;
    LpProblem scaled;
    for (std::size_t v = 0; v < lp.problem.num_vars(); ++v) {
      scaled.add_variable(lp.problem.lower_bound(v), lp.problem.upper_bound(v),
                          3.0 * lp.problem.objective_coeff(v));
    }
    for (std::size_t r = 0; r < lp.rows.size(); ++r) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t v = 0; v < lp.problem.num_vars(); ++v) {
        if (lp.rows[r][v] != 0.0) terms.emplace_back(v, lp.rows[r][v]);
      }
      scaled.add_constraint(std::move(terms), lp.rels[r], lp.rhs[r]);
    }
    const LpSolution s2 = solve_lp(scaled);
    ASSERT_EQ(s2.status, LpStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(s2.objective, 3.0 * s1.objective,
                1e-6 * std::max(1.0, std::fabs(s1.objective)))
        << "trial " << trial;
  }
  EXPECT_GE(optimal, 15u);
}

}  // namespace
}  // namespace tapo::solver
