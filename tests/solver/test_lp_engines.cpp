// Differential and warm-start tests for the two LP engines.
//
// The dense tableau solver is the oracle: the revised engine must agree with
// it on status for every random instance and on the objective to 1e-7 when
// both report Optimal. Warm starts (a fresh LpSession seeded with a basis —
// the only warm path) must never change what is computed — a warm re-solve
// is checked against the cold solve of the same problem, and a re-solve that
// lands on the same basis must reproduce the cold result bit-for-bit
// (canonical extraction, see docs/SOLVER.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "solver/session.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace tapo::solver {
namespace {

struct RandomLp {
  LpProblem problem;
  std::vector<Relation> rels;
  std::vector<double> rhs;
  std::vector<std::vector<std::pair<std::size_t, double>>> terms;
};

RandomLp make_random_lp(util::Rng& rng, std::size_t n_vars, std::size_t n_rows) {
  RandomLp lp;
  for (std::size_t v = 0; v < n_vars; ++v) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi =
        rng.next_double() < 0.7 ? lo + rng.uniform(0.5, 4.0) : kLpInfinity;
    lp.problem.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v = 0; v < n_vars; ++v) {
      if (rng.next_double() < 0.6) terms.emplace_back(v, rng.uniform(-1.5, 1.5));
    }
    const double pick = rng.next_double();
    Relation rel = Relation::LessEq;
    double rhs = rng.uniform(0.5, 6.0);
    if (pick < 0.15) {
      rel = Relation::GreaterEq;
      rhs = rng.uniform(-6.0, -0.5);
    } else if (pick < 0.25) {
      rel = Relation::Equal;
      rhs = rng.uniform(-1.0, 1.0);
    }
    lp.rels.push_back(rel);
    lp.rhs.push_back(rhs);
    lp.terms.push_back(terms);
    lp.problem.add_constraint(std::move(terms), rel, rhs);
  }
  return lp;
}

// Rebuilds the problem with each rhs shifted by delta[r] (same structure, so
// a basis exported from the original remains importable).
LpProblem with_shifted_rhs(const RandomLp& lp, const std::vector<double>& delta) {
  LpProblem shifted;
  for (std::size_t v = 0; v < lp.problem.num_vars(); ++v) {
    shifted.add_variable(lp.problem.lower_bound(v), lp.problem.upper_bound(v),
                         lp.problem.objective_coeff(v));
  }
  for (std::size_t r = 0; r < lp.rels.size(); ++r) {
    shifted.add_constraint(lp.terms[r], lp.rels[r], lp.rhs[r] + delta[r]);
  }
  return shifted;
}

LpSolution solve_with(const LpProblem& problem, LpEngine engine) {
  LpOptions opt;
  opt.engine = engine;
  return solve_lp(problem, opt);
}

// A warm solve: a fresh session's first solve, seeded with `seed`.
LpSolution solve_seeded(const LpProblem& problem, const LpBasis& seed,
                        const LpOptions& opt = {}) {
  return LpSession(problem, opt).solve(&seed);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// solve_lp on the revised engine is a fresh session's first solve: over
// random draws that reach every status, the two agree bit for bit in
// status, iterations, objective, x, duals and exported basis.
TEST(LpEngines, SolveLpIsAFreshSessionsFirstSolve) {
  util::Rng rng(0x0ddba11cafef00d5ULL);
  std::size_t by_status[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const RandomLp lp = make_random_lp(rng, n_vars, n_rows);
    LpOptions opt;
    // Every fifth draw runs under a tight cap, so IterLimit shows up too.
    if (trial % 5 == 4) opt.max_iterations = 2;
    const LpSolution once = solve_lp(lp.problem, opt);
    const LpSolution first = LpSession(lp.problem, opt).solve();
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ASSERT_EQ(once.status, first.status);
    ++by_status[static_cast<int>(once.status)];
    EXPECT_EQ(once.iterations, first.iterations);
    EXPECT_TRUE(same_bits(once.objective, first.objective));
    ASSERT_EQ(once.x.size(), first.x.size());
    for (std::size_t v = 0; v < once.x.size(); ++v) {
      EXPECT_TRUE(same_bits(once.x[v], first.x[v])) << "var " << v;
    }
    ASSERT_EQ(once.duals.size(), first.duals.size());
    for (std::size_t r = 0; r < once.duals.size(); ++r) {
      EXPECT_TRUE(same_bits(once.duals[r], first.duals[r])) << "row " << r;
    }
    EXPECT_EQ(once.basis.status, first.basis.status);
    EXPECT_EQ(once.warm_used, first.warm_used);
  }
  EXPECT_GT(by_status[static_cast<int>(LpStatus::Optimal)], 0u);
  EXPECT_GT(by_status[static_cast<int>(LpStatus::Infeasible)], 0u);
  EXPECT_GT(by_status[static_cast<int>(LpStatus::Unbounded)], 0u);
  EXPECT_GT(by_status[static_cast<int>(LpStatus::IterLimit)], 0u);
}

TEST(LpEngines, DifferentialRandomInstances) {
  util::Rng rng(0x1f2e3d4c5b6a7980ULL);
  std::size_t optimal_count = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const RandomLp lp = make_random_lp(rng, n_vars, n_rows);

    const LpSolution dense = solve_with(lp.problem, LpEngine::Dense);
    const LpSolution revised = solve_with(lp.problem, LpEngine::Revised);
    ASSERT_EQ(dense.status, revised.status)
        << "trial " << trial << ": dense=" << to_string(dense.status)
        << " revised=" << to_string(revised.status);
    if (dense.status != LpStatus::Optimal) continue;
    ++optimal_count;
    EXPECT_NEAR(dense.objective, revised.objective, 1e-7) << "trial " << trial;
    EXPECT_LT(lp.problem.max_violation(revised.x), 1e-6) << "trial " << trial;
    EXPECT_NEAR(lp.problem.objective_value(revised.x), revised.objective, 1e-7);
  }
  // The generator is tuned to keep a healthy share of instances feasible.
  EXPECT_GT(optimal_count, 60u);
}

TEST(LpEngines, WarmEqualsColdAfterRhsPerturbation) {
  util::Rng rng(0xabcddcba12344321ULL);
  std::size_t warm_accepted = 0, compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(3, 12));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const RandomLp lp = make_random_lp(rng, n_vars, n_rows);
    const LpSolution base = solve_with(lp.problem, LpEngine::Revised);
    if (!base.optimal()) continue;
    ASSERT_EQ(base.basis.size(),
              lp.problem.num_vars() + lp.problem.num_constraints());

    std::vector<double> delta(lp.problem.num_constraints());
    for (double& d : delta) d = rng.uniform(-0.2, 0.2);
    const LpProblem shifted = with_shifted_rhs(lp, delta);

    const LpSolution cold = solve_with(shifted, LpEngine::Revised);
    const LpSolution warm = solve_seeded(shifted, base.basis);
    ASSERT_EQ(cold.status, warm.status) << "trial " << trial;
    if (warm.warm_used) ++warm_accepted;
    if (cold.status != LpStatus::Optimal) continue;
    ++compared;
    EXPECT_NEAR(cold.objective, warm.objective, 1e-8) << "trial " << trial;
    EXPECT_LT(shifted.max_violation(warm.x), 1e-6) << "trial " << trial;
  }
  EXPECT_GT(compared, 20u);
  // The basis from the unshifted problem should be accepted essentially
  // always (the structure is identical); require it was at least once.
  EXPECT_GT(warm_accepted, 0u);
}

TEST(LpEngines, WarmFromOwnOptimalBasisIsBitIdentical) {
  util::Rng rng(0x5eed5eed5eed5eedULL);
  std::size_t checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const RandomLp lp = make_random_lp(rng, 8, 5);
    const LpSolution cold = solve_with(lp.problem, LpEngine::Revised);
    if (!cold.optimal()) continue;
    const LpSolution warm = solve_seeded(lp.problem, cold.basis);
    ASSERT_TRUE(warm.optimal());
    EXPECT_TRUE(warm.warm_used);
    // Same problem, same basis: canonical extraction makes the re-solve
    // reproduce the cold answer exactly, not merely within tolerance.
    EXPECT_EQ(cold.objective, warm.objective);
    ASSERT_EQ(cold.x.size(), warm.x.size());
    for (std::size_t v = 0; v < cold.x.size(); ++v) {
      EXPECT_EQ(cold.x[v], warm.x[v]) << "var " << v;
    }
    // The warm path verifies optimality without pivoting.
    EXPECT_LE(warm.iterations, cold.iterations);
    ++checked;
  }
  EXPECT_GT(checked, 15u);
}

TEST(LpEngines, CrossEngineWarmStartFromDenseBasis) {
  // A dense-exported basis names the same logical variables (the dense
  // engine's row flips rewrite rows into equivalent systems without changing
  // which slack belongs to which row), so it must warm-start the revised
  // engine.
  util::Rng rng(0x0123456789abcdefULL);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const RandomLp lp = make_random_lp(rng, 10, 6);
    const LpSolution dense = solve_with(lp.problem, LpEngine::Dense);
    if (!dense.optimal()) continue;
    const LpSolution warm = solve_seeded(lp.problem, dense.basis);
    ASSERT_TRUE(warm.optimal());
    EXPECT_NEAR(dense.objective, warm.objective, 1e-8);
    if (warm.warm_used) ++accepted;
  }
  EXPECT_GT(accepted, 10u);
}

TEST(LpEngines, FtUpdateBudgetDoesNotDriftFromOracle) {
  // From a refactorization after every Forrest–Tomlin update to a budget no
  // solve exhausts, the update cadence must not move the answer away from
  // the dense oracle.
  util::Rng rng(0x7777aaaa3333bbbbULL);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{4},
                                   std::size_t{1024}}) {
    util::Rng local = rng.fork(budget);
    for (int trial = 0; trial < 25; ++trial) {
      const RandomLp lp = make_random_lp(local, 12, 8);
      const LpSolution dense = solve_with(lp.problem, LpEngine::Dense);
      LpOptions opt;
      opt.engine = LpEngine::Revised;
      opt.ft_max_updates = budget;
      const LpSolution revised = solve_lp(lp.problem, opt);
      ASSERT_EQ(dense.status, revised.status)
          << "budget " << budget << " trial " << trial;
      if (!dense.optimal()) continue;
      EXPECT_NEAR(dense.objective, revised.objective, 1e-7)
          << "budget " << budget << " trial " << trial;
      EXPECT_LT(lp.problem.max_violation(revised.x), 1e-6)
          << "budget " << budget << " trial " << trial;
    }
  }
}

TEST(LpEngines, FtAndEtaFilePathsAgreeWithTheOracle) {
  // The name predates the removal of the product-form eta file; Forrest–
  // Tomlin is now the revised engine's only factor-maintenance path. Over
  // random shapes, the default update budget and a tight one (forcing
  // frequent refactorizations) must both match the dense oracle on status
  // and objective and return feasible points.
  util::Rng rng(0x6a09e667f3bcc908ULL);
  std::size_t optimal_count = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(3, 14));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const RandomLp lp = make_random_lp(rng, n_vars, n_rows);
    const LpSolution dense = solve_with(lp.problem, LpEngine::Dense);

    LpOptions ft_opt;
    ft_opt.engine = LpEngine::Revised;
    const LpSolution ft = solve_lp(lp.problem, ft_opt);

    LpOptions tight_opt = ft_opt;
    tight_opt.ft_max_updates = 2;
    const LpSolution tight = solve_lp(lp.problem, tight_opt);

    ASSERT_EQ(dense.status, ft.status) << "trial " << trial;
    ASSERT_EQ(dense.status, tight.status) << "trial " << trial;
    if (!dense.optimal()) continue;
    ++optimal_count;
    EXPECT_NEAR(dense.objective, ft.objective, 1e-7) << "trial " << trial;
    EXPECT_NEAR(dense.objective, tight.objective, 1e-7) << "trial " << trial;
    EXPECT_LT(lp.problem.max_violation(ft.x), 1e-6) << "trial " << trial;
    EXPECT_LT(lp.problem.max_violation(tight.x), 1e-6) << "trial " << trial;
  }
  EXPECT_GT(optimal_count, 30u);
}

TEST(LpEngines, FtKnobValidation) {
  LpProblem lp;
  lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 0.5);
  LpOptions opt;
  opt.ft_max_updates = 0;
  EXPECT_DEATH(solve_lp(lp, opt), "ft_max_updates");
}

// Beale's classic cycling example: pure Dantzig pivoting with a
// smallest-index ratio tie-break cycles forever on this LP. The Bland
// fallback (both engines switch after a degenerate-iteration threshold)
// guarantees termination at the optimum.
TEST(LpEngines, BealeCyclingInstanceTerminates) {
  LpProblem lp;
  lp.add_variable(0.0, kLpInfinity, 0.75);    // x1
  lp.add_variable(0.0, kLpInfinity, -150.0);  // x2
  lp.add_variable(0.0, kLpInfinity, 0.02);    // x3
  lp.add_variable(0.0, kLpInfinity, -6.0);    // x4
  lp.add_constraint({{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}},
                    Relation::LessEq, 0.0);
  lp.add_constraint({{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}},
                    Relation::LessEq, 0.0);
  lp.add_constraint({{2, 1.0}}, Relation::LessEq, 1.0);

  // On the revised engine the stall counter trips the Bland fallback under
  // partial Devex too: Bland's full lowest-index scan bypasses both the
  // Devex scores and the partial window — a windowed anti-cycling scan
  // would forfeit the guarantee.
  for (const LpEngine engine : {LpEngine::Dense, LpEngine::Revised}) {
    const LpSolution sol = solve_with(lp, engine);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 0.05, 1e-9);
  }
}

// A warm start changes the route, never the destination: the revised
// engine (partial Devex) resolving from an imported basis must agree with
// the dense oracle (Dantzig, cold) on status and objective.
TEST(LpEngines, PricingRulesAgreeOnWarmStartedResolves) {
  util::Rng rng(0x31415926535897ULL);
  std::size_t compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(4, 12));
    const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const RandomLp lp = make_random_lp(rng, n_vars, n_rows);
    const LpSolution base = solve_with(lp.problem, LpEngine::Revised);
    if (!base.optimal()) continue;
    std::vector<double> delta(n_rows);
    for (double& d : delta) d = rng.uniform(-0.3, 0.3);
    const LpProblem shifted = with_shifted_rhs(lp, delta);
    const LpSolution oracle = solve_with(shifted, LpEngine::Dense);
    const LpSolution warm = solve_seeded(shifted, base.basis);
    ASSERT_EQ(oracle.status, warm.status) << "trial " << trial;
    if (!oracle.optimal()) continue;
    EXPECT_NEAR(oracle.objective, warm.objective, 1e-7) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 15u);
}

TEST(LpEngines, IterLimitIsReportedNotLooped) {
  util::Rng rng(0x2222444466668888ULL);
  const RandomLp lp = make_random_lp(rng, 12, 8);
  for (const LpEngine engine : {LpEngine::Dense, LpEngine::Revised}) {
    LpOptions opt;
    opt.engine = engine;
    opt.max_iterations = 1;
    const LpSolution sol = solve_lp(lp.problem, opt);
    EXPECT_EQ(sol.status, LpStatus::IterLimit);
    EXPECT_TRUE(sol.basis.empty());  // no basis export off the optimal path
  }
}

TEST(LpEngines, MalformedWarmBasisFallsBackToCold) {
  util::Rng rng(0x1010202030304040ULL);
  const RandomLp lp = make_random_lp(rng, 8, 5);
  const LpSolution cold = solve_with(lp.problem, LpEngine::Revised);
  ASSERT_TRUE(cold.optimal());

  // Wrong slot count: must be rejected, counted, and solved cold anyway.
  LpBasis wrong_size;
  wrong_size.status.assign(3, LpBasisStatus::Basic);
  util::telemetry::Registry reg;
  LpOptions opt;
  opt.telemetry = &reg;
  const LpSolution sol = solve_seeded(lp.problem, wrong_size, opt);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_used);
  EXPECT_EQ(sol.objective, cold.objective);
  EXPECT_EQ(reg.counter_value("lp.warm_rejects"), 1u);
  EXPECT_EQ(reg.counter_value("lp.warm_starts"), 0u);

  // Wrong basic count (all slots basic) must also fall back, not crash.
  LpBasis all_basic;
  all_basic.status.assign(
      lp.problem.num_vars() + lp.problem.num_constraints(),
      LpBasisStatus::Basic);
  const LpSolution sol2 = solve_seeded(lp.problem, all_basic);
  ASSERT_TRUE(sol2.optimal());
  EXPECT_FALSE(sol2.warm_used);
  EXPECT_EQ(sol2.objective, cold.objective);
}

TEST(LpEngines, TelemetryCountsSolvesAndHistogram) {
  util::telemetry::Registry reg;
  LpProblem lp;
  lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{0, 1.0}}, Relation::LessEq, 0.5);
  LpOptions opt;
  opt.telemetry = &reg;
  const LpSolution sol = solve_lp(lp, opt);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(reg.counter_value("lp.solves"), 1u);
  EXPECT_EQ(reg.counter_value("lp.iterations"), sol.iterations);
  const std::uint64_t bucketed = reg.counter_value("lp.iters.le_4") +
                                 reg.counter_value("lp.iters.le_16") +
                                 reg.counter_value("lp.iters.le_64") +
                                 reg.counter_value("lp.iters.le_256") +
                                 reg.counter_value("lp.iters.gt_256");
  EXPECT_EQ(bucketed, 1u);
}

TEST(LpEngines, SparseColumnsCoalesceDuplicates) {
  LpProblem lp;
  lp.add_variable(0.0, 1.0, 1.0);
  lp.add_variable(0.0, 1.0, 1.0);
  // Variable 0 appears twice in row 0: entries must coalesce to 3.0.
  lp.add_constraint({{0, 1.0}, {1, 2.0}, {0, 2.0}}, Relation::LessEq, 4.0);
  lp.add_constraint({{1, -1.0}}, Relation::GreaterEq, -1.0);
  const LpProblem::SparseColumns cols = lp.columns();
  ASSERT_EQ(cols.starts.size(), 3u);
  ASSERT_EQ(cols.starts[1] - cols.starts[0], 1u);
  EXPECT_EQ(cols.rows[cols.starts[0]], 0u);
  EXPECT_DOUBLE_EQ(cols.values[cols.starts[0]], 3.0);
  ASSERT_EQ(cols.starts[2] - cols.starts[1], 2u);
  EXPECT_EQ(cols.rows[cols.starts[1]], 0u);
  EXPECT_EQ(cols.rows[cols.starts[1] + 1], 1u);
}

}  // namespace
}  // namespace tapo::solver
