// Persistent warm LP solving: one resident problem, patched in place and
// re-solved many times. This is the only way to warm-start an LP.
//
// solve_lp (lp.h) prices every solve at full fixed cost: build the
// LpProblem, standardize it into CSC form and solve it cold (a solve_lp call
// is a fresh session's first solve). Even a warm re-solve from a seed pays
// the standardization, a refactorization of the seed basis and one more for
// canonical extraction; docs/SOLVER.md §6 measured that those fixed costs —
// not simplex pivots — are why the dense tableau kept winning wall-clock
// even at a ~0.9 warm-hit rate. An LpSession pays them once: it standardizes the problem when it is built and keeps only the
// standardized arrays (no row-wise copy of the problem), the basis and the
// LU factors across solves, and callers mutate the resident problem through
// the structure-preserving patch API instead of rebuilding it. A session is
// copyable: a copy of a never-solved session is the cheap way to get many
// independent sessions of one LP (the CRAC sweep builds one per sweep and
// copies it at every warm-chain head).
//
// Between solves the factorization is maintained, not rebuilt: pivots update
// the Forrest–Tomlin factors in place as usual, and a patched column that is
// currently basic gets a Forrest–Tomlin column replacement at the next
// solve. A stability monitor (spike-pivot check on each replacement,
// residual check on the resumed solution) demotes updates to a
// refactorization, and any failure beyond that falls back to the engine's
// cold path — a session solve is never less correct than a fresh one, and
// canonical extraction keeps its results a function of the final basis
// alone, exactly like solve_lp. Protocol details: docs/SOLVER.md §7.
//
// The CRAC grid sweep (core/crac_sweep.h), powermin attempts and recovery
// re-plans hold one session per warm chain. Not thread-safe; one session
// belongs to one chain on one thread (copying a session only reads it).
#pragma once

#include <cstdint>
#include <memory>

#include "solver/lp.h"

namespace tapo::solver {

class LpSession {
 public:
  // Lifetime counters, cumulative across all solves of this session.
  struct Stats {
    std::uint64_t solves = 0;
    std::uint64_t patches = 0;            // patch_* calls accepted
    std::uint64_t column_updates = 0;     // FT replacements of patched columns
    std::uint64_t refactorizations = 0;   // LU rebuilds (any reason)
    std::uint64_t stability_refactorizations = 0;  // monitor-triggered
    std::uint64_t fallbacks = 0;          // warm/resident state abandoned
    std::uint64_t resident_resumes = 0;   // solves resumed without any rebuild
    std::uint64_t seed_imports = 0;       // solves warm-started from a seed
    std::uint64_t ft_budget_exhausted = 0;  // resumes whose patch queue hit
                                            // the min(ft_max_updates, m/4+1)
                                            // budget and refactorized instead
  };

  // Standardizes the built problem once (telemetry: lp.session.build) and
  // keeps nothing else of it. The engine choice in options is ignored — a
  // session is always the revised engine (the dense oracle has no
  // persistent form). Warm starts come from per-solve seeds.
  LpSession(const LpProblem& problem, const LpOptions& options);
  ~LpSession();
  // A copy carries the resident arrays, basis, factors and counters; it
  // solves exactly as the original would from that state.
  LpSession(const LpSession& other);
  LpSession& operator=(const LpSession& other);
  LpSession(LpSession&&) noexcept;
  LpSession& operator=(LpSession&&) noexcept;

  // Structure-preserving patches of the resident standardized arrays (same
  // contracts as LpProblem::patch_*). A caller that needs the patched
  // problem itself, e.g. for an oracle re-solve, keeps and patches its own
  // LpProblem.
  void patch_rhs(std::size_t r, double rhs);
  void patch_coefficient(std::size_t r, std::size_t v, double coeff);

  // Solves the resident problem. A non-null, non-empty seed imports that
  // basis (chain-head / cross-round seeding); otherwise the previous
  // solve's basis and factors are resumed in place, and a session that has
  // not solved yet starts cold — bit for bit what solve_lp with the revised
  // engine returns. A seed that does not fit falls back to a cold start
  // (counted as lp.warm_rejects); results are valid either way.
  LpSolution solve(const LpBasis* seed = nullptr);

  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tapo::solver
