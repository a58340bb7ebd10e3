// Internal entry point of the revised-simplex engine (solver/revised.cpp).
//
// Callers use solve_lp (solver/lp.h) with LpOptions::engine; this header
// only decouples the engine's translation unit from the dense oracle's.
#pragma once

#include "solver/lp.h"

namespace tapo::solver::internal {

// Revised simplex over an LU-factorized basis with Forrest–Tomlin updates.
// Honors LpOptions::warm_start and the ft_* budgets; counts the engine-side
// lp.* metrics (refactorizations, fallbacks, dual iterations) when
// options.telemetry is set. Statuses and tolerances match the dense engine.
LpSolution solve_lp_revised(const LpProblem& problem, const LpOptions& options);

}  // namespace tapo::solver::internal
