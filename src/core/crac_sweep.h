// The CRAC-setpoint sweep: Section V.B.2's multi-step discretized search
// over the CRAC outlet temperatures, around an LP at fixed setpoints.
//
// Stage 1 (core/stage1.cpp), power minimization (core/powermin.cpp) and the
// Eq.-21 baseline (core/baseline.cpp) each solve such an LP family; this
// driver owns every decision around it, so the three sweep alike:
//
//   * bounds: CRAC c sweeps [crac_min_outlet(c, tcrac_min_c), tcrac_max_c],
//     so a derated unit is never set below its raised minimum outlet;
//   * search: full Cartesian coarse-to-fine (full_grid) or the cheaper
//     uniform-value-then-coordinate-descent default (solver/gridsearch.h);
//   * engine: on the revised engine with warm chains each chain holds one
//     resident evaluator, built at the chain head and moved to every later
//     point of the chain; otherwise every point builds and solves its own
//     LP, warm-started from the caller's seed;
//   * seeding: chain heads start from the caller's seed. After every round
//     a serial step moves one resident incumbent evaluator to the running
//     best point (skipped when that point has not changed) and resumes it;
//     its basis seeds the next round's chain heads. The step runs between
//     rounds on the driving thread and depends only on the incumbent, which
//     is thread-count-invariant, so results are bit-identical across
//     thread counts;
//   * accounting: one `<prefix>.lp` interval per sweep solve and per
//     incumbent re-solve, and the `<prefix>.lp_solves`,
//     `.infeasible_candidates`, `.grid_evaluations`, `.sweep_rounds`
//     counters and `.best_objective_by_round` series
//     (docs/OBSERVABILITY.md). A caller's grid.on_round hook is always
//     forwarded;
//   * outcome: with no feasible point the status is ResourceExhausted when
//     any candidate hit the LP iteration cap, else Infeasible. Otherwise the
//     winner is re-solved cold on the Dense oracle, so the published plan is
//     the same whichever engine ran the sweep.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "solver/lp.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace tapo::core {

struct CracSweepOptions {
  // Metric prefix and status-message tag ("stage1", "powermin", ...).
  const char* prefix = "";
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
  bool full_grid = false;
  // Engine and numerics of every solve; warm_start and telemetry are
  // ignored (see seed and telemetry below).
  solver::LpOptions lp;
  util::telemetry::Registry* telemetry = nullptr;
  // Initial warm-start basis (non-owning, may be null or empty).
  const solver::LpBasis* seed = nullptr;
};

// A caller's LP family. Outcome carries `feasible`, `status` and `basis`;
// Evaluator offers move_to(crac_out) and solve(const LpBasis* seed).
template <class Outcome, class Evaluator>
struct CracSweepLp {
  // Builds and solves the LP at one setpoint vector.
  std::function<Outcome(const std::vector<double>& crac_out,
                        const solver::LpOptions& lp)>
      solve_at;
  // Builds a resident evaluator at one setpoint vector.
  std::function<std::unique_ptr<Evaluator>(const std::vector<double>& crac_out,
                                           const solver::LpOptions& lp)>
      evaluator;
  // The value the sweep maximizes, read from a feasible outcome.
  std::function<double(const Outcome&)> value;
};

template <class Outcome>
struct CracSweepResult {
  util::Status status;             // ok iff `best` is the winner's re-solve
  std::vector<double> crac_out_c;  // the selected setpoints
  Outcome best;                    // Dense cold re-solve at crac_out_c
  std::size_t lp_solves = 0;       // sweep-point solves
};

namespace detail {

// The LP-family-independent half of one sweep run (core/crac_sweep.cpp).
struct CracSweepCore {
  CracSweepCore(const dc::DataCenter& dc, const CracSweepOptions& options);

  // Counts an infeasible or iteration-capped candidate.
  void count_failure(solver::LpStatus status);
  // Runs the search; `between_rounds` runs after every round, after the
  // round's metrics and the caller's hook. Records the sweep counters.
  solver::GridSearchResult search(
      const solver::GridChainObjective& objective,
      const std::function<void(const solver::GridSearchResult&)>&
          between_rounds);
  util::Status no_feasible_point() const;
  util::Status failed_resolve(solver::LpStatus status) const;

  const CracSweepOptions& options;
  std::vector<double> lo, hi;
  bool sessions;               // resident evaluators per warm chain
  solver::LpOptions lp;        // sweep solves: telemetry on, no warm start
  solver::LpOptions point_lp;  // per-point solves: lp plus the caller's seed
  solver::LpOptions dense_lp;  // the winner's re-solve: Dense, cold
  std::string lp_timer;        // "<prefix>.lp"
  std::atomic<std::size_t> lp_solves{0}, infeasible{0}, iter_limited{0};
};

}  // namespace detail

template <class Outcome, class Evaluator>
CracSweepResult<Outcome> crac_sweep(
    const dc::DataCenter& dc, const CracSweepOptions& options,
    const CracSweepLp<Outcome, Evaluator>& family) {
  detail::CracSweepCore core(dc, options);
  util::telemetry::Registry* const reg = options.telemetry;
  solver::LpBasis round_seed;
  if (options.seed != nullptr) round_seed = *options.seed;
  const auto seed = [&]() -> const solver::LpBasis* {
    return round_seed.empty() ? nullptr : &round_seed;
  };
  const auto value = [&](const Outcome& outcome) -> std::optional<double> {
    if (outcome.feasible) return family.value(outcome);
    core.count_failure(outcome.status);
    return std::nullopt;
  };

  // The sweep may evaluate chains from several threads at once; a chain
  // runs serially on one thread, and the counters and the thread-safe
  // registry are the only shared writes. round_seed is written only
  // between rounds.
  const solver::GridChainObjective objective =
      [&](const std::vector<double>& crac_out,
          std::shared_ptr<void>& chain) -> std::optional<double> {
    core.lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer timer(reg, core.lp_timer);
    if (!core.sessions) return value(family.solve_at(crac_out, core.point_lp));
    if (chain == nullptr) {
      std::shared_ptr<Evaluator> head = family.evaluator(crac_out, core.lp);
      chain = head;
      return value(head->solve(seed()));
    }
    auto* eval = static_cast<Evaluator*>(chain.get());
    eval->move_to(crac_out);
    return value(eval->solve(nullptr));
  };

  std::unique_ptr<Evaluator> incumbent;
  std::vector<double> incumbent_point;
  const auto reseed = [&](const solver::GridSearchResult& running) {
    if (!core.sessions || !running.found ||
        running.best_point == incumbent_point) {
      return;
    }
    const util::telemetry::ScopedTimer timer(reg, core.lp_timer);
    const solver::LpBasis* start = nullptr;
    if (incumbent == nullptr) {
      incumbent = family.evaluator(running.best_point, core.lp);
      start = seed();
    } else {
      incumbent->move_to(running.best_point);
    }
    const Outcome best = incumbent->solve(start);
    if (!best.basis.empty()) round_seed = best.basis;
    incumbent_point = running.best_point;
  };
  const solver::GridSearchResult search = core.search(objective, reseed);

  CracSweepResult<Outcome> result;
  result.lp_solves = core.lp_solves.load(std::memory_order_relaxed);
  if (!search.found) {
    result.status = core.no_feasible_point();
    return result;
  }
  result.best = family.solve_at(search.best_point, core.dense_lp);
  if (!result.best.feasible) {
    result.status = core.failed_resolve(result.best.status);
    return result;
  }
  result.crac_out_c = search.best_point;
  return result;
}

}  // namespace tapo::core
