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
//   * engine: on the revised engine the sweep builds one resident
//     evaluator (its LP assembled and standardized once) and copies it at
//     every warm-chain head; the copy is moved to the head's point and then
//     to every later point of the chain. On the dense oracle every point
//     builds and solves its own LP cold;
//   * seeding and pruning: each feasible session solve keeps its optimal
//     basis and the dual bound source its duals fix (core/thermal_rows.h);
//     the search keeps the incumbent's as best_state. Chain heads start from
//     the round seed — the caller's seed in the first round, afterwards the
//     incumbent's kept basis. No evaluator is kept for the incumbent and
//     nothing is re-solved between rounds. A chain skips its remaining
//     points once the incumbent's and its own earlier sources bound them
//     all below the value to beat (solver::GridBound). The seed changes
//     only between rounds, and every accepted solve is a function of
//     (point, chain position, round seed), so results and prunes are
//     bit-identical across thread counts. The dense oracle keeps no bound
//     state and prunes nothing;
//   * accounting: one `<prefix>.lp` interval per solve, and the
//     `<prefix>.lp_solves`, `.bound_prunes`, `.speculative_discards`,
//     `.infeasible_candidates`, `.grid_evaluations`, `.sweep_rounds`
//     counters and `.best_objective_by_round` series
//     (docs/OBSERVABILITY.md). `lp_solves` counts the accepted solves and
//     `bound_prunes` the accepted points skipped by the bound, so
//     lp_solves + bound_prunes == grid_evaluations for every thread count;
//     the coordinate passes' discarded speculative solves count apart. A
//     caller's grid.on_round hook is always forwarded;
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

#include "core/thermal_rows.h"
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
  // Engine and iteration cap of every solve; its telemetry pointer is
  // ignored (see telemetry below). Warm starts come from seed.
  solver::LpOptions lp;
  util::telemetry::Registry* telemetry = nullptr;
  // Initial warm-start basis (non-owning, may be null or empty).
  const solver::LpBasis* seed = nullptr;
};

// A caller's LP family. Outcome carries `feasible`, `status`, `basis` and
// `duals`; Evaluator is copyable and offers move_to(crac_out),
// solve(const LpBasis* seed) and thermal_rows() (the dual bound over its
// LP). A never-solved evaluator copied and moved to P must solve exactly as
// one built at P.
template <class Outcome, class Evaluator>
struct CracSweepLp {
  // Builds and solves the LP at one setpoint vector.
  std::function<Outcome(const std::vector<double>& crac_out,
                        const solver::LpOptions& lp)>
      solve_at;
  // Builds a resident evaluator at one setpoint vector (once per sweep).
  std::function<std::unique_ptr<Evaluator>(const std::vector<double>& crac_out,
                                           const solver::LpOptions& lp)>
      evaluator;
  // The value the sweep maximizes, read from a feasible outcome.
  std::function<double(const Outcome&)> value;
  // value(outcome) minus the LP objective (up to rounding): turns the dual
  // bound on the objective into a bound on the value.
  double value_offset = 0.0;
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
  // Runs the search, pruning with `bound` when it is set; `between_rounds`
  // runs after every round, after the round's metrics and the caller's
  // hook. Records the sweep counters and takes the discarded speculative
  // solves out of lp_solves.
  solver::GridSearchResult search(
      const solver::GridChainObjective& objective,
      const solver::GridBound& bound,
      const std::function<void(const solver::GridSearchResult&)>&
          between_rounds);
  util::Status no_feasible_point() const;
  util::Status failed_resolve(solver::LpStatus status) const;

  const CracSweepOptions& options;
  std::vector<double> lo, hi;
  bool sessions;               // revised engine: resident evaluators
  solver::LpOptions lp;        // sweep solves: telemetry on, no warm start
  solver::LpOptions dense_lp;  // the winner's re-solve: Dense, cold
  std::string lp_timer;        // "<prefix>.lp"
  std::atomic<std::size_t> lp_solves{0}, infeasible{0}, iter_limited{0};
};

// What the sweep keeps of a feasible session solve.
struct KeptSolve {
  solver::LpBasis basis;                   // a later round's seed
  ResidentThermalRows::BoundSource bound;  // bounds other setpoints
};

}  // namespace detail

template <class Outcome, class Evaluator>
CracSweepResult<Outcome> crac_sweep(
    const dc::DataCenter& dc, const CracSweepOptions& options,
    const CracSweepLp<Outcome, Evaluator>& family) {
  detail::CracSweepCore core(dc, options);
  util::telemetry::Registry* const reg = options.telemetry;
  // The chain heads' seed; written only between rounds. `winner` owns it
  // once the search has kept an incumbent's solve.
  std::shared_ptr<const void> winner;
  const solver::LpBasis* round_seed =
      options.seed != nullptr && !options.seed->empty() ? options.seed
                                                        : nullptr;
  // The sweep may evaluate chains from several threads at once; a chain
  // runs serially on one thread, the prototype is only read (copied, and
  // its dual bound evaluated), and the counters and the thread-safe
  // registry are the only shared writes.
  std::unique_ptr<const Evaluator> prototype;
  if (core.sessions) prototype = family.evaluator(core.lo, core.lp);
  const auto value = [&](Outcome outcome, std::shared_ptr<const void>& kept)
      -> std::optional<double> {
    if (!outcome.feasible) {
      core.count_failure(outcome.status);
      return std::nullopt;
    }
    const double v = family.value(outcome);
    if (core.sessions && !outcome.basis.empty()) {
      kept = std::make_shared<const detail::KeptSolve>(detail::KeptSolve{
          std::move(outcome.basis),
          prototype->thermal_rows().bound_source(outcome.duals)});
    }
    return v;
  };

  const solver::GridChainObjective objective =
      [&](const std::vector<double>& crac_out, std::shared_ptr<void>& chain,
          std::shared_ptr<const void>& kept) -> std::optional<double> {
    core.lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer timer(reg, core.lp_timer);
    if (!core.sessions) {
      return value(family.solve_at(crac_out, core.lp), kept);
    }
    if (chain == nullptr) {
      auto head = std::make_shared<Evaluator>(*prototype);
      head->move_to(crac_out);
      chain = head;
      return value(head->solve(round_seed), kept);
    }
    auto* eval = static_cast<Evaluator*>(chain.get());
    eval->move_to(crac_out);
    return value(eval->solve(nullptr), kept);
  };
  solver::GridBound bound;
  if (core.sessions) {
    bound = [&](const void* kept, const std::vector<double>& crac_out) {
      return prototype->thermal_rows().bound(
                 static_cast<const detail::KeptSolve*>(kept)->bound,
                 crac_out) +
             family.value_offset;
    };
  }
  const auto reseed = [&](const solver::GridSearchResult& running) {
    if (running.best_state == nullptr || running.best_state == winner) return;
    winner = running.best_state;
    round_seed = &static_cast<const detail::KeptSolve*>(winner.get())->basis;
  };
  const solver::GridSearchResult search = core.search(objective, bound, reseed);

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
