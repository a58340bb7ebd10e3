// The CRAC-setpoint sweep: Section V.B.2's multi-step discretized search
// over the CRAC outlet temperatures, around an LP at fixed setpoints.
//
// Stage 1 (core/stage1.cpp), power minimization (core/powermin.cpp) and the
// Eq.-21 baseline (core/baseline.cpp) each solve such an LP family, and each
// supplies only that family (CracSweepLp): a per-point builder, the resident
// LP but for its thermal rows, and the reader of a solve. Their settings are
// one declaration, CracSweepOptions, which Stage1Options and BaselineOptions
// derive from. This driver owns every decision around the LP, so the three
// sweep alike:
//
//   * bounds: CRAC c sweeps [crac_min_outlet(c, tcrac_min_c), tcrac_max_c],
//     so a derated unit is never set below its raised minimum outlet;
//   * search: full Cartesian coarse-to-fine (full_grid) or the cheaper
//     uniform-value-then-coordinate-descent default (solver/gridsearch.h);
//   * engine: on the revised engine the sweep builds one SweepSession
//     (core/thermal_rows.h: the family's resident LP with the thermal block
//     appended, standardized once) and copies it at every warm-chain head;
//     the copy is moved to the head's point and then to every later point of
//     the chain. On the dense oracle every point builds and solves its own
//     LP cold;
//   * seeding and pruning: each feasible session solve keeps its optimal
//     basis and the dual bound source its duals fix (core/thermal_rows.h);
//     the search keeps the incumbent's as best_state. Chain heads start from
//     the round seed — the caller's seed in the first round, afterwards the
//     incumbent's kept basis. No session is kept for the incumbent and
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
#include "thermal/heatflow.h"
#include "util/status.h"
#include "util/telemetry.h"

namespace tapo::core {

// The settings every sweep shares, declared once: Stage1Options and
// BaselineOptions derive from this struct.
struct CracSweepOptions {
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
  // Full Cartesian coarse-to-fine search (the paper's generic multi-step
  // method) instead of the cheaper uniform-value + coordinate-descent
  // default.
  bool full_grid = false;
  // LP engine, iteration cap and FT update budget of every sweep solve. The
  // winner's re-solve always runs the Dense oracle cold, so the published
  // plan is engine-independent. Which telemetry sink the sweep records to
  // is the caller's rule (Stage1Options::telemetry; the baseline's is
  // lp.telemetry).
  solver::LpOptions lp;
  static constexpr std::size_t kMaxThreads = 256;

  // InvalidArgument, its message prefixed with `prefix`, unless
  // tcrac_min_c <= tcrac_max_c are finite, grid.coarse_samples and
  // grid.refine_samples are >= 1, grid.min_resolution > 0 and `threads`
  // (the sweep's worker count) is at most kMaxThreads.
  util::Status check(const char* prefix, std::size_t threads) const;
};

// A caller's LP family. Outcome carries `feasible`, `status`, `basis` and
// `duals`.
template <class Outcome>
struct CracSweepLp {
  // Metric prefix and status-message tag ("stage1", "powermin", ...).
  const char* prefix = "";
  // Builds and solves the per-point LP at one setpoint vector.
  std::function<Outcome(const std::vector<double>& crac_out,
                        const solver::LpOptions& lp)>
      solve_at;
  // The resident LP but for its thermal block: the revised engine opens one
  // SweepSession on it per sweep.
  SweepLp resident;
  // Reads the outcome of one SweepSession solve.
  std::function<Outcome(const solver::LpSolution& solution)> outcome;
  // The value the sweep maximizes, read from a feasible outcome.
  std::function<double(const Outcome&)> value;
  // value(outcome) minus the LP objective (up to rounding): turns the dual
  // bound on the objective into a bound on the value.
  double value_offset = 0.0;
  // Initial warm-start basis of the resident LP (non-owning, may be null or
  // empty).
  const solver::LpBasis* seed = nullptr;
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
  CracSweepCore(const dc::DataCenter& dc, const CracSweepOptions& options,
                const char* prefix, std::size_t threads,
                util::telemetry::Registry* telemetry);

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
  const std::string prefix;
  const std::size_t threads;  // overrides options.grid.threads
  util::telemetry::Registry* const telemetry;
  std::vector<double> lo, hi;
  bool sessions;               // revised engine: resident sessions
  solver::LpOptions lp;        // sweep solves: telemetry on, no warm start
  solver::LpOptions dense_lp;  // the winner's re-solve: Dense, cold
  std::string lp_timer;        // "<prefix>.lp"
  std::atomic<std::size_t> lp_solves{0}, infeasible{0}, iter_limited{0};
};

// What the sweep keeps of a feasible session solve.
struct KeptSolve {
  solver::LpBasis basis;            // a later round's seed
  SweepSession::BoundSource bound;  // bounds other setpoints
};

}  // namespace detail

// Runs the sweep with `options`' settings on `threads` workers (overriding
// options.grid.threads), recording to `telemetry` (may be null).
template <class Outcome>
CracSweepResult<Outcome> crac_sweep(const dc::DataCenter& dc,
                                    const thermal::HeatFlowModel& model,
                                    const CracSweepOptions& options,
                                    std::size_t threads,
                                    util::telemetry::Registry* telemetry,
                                    CracSweepLp<Outcome> family) {
  detail::CracSweepCore core(dc, options, family.prefix, threads, telemetry);
  // The chain heads' seed; written only between rounds. `winner` owns it
  // once the search has kept an incumbent's solve.
  std::shared_ptr<const void> winner;
  const solver::LpBasis* round_seed =
      family.seed != nullptr && !family.seed->empty() ? family.seed : nullptr;
  // The sweep may evaluate chains from several threads at once; a chain
  // runs serially on one thread, the prototype is only read (copied, and
  // its dual bound evaluated), and the counters and the thread-safe
  // registry are the only shared writes.
  std::optional<const SweepSession> prototype;
  if (core.sessions) {
    prototype.emplace(dc, model, std::move(family.resident), core.lo, core.lp);
  }
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
          prototype->bound_source(outcome.duals)});
    }
    return v;
  };

  const solver::GridChainObjective objective =
      [&](const std::vector<double>& crac_out, std::shared_ptr<void>& chain,
          std::shared_ptr<const void>& kept) -> std::optional<double> {
    core.lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer timer(telemetry, core.lp_timer);
    if (!core.sessions) {
      return value(family.solve_at(crac_out, core.lp), kept);
    }
    if (chain == nullptr) {
      auto head = std::make_shared<SweepSession>(*prototype);
      head->move_to(crac_out);
      chain = head;
      return value(family.outcome(head->solve(round_seed)), kept);
    }
    auto* session = static_cast<SweepSession*>(chain.get());
    session->move_to(crac_out);
    return value(family.outcome(session->solve(nullptr)), kept);
  };
  solver::GridBound bound;
  if (core.sessions) {
    bound = [&](const void* kept, const std::vector<double>& crac_out) {
      return prototype->bound(
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
