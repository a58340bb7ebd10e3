#include "core/stage1.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "core/reward.h"
#include "core/stage1_lp.h"
#include "dc/crac.h"
#include "solver/lp.h"
#include "solver/piecewise.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

solver::GridSearchOptions stage1_grid_options(const Stage1Options& options) {
  solver::GridSearchOptions grid = options.grid;
  grid.threads = options.threads;
  return grid;
}

Stage1Solver::Stage1Solver(const dc::DataCenter& dc,
                           const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi) const {
  return solve_at(crac_out, psi, solver::LpOptions{});
}

Stage1Solver::LpOutcome Stage1Solver::solve_at(const std::vector<double>& crac_out,
                                               double psi,
                                               const solver::LpOptions& lp_options) const {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  TAPO_CHECK(crac_out.size() == nc);

  // Phase accounting for docs/SOLVER.md §6: everything up to solve_lp is
  // per-point fixed cost that the persistent evaluator amortizes away.
  std::optional<util::telemetry::ScopedTimer> build_timer;
  if (lp_options.telemetry) build_timer.emplace(lp_options.telemetry, "lp.phase.build");

  // Node-level concave reward functions, shared per node type.
  std::vector<solver::PiecewiseLinear> arr_by_type;
  arr_by_type.reserve(dc_.node_types.size());
  for (std::size_t t = 0; t < dc_.node_types.size(); ++t) {
    arr_by_type.push_back(concave_aggregate_reward_rate(dc_, t, psi)
                              .scale_copies(dc_.node_types[t].cores_per_node()));
  }

  const thermal::LinearResponse lr = model_.linearize(crac_out);

  solver::LpProblem lp;
  // Segment variables per node; consecutive segments of a concave function
  // have decreasing slopes, so a maximizing LP fills them in order and the
  // sum of segment variables is exactly the node core power p_j. Failed
  // nodes get no variables at all - their core power is pinned to zero and
  // their base draw is excluded from every row via node_base_power_kw.
  std::vector<std::vector<std::size_t>> seg_vars(nn);
  std::vector<std::vector<double>> seg_obj(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc_.node_failed(j)) continue;
    const auto& fn = arr_by_type[dc_.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      seg_vars[j].push_back(lp.add_variable(0.0, len, slopes[s]));
      seg_obj[j].push_back(slopes[s]);
    }
  }
  // One auxiliary variable per CRAC carrying its (clamped) power; it appears
  // with +1 in the budget row, so the LP presses it down onto
  // max(0, linear expression) - an exact encoding of Eq. 3's clamp.
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }

  const double base_power = dc_.total_base_power_kw();

  // Thermal redlines: node_in0 already contains the CRAC-outlet contribution;
  // the coefficient rows add the node-power influence, including base power.
  for (std::size_t r = 0; r < nn; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc_.redline_node_c - lr.node_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.node_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) {
      return {};  // base load alone violates a redline at these setpoints
    }
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }
  for (std::size_t r = 0; r < nc; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc_.redline_crac_c - lr.crac_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.crac_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) return {};
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // CRAC power definition rows: k_c * (crac_in_c - tout_c) - q_c <= 0 with
  // k_c = rho*Cp*F_c / CoP(tout_c).
  for (std::size_t c = 0; c < nc; ++c) {
    const dc::CracSpec& crac = dc_.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = -k * (lr.crac_in0[c] - crac_out[c]);
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = k * lr.crac_in_coeff(c, j);
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // Power budget: sum of node core powers + CRAC powers <= Pconst - base.
  {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, 1.0);
    }
    for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - base_power);
  }

  build_timer.reset();
  const solver::LpSolution sol = solve_lp(lp, lp_options);
  LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) {
    // A warm dual solve that proved infeasibility exports its (dual-
    // feasible) certificate basis; pass it along so the sweep can keep
    // warm-starting across an infeasible stretch of grid points.
    out.basis = sol.basis;
    return out;
  }

  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  out.node_core_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : seg_vars[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.compute_power_kw = base_power;
  for (double p : out.node_core_power_kw) out.compute_power_kw += p;
  out.crac_power_kw = 0.0;
  for (std::size_t v : crac_power_vars) out.crac_power_kw += sol.x[v];
  return out;
}

Stage1Result Stage1Solver::solve(const Stage1Options& options) const {
  util::telemetry::Registry* const reg = options.telemetry;
  const util::telemetry::ScopedTimer stage_timer(reg, "stage1.solve");

  // Per-CRAC lower bounds honor degraded units: a derated CRAC cannot hold
  // supply air colder than its raised minimum outlet, so the sweep simply
  // never proposes such setpoints (clamped to the top of the range on full
  // failure).
  const std::size_t nc = dc_.num_cracs();
  std::vector<double> lo(nc);
  const std::vector<double> hi(nc, options.tcrac_max_c);
  for (std::size_t c = 0; c < nc; ++c) {
    lo[c] = std::min(dc_.crac_min_outlet(c, options.tcrac_min_c),
                     options.tcrac_max_c);
  }

  // The sweep may evaluate chains from several threads at once; the counters
  // are the sole shared writes (the telemetry registry is itself
  // thread-safe). On the revised engine with warm chains, each chain holds
  // one persistent LP session: built at the chain head (seeded from the
  // cross-round incumbent) and patched in place for every later point of
  // the chain, so neighbors re-solve in a few pivots. Sessions are
  // per-chain — a chain runs serially on one thread and the partition is
  // thread-count-invariant — so results are bit-identical across thread
  // counts. The dense engine and chaining off build one LP per point.
  //
  // Cross-round seed: chain heads otherwise start cold, and a sweep has many
  // short rounds (coarse pass, refinement rounds, coordinate passes). After
  // every round the incumbent's basis is recomputed once in the serial
  // on_round hook and re-seeds the next round's chain heads. The seed is
  // written only between rounds and read only during them, so there is no
  // race, and it is a pure function of the (thread-count-invariant) running
  // best point — bit-identity across thread counts is preserved.
  const bool use_session = options.lp.engine == solver::LpEngine::Revised &&
                           options.grid.warm_chain > 1;
  auto round_seed = std::make_shared<solver::LpBasis>(
      options.warm_seed != nullptr ? *options.warm_seed : solver::LpBasis{});
  std::atomic<std::size_t> lp_solves{0};
  std::atomic<std::size_t> infeasible{0};
  std::atomic<std::size_t> iter_limited{0};
  struct SessionChainState {
    std::unique_ptr<Stage1LpEvaluator> eval;
  };
  const auto account = [&](const Stage1Solver::LpOutcome& outcome) {
    if (!outcome.feasible) {
      infeasible.fetch_add(1, std::memory_order_relaxed);
      if (outcome.status == solver::LpStatus::IterLimit) {
        iter_limited.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  const solver::GridChainObjective session_objective =
      [&, round_seed](const std::vector<double>& crac_out,
                      std::shared_ptr<void>& chain_state)
      -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer lp_timer(reg, "stage1.lp");
    solver::LpOptions lp_opt = options.lp;
    lp_opt.telemetry = reg;
    auto* state = static_cast<SessionChainState*>(chain_state.get());
    const solver::LpBasis* seed = nullptr;
    if (state == nullptr) {
      chain_state = std::make_shared<SessionChainState>();
      state = static_cast<SessionChainState*>(chain_state.get());
      state->eval = std::make_unique<Stage1LpEvaluator>(
          dc_, model_, Stage1LpEvaluator::Mode::MaximizeReward, options.psi,
          0.0, crac_out, lp_opt);
      seed = round_seed->empty() ? nullptr : round_seed.get();
    } else {
      state->eval->move_to(crac_out);
    }
    const LpOutcome outcome = state->eval->solve(seed);
    account(outcome);
    if (!outcome.feasible) return std::nullopt;
    return outcome.objective;
  };
  // One LP per point (dense engine, or chaining off), warm-started from the
  // caller's seed when there is one.
  const solver::GridChainObjective per_point_objective =
      [&, round_seed](const std::vector<double>& crac_out,
                      std::shared_ptr<void>&) -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer lp_timer(reg, "stage1.lp");
    solver::LpOptions lp_opt = options.lp;
    lp_opt.telemetry = reg;
    lp_opt.warm_start = round_seed->empty() ? nullptr : round_seed.get();
    const LpOutcome outcome = solve_at(crac_out, options.psi, lp_opt);
    account(outcome);
    if (!outcome.feasible) return std::nullopt;
    return outcome.objective;
  };
  const solver::GridChainObjective& objective =
      use_session ? session_objective : per_point_objective;

  solver::GridSearchOptions grid = stage1_grid_options(options);
  if (reg || use_session) {
    grid.on_round = [&, reg, round_seed](
                        std::size_t round,
                        const solver::GridSearchResult& running) {
      if (reg) {
        reg->count("stage1.sweep_rounds");
        if (running.found) {
          reg->sample("stage1.best_objective_by_round",
                      static_cast<double>(round), running.best_value);
        }
      }
      if (!use_session || !running.found) return;
      // Refresh the cross-round seed from the incumbent (one warm re-solve,
      // serial, between rounds). The next round's chain heads then start a
      // few pivots from the running best instead of from scratch.
      solver::LpOptions lp_opt = options.lp;
      lp_opt.telemetry = reg;
      lp_opt.warm_start = round_seed->empty() ? nullptr : round_seed.get();
      const LpOutcome best = solve_at(running.best_point, options.psi, lp_opt);
      if (!best.basis.empty()) *round_seed = best.basis;
    };
  }
  const solver::GridSearchResult search =
      options.full_grid
          ? solver::grid_search_maximize(lo, hi, objective, grid)
          : solver::uniform_then_coordinate_maximize(lo, hi, objective, grid);

  Stage1Result result;
  result.lp_solves = lp_solves.load(std::memory_order_relaxed);
  if (reg) {
    reg->count("stage1.solves");
    reg->count("stage1.lp_solves", result.lp_solves);
    reg->count("stage1.infeasible_candidates",
               infeasible.load(std::memory_order_relaxed));
    reg->count("stage1.grid_evaluations", search.evaluations);
  }
  if (!search.found) {
    // Distinguish "every point truly infeasible" from "the LP iteration cap
    // cut candidate solves short": the latter is a resource failure, not a
    // statement about the data center.
    result.status =
        iter_limited.load(std::memory_order_relaxed) > 0
            ? util::Status::ResourceExhausted(
                  "stage1: no feasible setpoint found and at least one "
                  "candidate LP hit the iteration cap")
            : util::Status::Infeasible(
                  "stage1: no CRAC setpoint vector admits a feasible power LP "
                  "(redlines or power budget unsatisfiable)");
    return result;
  }

  // Final re-solve at the winner always runs the Dense oracle cold, so the
  // published plan is bit-identical whichever engine powered the sweep.
  solver::LpOptions polish = options.lp;
  polish.engine = solver::LpEngine::Dense;
  polish.warm_start = nullptr;
  polish.telemetry = reg;
  const LpOutcome best = solve_at(search.best_point, options.psi, polish);
  if (!best.feasible) {
    result.status =
        best.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "stage1: LP iteration cap hit re-solving the selected "
                  "setpoints")
            : util::Status::Internal(
                  "stage1: best grid point infeasible on re-solve");
    return result;
  }
  result.feasible = true;
  result.crac_out_c = search.best_point;
  result.node_core_power_kw = best.node_core_power_kw;
  result.objective = best.objective;
  result.compute_power_kw = best.compute_power_kw;
  result.crac_power_kw = best.crac_power_kw;
  result.basis = best.basis;
  if (reg) {
    reg->gauge_set("stage1.best_objective", result.objective);
    reg->gauge_set("stage1.compute_power_kw", result.compute_power_kw);
    reg->gauge_set("stage1.crac_power_kw", result.crac_power_kw);
  }
  return result;
}

}  // namespace tapo::core
