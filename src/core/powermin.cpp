#include "core/powermin.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "core/reward.h"
#include "core/stage1_lp.h"
#include "core/stage2.h"
#include "core/stage3.h"
#include "dc/crac.h"
#include "solver/lp.h"
#include "solver/piecewise.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

struct StageOutcome {
  bool feasible = false;
  solver::LpStatus status = solver::LpStatus::Infeasible;
  double power_kw = 0.0;  // compute (incl. base) + CRAC
  std::vector<double> node_core_power_kw;
  solver::LpBasis basis;  // optimal basis, empty when !feasible
};

// The Stage-1 LP with roles swapped: minimize total power subject to the
// concave aggregate reward rate meeting `floor` (plus redlines). Same
// variable layout as Stage1Solver::solve_at.
StageOutcome solve_power_at(const dc::DataCenter& dc,
                            const thermal::HeatFlowModel& model,
                            const std::vector<double>& crac_out, double psi,
                            double floor, const solver::LpOptions& lp_options) {
  const std::size_t nn = dc.num_nodes();
  const std::size_t nc = dc.num_cracs();

  // Per-point fixed cost (docs/SOLVER.md §6); the persistent evaluator
  // amortizes this across a warm chain.
  std::optional<util::telemetry::ScopedTimer> build_timer;
  if (lp_options.telemetry) build_timer.emplace(lp_options.telemetry, "lp.phase.build");

  std::vector<solver::PiecewiseLinear> arr_by_type;
  for (std::size_t t = 0; t < dc.node_types.size(); ++t) {
    arr_by_type.push_back(concave_aggregate_reward_rate(dc, t, psi)
                              .scale_copies(dc.node_types[t].cores_per_node()));
  }

  const thermal::LinearResponse lr = model.linearize(crac_out);

  solver::LpProblem lp;
  std::vector<std::vector<std::size_t>> seg_vars(nn);
  std::vector<std::pair<std::size_t, double>> reward_terms;
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc.node_failed(j)) continue;  // dead node: no power, no reward
    const auto& fn = arr_by_type[dc.nodes[j].type];
    const auto& pts = fn.points();
    const auto slopes = fn.slopes();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const double len = pts[s + 1].x - pts[s].x;
      // Objective: minimize power => coefficient -1 in a maximization.
      const std::size_t v = lp.add_variable(0.0, len, -1.0);
      seg_vars[j].push_back(v);
      reward_terms.emplace_back(v, slopes[s]);
    }
  }
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, -1.0);
  }

  lp.add_constraint(reward_terms, solver::Relation::GreaterEq, floor);

  for (std::size_t r = 0; r < nn; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc.redline_node_c - lr.node_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.node_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) return {};
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }
  for (std::size_t r = 0; r < nc; ++r) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = dc.redline_crac_c - lr.crac_in0[r];
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = lr.crac_in_coeff(r, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    if (rhs < 0.0 && terms.empty()) return {};
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }
  for (std::size_t c = 0; c < nc; ++c) {
    const dc::CracSpec& crac = dc.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = -k * (lr.crac_in0[c] - crac_out[c]);
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = k * lr.crac_in_coeff(c, j);
      if (w == 0.0) continue;
      rhs -= w * dc.node_base_power_kw(j);
      for (std::size_t v : seg_vars[j]) terms.emplace_back(v, w);
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  build_timer.reset();
  const solver::LpSolution sol = solve_lp(lp, lp_options);
  StageOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;

  out.feasible = true;
  out.basis = sol.basis;
  out.node_core_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : seg_vars[j]) out.node_core_power_kw[j] += sol.x[v];
  }
  out.power_kw = dc.total_base_power_kw();
  for (double p : out.node_core_power_kw) out.power_kw += p;
  for (std::size_t v : crac_power_vars) out.power_kw += sol.x[v];
  return out;
}

}  // namespace

PowerMinResult minimize_power_for_reward(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model,
                                         double target_reward_rate,
                                         const PowerMinOptions& options) {
  util::telemetry::Registry* const reg = options.stage1.telemetry;
  const util::telemetry::ScopedTimer total_timer(reg, "powermin.solve");

  PowerMinResult result;
  double floor = target_reward_rate;

  // Warm-start seed carried across retry attempts: an inflated reward floor
  // only moves one RHS, so the previous attempt's optimal basis is a few
  // dual pivots from the new optimum.
  solver::LpBasis attempt_seed;

  for (std::size_t attempt = 0; attempt <= options.max_retries; ++attempt) {
    ++result.attempts;
    if (reg) {
      reg->count("powermin.attempts");
      reg->sample("powermin.floor_by_attempt", static_cast<double>(attempt),
                  floor);
    }

    // Same degraded-CRAC lower bounds as Stage 1: a derated unit cannot go
    // below its raised minimum outlet temperature.
    const std::size_t nc = dc.num_cracs();
    std::vector<double> lo(nc);
    const std::vector<double> hi(nc, options.stage1.tcrac_max_c);
    for (std::size_t c = 0; c < nc; ++c) {
      lo[c] = std::min(dc.crac_min_outlet(c, options.stage1.tcrac_min_c),
                       options.stage1.tcrac_max_c);
    }
    // Chain heads seed from the previous attempt's winning basis (or the
    // caller's warm_seed on the first attempt); within a chain each LP
    // resumes from its predecessor.
    const solver::LpBasis* seed = nullptr;
    if (!attempt_seed.empty()) {
      seed = &attempt_seed;
    } else if (options.stage1.warm_seed != nullptr &&
               !options.stage1.warm_seed->empty()) {
      seed = options.stage1.warm_seed;
    }
    // Same persistent-session sweep as Stage 1: one resident MinimizePower
    // LP per warm chain, patched in place between grid points (the reward
    // floor is fixed within an attempt, so only the thermal RHS and the
    // CoP coefficients move). The dense engine and chaining off build one
    // LP per point.
    const bool use_session =
        options.stage1.lp.engine == solver::LpEngine::Revised &&
        options.stage1.grid.warm_chain > 1;
    struct SessionChainState {
      std::unique_ptr<Stage1LpEvaluator> eval;
    };
    std::atomic<std::size_t> lp_solves{0};
    std::atomic<std::size_t> infeasible{0};
    std::atomic<std::size_t> iter_limited{0};
    const solver::GridChainObjective session_objective =
        [&](const std::vector<double>& crac_out,
            std::shared_ptr<void>& chain_state) -> std::optional<double> {
      lp_solves.fetch_add(1, std::memory_order_relaxed);
      const util::telemetry::ScopedTimer lp_timer(reg, "powermin.lp");
      solver::LpOptions lp_opt = options.stage1.lp;
      lp_opt.telemetry = reg;
      auto* state = static_cast<SessionChainState*>(chain_state.get());
      const solver::LpBasis* head_seed = nullptr;
      if (state == nullptr) {
        chain_state = std::make_shared<SessionChainState>();
        state = static_cast<SessionChainState*>(chain_state.get());
        state->eval = std::make_unique<Stage1LpEvaluator>(
            dc, model, Stage1LpEvaluator::Mode::MinimizePower,
            options.stage1.psi, floor, crac_out, lp_opt);
        head_seed = seed;
      } else {
        state->eval->move_to(crac_out);
      }
      const Stage1Solver::LpOutcome outcome = state->eval->solve(head_seed);
      if (!outcome.feasible) {
        infeasible.fetch_add(1, std::memory_order_relaxed);
        if (outcome.status == solver::LpStatus::IterLimit) {
          iter_limited.fetch_add(1, std::memory_order_relaxed);
        }
        return std::nullopt;
      }
      return -(outcome.compute_power_kw + outcome.crac_power_kw);
    };
    const solver::GridChainObjective per_point_objective =
        [&](const std::vector<double>& crac_out,
            std::shared_ptr<void>&) -> std::optional<double> {
      lp_solves.fetch_add(1, std::memory_order_relaxed);
      const util::telemetry::ScopedTimer lp_timer(reg, "powermin.lp");
      solver::LpOptions lp_opt = options.stage1.lp;
      lp_opt.telemetry = reg;
      lp_opt.warm_start = seed;
      const StageOutcome outcome =
          solve_power_at(dc, model, crac_out, options.stage1.psi, floor, lp_opt);
      if (!outcome.feasible) {
        infeasible.fetch_add(1, std::memory_order_relaxed);
        if (outcome.status == solver::LpStatus::IterLimit) {
          iter_limited.fetch_add(1, std::memory_order_relaxed);
        }
        return std::nullopt;
      }
      return -outcome.power_kw;
    };
    const solver::GridChainObjective& objective =
        use_session ? session_objective : per_point_objective;
    // solve_power_at builds the LP from per-call state only, so the sweep
    // honours the Stage-1 threads knob (each round's chains run as one
    // parallel batch).
    const solver::GridSearchResult search = solver::uniform_then_coordinate_maximize(
        lo, hi, objective, stage1_grid_options(options.stage1));
    if (reg) {
      reg->count("powermin.lp_solves",
                 lp_solves.load(std::memory_order_relaxed));
      reg->count("powermin.infeasible_candidates",
                 infeasible.load(std::memory_order_relaxed));
    }
    if (!search.found) {
      result.status =
          iter_limited.load(std::memory_order_relaxed) > 0
              ? util::Status::ResourceExhausted(
                    "powermin: no feasible setpoint found and at least one "
                    "candidate LP hit the iteration cap")
              : util::Status::Infeasible(
                    "powermin: reward floor unreachable at every CRAC "
                    "setpoint");
      return result;  // target unreachable even relaxed
    }

    // Dense-oracle re-solve at the winner keeps the published plan
    // engine-independent (mirrors Stage 1's polish step).
    solver::LpOptions polish = options.stage1.lp;
    polish.engine = solver::LpEngine::Dense;
    polish.warm_start = nullptr;
    polish.telemetry = reg;
    const StageOutcome best = solve_power_at(dc, model, search.best_point,
                                             options.stage1.psi, floor, polish);
    if (!best.feasible) {
      result.status =
          best.status == solver::LpStatus::IterLimit
              ? util::Status::ResourceExhausted(
                    "powermin: LP iteration cap hit re-solving the selected "
                    "setpoints")
              : util::Status::Internal(
                    "powermin: best grid point infeasible on re-solve");
      return result;
    }
    attempt_seed = best.basis;

    const Stage2Result s2 =
        convert_power_to_pstates(dc, best.node_core_power_kw, reg);
    if (!s2.status.ok()) {
      result.status = s2.status;
      return result;
    }
    const Stage3Result s3 = solve_stage3(dc, s2.core_pstate, reg);
    if (!s3.optimal) {
      result.status = s3.status.ok()
                          ? util::Status::Internal("powermin: stage3 failure")
                          : s3.status;
      return result;
    }

    Assignment assignment;
    assignment.feasible = true;
    assignment.technique = "power-min";
    assignment.crac_out_c = search.best_point;
    assignment.core_pstate = s2.core_pstate;
    assignment.tc = s3.tc;
    assignment.reward_rate = s3.reward_rate;
    assignment.stage1_objective = floor;
    assignment = finalize_assignment(dc, model, std::move(assignment));

    result.feasible = true;
    result.total_power_kw = assignment.total_power_kw();
    result.reward_rate = s3.reward_rate;
    result.assignment = std::move(assignment);
    result.met_target = s3.reward_rate >=
                        target_reward_rate * (1.0 - options.relative_tolerance);
    if (reg) {
      reg->sample("powermin.reward_by_attempt", static_cast<double>(attempt),
                  s3.reward_rate);
      reg->gauge_set("powermin.total_power_kw", result.total_power_kw);
      reg->gauge_set("powermin.reward_rate", result.reward_rate);
      reg->gauge_set("powermin.met_target", result.met_target ? 1.0 : 0.0);
    }
    if (result.met_target) return result;
    floor *= options.retry_inflation;  // rounding shortfall: ask Stage 1 for more
  }
  return result;
}

}  // namespace tapo::core
