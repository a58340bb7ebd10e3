#include "core/baseline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "core/baseline_lp.h"
#include "dc/crac.h"
#include "solver/lp.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

BaselineAssigner::BaselineAssigner(const dc::DataCenter& dc,
                                   const thermal::HeatFlowModel& model)
    : dc_(dc), model_(model) {}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out) const {
  return solve_at(crac_out, solver::LpOptions{});
}

BaselineAssigner::LpOutcome BaselineAssigner::solve_at(
    const std::vector<double>& crac_out,
    const solver::LpOptions& lp_options) const {
  const std::size_t nn = dc_.num_nodes();
  const std::size_t nc = dc_.num_cracs();
  const std::size_t t = dc_.num_task_types();
  TAPO_CHECK(crac_out.size() == nc);

  const thermal::LinearResponse lr = model_.linearize(crac_out);

  solver::LpProblem lp;
  // frac_var[i][j]; SIZE_MAX marks deadline-infeasible (FRAC pinned to 0).
  std::vector<std::vector<std::size_t>> frac_var(t, std::vector<std::size_t>(nn));
  constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      const std::size_t type = dc_.nodes[j].type;
      if (!baseline_frac_allowed(dc_, i, j)) {
        frac_var[i][j] = kNoVar;
        continue;
      }
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      const double reward_coeff =
          dc_.task_types[i].reward * dc_.ecs.ecs(i, type, 0) * cores;
      frac_var[i][j] = lp.add_variable(0.0, 1.0, reward_coeff);
    }
  }
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }

  // Node compute power per unit of sum_i FRAC(i, j).
  std::vector<double> power_per_frac(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    power_per_frac[j] =
        spec.core_power_kw(0) * static_cast<double>(spec.cores_per_node());
  }

  // Constraint 1 (arrival rates): sum_j |cores_j| ECS(i,j,0) FRAC(i,j) <= lambda_i.
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var[i][j] == kNoVar) continue;
      const double cores = static_cast<double>(dc_.node_type(j).cores_per_node());
      terms.emplace_back(frac_var[i][j],
                         cores * dc_.ecs.ecs(i, dc_.nodes[j].type, 0));
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                        dc_.task_types[i].arrival_rate);
    }
  }
  // Constraint 2 (node fraction budget): sum_i FRAC(i,j) <= 1.
  for (std::size_t j = 0; j < nn; ++j) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], 1.0);
    }
    if (!terms.empty()) {
      lp.add_constraint(std::move(terms), solver::Relation::LessEq, 1.0);
    }
  }

  // Thermal redlines (constraint 4): affine in node powers; node power is
  // affine in the fractions. Failed nodes draw no base power.
  const auto add_thermal_row = [&](const double* coeff_row, double base_rhs) {
    std::vector<std::pair<std::size_t, double>> terms;
    double rhs = base_rhs;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = coeff_row[j];
      if (w == 0.0) continue;
      rhs -= w * dc_.node_base_power_kw(j);
      const double per_frac = w * power_per_frac[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    if (terms.empty() && rhs < 0.0) return false;
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
    return true;
  };
  for (std::size_t r = 0; r < nn; ++r) {
    if (!add_thermal_row(lr.node_in_coeff.row(r),
                         dc_.redline_node_c - lr.node_in0[r])) {
      return {};
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    if (!add_thermal_row(lr.crac_in_coeff.row(r),
                         dc_.redline_crac_c - lr.crac_in0[r])) {
      return {};
    }
  }

  // CRAC power definitions: k_c (crac_in_c - tout_c) - q_c <= 0.
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
      const double per_frac = w * power_per_frac[j];
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) terms.emplace_back(frac_var[i][j], per_frac);
      }
    }
    terms.emplace_back(crac_power_vars[c], -1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq, rhs);
  }

  // Power budget (constraint 3).
  {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < nn; ++j) {
      for (std::size_t i = 0; i < t; ++i) {
        if (frac_var[i][j] != kNoVar) {
          terms.emplace_back(frac_var[i][j], power_per_frac[j]);
        }
      }
    }
    for (std::size_t v : crac_power_vars) terms.emplace_back(v, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc_.p_const_kw - dc_.total_base_power_kw());
  }

  const solver::LpSolution sol = solve_lp(lp, lp_options);
  LpOutcome out;
  out.status = sol.status;
  if (!sol.optimal()) return out;

  out.feasible = true;
  out.basis = sol.basis;
  out.objective = sol.objective;
  out.frac = solver::Matrix(t, nn);
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (frac_var[i][j] != kNoVar) out.frac(i, j) = sol.x[frac_var[i][j]];
    }
  }
  return out;
}

Assignment BaselineAssigner::assign(const BaselineOptions& options) const {
  const std::size_t nc = dc_.num_cracs();
  const std::size_t nn = dc_.num_nodes();
  const std::size_t t = dc_.num_task_types();
  util::telemetry::Registry* const reg = options.lp.telemetry;

  // Stage 1's sweep rule: on the revised engine with warm chains, each
  // chain holds one persistent BaselineLpEvaluator, built at the chain head
  // and patched in place for every later point of the chain. Chain heads
  // are seeded across rounds: after each round the serial on_round hook
  // re-solves the running incumbent on one more resident evaluator and
  // publishes its basis as the next round's head seed. Sessions are
  // per-chain, the chain partition is thread-count-invariant and the seed
  // is a function of the incumbent sequence alone, so the selected
  // setpoints are bit-identical across thread counts. The dense engine and
  // chaining off solve solve_at's LP cold at every point. The counters are
  // the sole shared writes (the registry is thread-safe).
  const bool use_session = options.lp.engine == solver::LpEngine::Revised &&
                           options.grid.warm_chain > 1;
  struct SessionChainState {
    std::unique_ptr<BaselineLpEvaluator> eval;
  };
  solver::LpBasis round_seed;
  std::vector<double> seed_point;
  std::unique_ptr<BaselineLpEvaluator> incumbent;
  std::atomic<std::size_t> lp_solves{0};
  std::atomic<std::size_t> iter_limited{0};
  const auto value = [&](const LpOutcome& outcome) -> std::optional<double> {
    if (outcome.feasible) return outcome.objective;
    if (outcome.status == solver::LpStatus::IterLimit) {
      iter_limited.fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  };
  const solver::GridChainObjective session_objective =
      [&](const std::vector<double>& crac_out,
          std::shared_ptr<void>& chain_state) -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer lp_timer(reg, "baseline.lp");
    auto* state = static_cast<SessionChainState*>(chain_state.get());
    const solver::LpBasis* seed = nullptr;
    if (state == nullptr) {
      chain_state = std::make_shared<SessionChainState>();
      state = static_cast<SessionChainState*>(chain_state.get());
      state->eval = std::make_unique<BaselineLpEvaluator>(dc_, model_, crac_out,
                                                          options.lp);
      seed = round_seed.empty() ? nullptr : &round_seed;
    } else {
      state->eval->move_to(crac_out);
    }
    return value(state->eval->solve(seed));
  };
  solver::LpOptions point_lp = options.lp;
  point_lp.warm_start = nullptr;
  const solver::GridChainObjective per_point_objective =
      [&](const std::vector<double>& crac_out,
          std::shared_ptr<void>&) -> std::optional<double> {
    lp_solves.fetch_add(1, std::memory_order_relaxed);
    const util::telemetry::ScopedTimer lp_timer(reg, "baseline.lp");
    return value(solve_at(crac_out, point_lp));
  };
  const solver::GridChainObjective& objective =
      use_session ? session_objective : per_point_objective;

  // Per-CRAC lower bounds honor derated units, as in Stage 1.
  std::vector<double> lo(nc);
  const std::vector<double> hi(nc, options.tcrac_max_c);
  for (std::size_t c = 0; c < nc; ++c) {
    lo[c] = std::min(dc_.crac_min_outlet(c, options.tcrac_min_c),
                     options.tcrac_max_c);
  }
  solver::GridSearchOptions grid = options.grid;
  grid.on_round = [&](std::size_t round,
                      const solver::GridSearchResult& running) {
    if (options.grid.on_round) options.grid.on_round(round, running);
    if (reg) reg->count("baseline.sweep_rounds");
    if (!use_session || !running.found || running.best_point == seed_point) {
      return;
    }
    const util::telemetry::ScopedTimer lp_timer(reg, "baseline.lp");
    if (incumbent == nullptr) {
      incumbent = std::make_unique<BaselineLpEvaluator>(
          dc_, model_, running.best_point, options.lp);
    } else {
      incumbent->move_to(running.best_point);
    }
    const LpOutcome best = incumbent->solve();
    if (!best.basis.empty()) round_seed = best.basis;
    seed_point = running.best_point;
  };
  const solver::GridSearchResult search =
      options.full_grid
          ? solver::grid_search_maximize(lo, hi, objective, grid)
          : solver::uniform_then_coordinate_maximize(lo, hi, objective, grid);

  Assignment assignment;
  assignment.technique = "baseline-P0-or-off";
  assignment.lp_solves = lp_solves.load(std::memory_order_relaxed);
  if (reg) reg->count("baseline.lp_solves", assignment.lp_solves);
  if (!search.found) {
    assignment.status =
        iter_limited.load(std::memory_order_relaxed) > 0
            ? util::Status::ResourceExhausted(
                  "baseline: no feasible setpoint found and at least one "
                  "candidate LP hit the iteration cap")
            : util::Status::Infeasible(
                  "baseline: every CRAC setpoint vector is infeasible");
    return assignment;
  }

  // Dense-oracle re-solve at the winner (engine-independent published plan).
  solver::LpOptions polish = options.lp;
  polish.engine = solver::LpEngine::Dense;
  polish.warm_start = nullptr;
  LpOutcome best = solve_at(search.best_point, polish);
  if (!best.feasible) {
    assignment.status =
        best.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "baseline: LP iteration cap hit re-solving the selected "
                  "setpoints")
            : util::Status::Internal(
                  "baseline: best grid point infeasible on re-solve");
    return assignment;
  }
  assignment.stage1_basis = best.basis;
  assignment.stage1_objective = best.objective;
  assignment.crac_out_c = search.best_point;

  // Rounding: shrink each node's fractions so |cores_j| * sum_i FRAC is an
  // integer core count (Eq. 22 discussion).
  assignment.core_pstate.assign(dc_.total_cores(), 0);
  assignment.tc = solver::Matrix(t, dc_.total_cores());
  double reward = 0.0;
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc_.node_type(j);
    const double cores = static_cast<double>(spec.cores_per_node());
    double frac_sum = 0.0;
    for (std::size_t i = 0; i < t; ++i) frac_sum += best.frac(i, j);
    const double used = cores * frac_sum;
    const auto target = static_cast<std::size_t>(std::floor(used + 1e-9));
    const double scale = (used > 1e-12 && target > 0)
                             ? static_cast<double>(target) / used
                             : 0.0;

    const std::size_t offset = dc_.core_offset(j);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      assignment.core_pstate[offset + c] =
          (c < target) ? 0 : spec.off_state();
    }
    if (target == 0) continue;
    for (std::size_t i = 0; i < t; ++i) {
      const double frac = best.frac(i, j) * scale;
      if (frac <= 0.0) continue;
      const double node_rate =
          dc_.ecs.ecs(i, dc_.nodes[j].type, 0) * cores * frac;
      reward += dc_.task_types[i].reward * node_rate;
      const double per_core = node_rate / static_cast<double>(target);
      for (std::size_t c = 0; c < target; ++c) {
        assignment.tc(i, offset + c) = per_core;
      }
    }
  }
  assignment.reward_rate = reward;
  assignment.feasible = true;
  return finalize_assignment(dc_, model_, std::move(assignment));
}

}  // namespace tapo::core
