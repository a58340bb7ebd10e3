#include "core/stage3.h"

#include <map>
#include <utility>

#include "solver/lp.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

Stage3Result finalize(Stage3Result result) {
  result.per_type_rate.assign(result.tc.rows(), 0.0);
  for (std::size_t i = 0; i < result.tc.rows(); ++i) {
    for (std::size_t k = 0; k < result.tc.cols(); ++k) {
      result.per_type_rate[i] += result.tc(i, k);
    }
  }
  return result;
}

// (node type, P-state) classes in ascending order; off cores and failed
// nodes are skipped.
std::vector<CoreClass> type_state_classes(
    const dc::DataCenter& dc, const std::vector<std::size_t>& core_pstate) {
  TAPO_CHECK(core_pstate.size() == dc.total_cores());
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> members;
  for (std::size_t k = 0; k < dc.total_cores(); ++k) {
    if (!dc.core_available(k)) continue;  // failed node: no rates, ever
    const std::size_t type = dc.core_type(k);
    const std::size_t ps = core_pstate[k];
    if (ps == dc.node_types[type].off_state()) continue;
    members[{type, ps}].push_back(k);
  }
  std::vector<CoreClass> classes;
  for (auto& [key, cores] : members) {
    classes.push_back({key.first, key.second, std::move(cores)});
  }
  return classes;
}

}  // namespace

Stage3RateLp::Stage3RateLp(const dc::DataCenter& dc,
                           const std::vector<std::size_t>& core_pstate)
    : Stage3RateLp(dc, type_state_classes(dc, core_pstate)) {}

Stage3RateLp::Stage3RateLp(const dc::DataCenter& dc,
                           std::vector<CoreClass> classes)
    : num_cores_(dc.total_cores()),
      classes_(std::move(classes)),
      arrival_row_(dc.num_task_types(), -1) {
  const std::size_t t = dc.num_task_types();
  std::vector<std::vector<std::size_t>> by_type(t);  // columns per task type
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    const CoreClass& c = classes_[cls];
    std::vector<std::pair<std::size_t, double>> capacity_terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (!dc.ecs.can_meet_deadline(i, c.node_type, c.pstate,
                                    dc.task_types[i].relative_deadline)) {
        continue;  // deadline constraint (Eq. 7 constraint 2) pins TC to 0
      }
      const double ecs = dc.ecs.ecs(i, c.node_type, c.pstate);
      const std::size_t v =
          lp_.add_variable(0.0, solver::kLpInfinity, dc.task_types[i].reward);
      columns_.push_back({v, i, cls});
      by_type[i].push_back(v);
      capacity_terms.emplace_back(v, 1.0 / ecs);
    }
    if (!capacity_terms.empty()) {
      lp_.add_constraint(std::move(capacity_terms), solver::Relation::LessEq,
                         static_cast<double>(c.cores.size()));
    }
  }
  for (std::size_t i = 0; i < t; ++i) {
    if (by_type[i].empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t v : by_type[i]) terms.emplace_back(v, 1.0);
    arrival_row_[i] = static_cast<std::ptrdiff_t>(lp_.num_constraints());
    lp_.add_constraint(std::move(terms), solver::Relation::LessEq,
                       dc.task_types[i].arrival_rate);
  }
}

void Stage3RateLp::set_arrival_rates(const std::vector<double>& lambda) {
  TAPO_CHECK(lambda.size() == arrival_row_.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    if (arrival_row_[i] < 0) continue;
    lp_.patch_rhs(static_cast<std::size_t>(arrival_row_[i]), lambda[i]);
  }
}

solver::Matrix Stage3RateLp::split(const std::vector<double>& x) const {
  solver::Matrix tc(arrival_row_.size(), num_cores_);
  for (const Column& c : columns_) {
    const std::vector<std::size_t>& cores = classes_[c.cls].cores;
    const double per_core = x[c.var] / static_cast<double>(cores.size());
    if (per_core <= 0.0) continue;
    for (std::size_t core : cores) tc(c.task_type, core) = per_core;
  }
  return tc;
}

Stage3Result solve_stage3(const dc::DataCenter& dc,
                          const std::vector<std::size_t>& core_pstate,
                          util::telemetry::Registry* telemetry) {
  const util::telemetry::ScopedTimer stage_timer(telemetry, "stage3.solve");
  return solve_stage3(Stage3RateLp(dc, core_pstate), telemetry);
}

Stage3Result solve_stage3(const Stage3RateLp& rate_lp,
                          util::telemetry::Registry* telemetry) {
  if (telemetry) {
    telemetry->count("stage3.solves");
    telemetry->count("stage3.core_classes", rate_lp.num_classes());
    telemetry->count("stage3.lp_variables", rate_lp.num_variables());
  }
  Stage3Result result;
  std::vector<double> x(rate_lp.num_variables(), 0.0);  // zero unless solved
  if (rate_lp.empty()) {
    result.optimal = true;  // nothing can run: zero rates are optimal
  } else {
    solver::LpOptions lp_opt;
    lp_opt.telemetry = telemetry;
    solver::LpSolution sol = solve_lp(rate_lp.problem(), lp_opt);
    if (telemetry) telemetry->count("stage3.lp_iterations", sol.iterations);
    if (sol.optimal()) {
      result.optimal = true;
      result.reward_rate = sol.objective;
      x = std::move(sol.x);
    } else {
      result.status =
          sol.status == solver::LpStatus::IterLimit
              ? util::Status::ResourceExhausted(
                    "stage3: rate LP hit the iteration cap")
              : util::Status::Internal("stage3: rate LP did not converge");
    }
  }
  if (telemetry && result.optimal) {
    telemetry->gauge_set("stage3.reward_rate", result.reward_rate);
  }
  result.tc = rate_lp.split(x);
  return finalize(std::move(result));
}

Stage3Result solve_stage3_percore(const dc::DataCenter& dc,
                                  const std::vector<std::size_t>& core_pstate) {
  TAPO_CHECK(core_pstate.size() == dc.total_cores());
  const std::size_t t = dc.num_task_types();

  solver::LpProblem lp;
  struct Var {
    std::size_t var;
    std::size_t task_type;
    std::size_t core;
  };
  std::vector<Var> vars;
  std::vector<std::vector<std::size_t>> by_type(t);

  for (std::size_t k = 0; k < dc.total_cores(); ++k) {
    if (!dc.core_available(k)) continue;
    const std::size_t type = dc.core_type(k);
    const std::size_t ps = core_pstate[k];
    if (ps == dc.node_types[type].off_state()) continue;
    std::vector<std::pair<std::size_t, double>> capacity_terms;
    for (std::size_t i = 0; i < t; ++i) {
      if (!dc.ecs.can_meet_deadline(i, type, ps,
                                    dc.task_types[i].relative_deadline)) {
        continue;
      }
      const std::size_t v =
          lp.add_variable(0.0, solver::kLpInfinity, dc.task_types[i].reward);
      vars.push_back({v, i, k});
      by_type[i].push_back(vars.size() - 1);
      capacity_terms.emplace_back(v, 1.0 / dc.ecs.ecs(i, type, ps));
    }
    if (!capacity_terms.empty()) {
      lp.add_constraint(std::move(capacity_terms), solver::Relation::LessEq, 1.0);
    }
  }
  for (std::size_t i = 0; i < t; ++i) {
    if (by_type[i].empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t idx : by_type[i]) terms.emplace_back(vars[idx].var, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc.task_types[i].arrival_rate);
  }

  Stage3Result result;
  result.tc = solver::Matrix(t, dc.total_cores());
  if (vars.empty()) {
    result.optimal = true;
    return finalize(std::move(result));
  }

  const solver::LpSolution sol = solve_lp(lp);
  if (!sol.optimal()) {
    result.status =
        sol.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "stage3: rate LP hit the iteration cap")
            : util::Status::Internal("stage3: rate LP did not converge");
    return finalize(std::move(result));
  }

  result.optimal = true;
  result.reward_rate = sol.objective;
  for (const Var& v : vars) result.tc(v.task_type, v.core) = sol.x[v.var];
  return finalize(std::move(result));
}

}  // namespace tapo::core
