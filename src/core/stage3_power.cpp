#include "core/stage3_power.h"

#include <algorithm>
#include <map>

#include "core/stage2.h"
#include "dc/crac.h"
#include "solver/lp.h"
#include "util/check.h"

namespace tapo::core {

PowerAwareStage3Result solve_stage3_power_aware(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out,
    const std::vector<std::size_t>& core_pstate,
    const dc::TaskPowerFactors& factors) {
  const std::size_t nn = dc.num_nodes();
  const std::size_t nc = dc.num_cracs();
  const std::size_t t = dc.num_task_types();
  TAPO_CHECK(core_pstate.size() == dc.total_cores());
  TAPO_CHECK(crac_out.size() == nc);
  // Executing cannot draw less than idling at the same P-state (an I/O-bound
  // task approaches the idle draw from above); a violation would let the LP
  // "cool the room" by scheduling work.
  for (std::size_t i = 0; i < t; ++i) {
    TAPO_CHECK_MSG(factors.factor(i) >= factors.idle_factor - 1e-12,
                   "task power factor below the idle factor");
  }

  const thermal::HeatFlowModel::AffineOffsets off = model.offsets(crac_out);
  const solver::Matrix& crac_coeff = model.crac_in_coeff();

  // Per node: active-state core counts and the idle floor of its power.
  struct NodeStates {
    std::map<std::size_t, std::size_t> count;  // state -> cores
    double idle_power = 0.0;                   // base + idle draw of on cores
  };
  std::vector<NodeStates> nodes(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    const dc::NodeTypeSpec& spec = dc.node_type(j);
    nodes[j].idle_power = spec.base_power_kw();
    const std::size_t offset = dc.core_offset(j);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      const std::size_t state = core_pstate[offset + c];
      if (state == spec.off_state()) continue;
      ++nodes[j].count[state];
      nodes[j].idle_power += spec.core_power_kw(state) * factors.idle_factor;
    }
  }

  solver::LpProblem lp;
  struct Var {
    std::size_t var;
    std::size_t task_type, node, state;
    double etc;          // 1/ECS
    double power_coeff;  // extra kW per unit rate
  };
  std::vector<Var> vars;
  std::vector<std::vector<std::size_t>> by_type(t), by_node(nn);

  for (std::size_t j = 0; j < nn; ++j) {
    const std::size_t type = dc.nodes[j].type;
    const dc::NodeTypeSpec& spec = dc.node_type(j);
    for (const auto& [state, count] : nodes[j].count) {
      std::vector<std::pair<std::size_t, double>> capacity_terms;
      for (std::size_t i = 0; i < t; ++i) {
        if (!dc.ecs.can_meet_deadline(i, type, state,
                                      dc.task_types[i].relative_deadline)) {
          continue;
        }
        const double etc = dc.ecs.etc_seconds(i, type, state);
        const std::size_t v =
            lp.add_variable(0.0, solver::kLpInfinity, dc.task_types[i].reward);
        // Running the task replaces idle draw: extra power per unit rate is
        // utilization (etc) times pi * (mu_i - mu_idle).
        const double power_coeff =
            etc * spec.core_power_kw(state) *
            (factors.factor(i) - factors.idle_factor);
        vars.push_back({v, i, j, state, etc, power_coeff});
        by_type[i].push_back(vars.size() - 1);
        by_node[j].push_back(vars.size() - 1);
        capacity_terms.emplace_back(v, etc);
      }
      if (!capacity_terms.empty()) {
        lp.add_constraint(std::move(capacity_terms), solver::Relation::LessEq,
                          static_cast<double>(count));
      }
    }
  }
  for (std::size_t i = 0; i < t; ++i) {
    if (by_type[i].empty()) continue;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t idx : by_type[i]) terms.emplace_back(vars[idx].var, 1.0);
    lp.add_constraint(std::move(terms), solver::Relation::LessEq,
                      dc.task_types[i].arrival_rate);
  }

  // A constraint row with no rate terms and a negative slack is violated by
  // the idle floor alone: the operating point is infeasible outright.
  const auto infeasible_result = [] {
    PowerAwareStage3Result failed;
    failed.status = util::Status::Infeasible(
        "stage3-power: idle floor violates a thermal/power row");
    return failed;
  };

  // Thermal and power rows over the affine node powers
  // p_j = idle_power_j + sum_{vars on j} power_coeff * x.
  const auto add_affine_row = [&](const double* weights, double rhs,
                                  std::vector<std::pair<std::size_t, double>> extra,
                                  solver::Relation rel) {
    std::vector<std::pair<std::size_t, double>> terms = std::move(extra);
    double adjusted = rhs;
    for (std::size_t j = 0; j < nn; ++j) {
      const double w = weights[j];
      if (w == 0.0) continue;
      adjusted -= w * nodes[j].idle_power;
      for (std::size_t idx : by_node[j]) {
        if (vars[idx].power_coeff != 0.0) {
          terms.emplace_back(vars[idx].var, w * vars[idx].power_coeff);
        }
      }
    }
    if (terms.empty()) return adjusted >= 0.0;
    lp.add_constraint(std::move(terms), rel, adjusted);
    return true;
  };

  for (std::size_t r = 0; r < nn; ++r) {
    if (!add_affine_row(model.node_in_coeff().row(r),
                        dc.redline_node_c - off.node_in0[r], {},
                        solver::Relation::LessEq)) {
      return infeasible_result();
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    if (!add_affine_row(crac_coeff.row(r),
                        dc.redline_crac_c - off.crac_in0[r], {},
                        solver::Relation::LessEq)) {
      return infeasible_result();
    }
  }
  std::vector<std::size_t> crac_power_vars(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    crac_power_vars[c] = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
    const dc::CracSpec& crac = dc.cracs[c];
    const double k = dc::kAirDensity * dc::kAirSpecificHeat * crac.flow_m3s /
                     crac.cop(crac_out[c]);
    std::vector<double> scaled(nn);
    for (std::size_t j = 0; j < nn; ++j) scaled[j] = k * crac_coeff(c, j);
    if (!add_affine_row(scaled.data(), k * (crac_out[c] - off.crac_in0[c]),
                        {{crac_power_vars[c], -1.0}}, solver::Relation::LessEq)) {
      return infeasible_result();
    }
  }
  {
    // Budget: sum_j p_j + sum_c q_c <= Pconst.
    std::vector<double> ones(nn, 1.0);
    std::vector<std::pair<std::size_t, double>> extra;
    for (std::size_t v : crac_power_vars) extra.emplace_back(v, 1.0);
    if (!add_affine_row(ones.data(), dc.p_const_kw, std::move(extra),
                        solver::Relation::LessEq)) {
      return infeasible_result();
    }
  }

  PowerAwareStage3Result result;
  result.tc = solver::Matrix(t, dc.total_cores());
  result.node_power_kw.assign(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) result.node_power_kw[j] = nodes[j].idle_power;

  if (vars.empty()) {
    // Nothing can run; feasible iff the idle floor fits the budget.
    double idle_total = 0.0;
    for (double p : result.node_power_kw) idle_total += p;
    const auto temps = model.solve(crac_out, result.node_power_kw);
    result.compute_power_kw = idle_total;
    result.crac_power_kw = model.total_crac_power_kw(temps);
    result.optimal = model.within_redlines(temps) &&
                     idle_total + result.crac_power_kw <= dc.p_const_kw + 1e-9;
    if (!result.optimal) {
      result.status = util::Status::Infeasible(
          "stage3-power: idle floor exceeds the budget or redlines");
    }
    return result;
  }

  const solver::LpSolution sol = solve_lp(lp);
  if (!sol.optimal()) {
    PowerAwareStage3Result failed;
    failed.status =
        sol.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "stage3-power: rate LP hit the iteration cap")
            : util::Status::Infeasible(
                  "stage3-power: rate LP infeasible at this operating point");
    return failed;
  }

  result.optimal = true;
  result.reward_rate = sol.objective;
  for (const Var& v : vars) {
    const double rate = sol.x[v.var];
    if (rate <= 0.0) continue;
    // Distribute the (node, state) rate evenly over that node's cores in
    // the state; they are interchangeable.
    const dc::NodeTypeSpec& spec = dc.node_type(v.node);
    const std::size_t count = nodes[v.node].count.at(v.state);
    const double per_core = rate / static_cast<double>(count);
    const std::size_t offset = dc.core_offset(v.node);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      if (core_pstate[offset + c] == v.state) {
        result.tc(v.task_type, offset + c) += per_core;
      }
    }
    result.node_power_kw[v.node] += v.power_coeff * rate;
  }
  for (double p : result.node_power_kw) result.compute_power_kw += p;
  for (std::size_t v : crac_power_vars) result.crac_power_kw += sol.x[v];
  return result;
}

TaskPowerAssigner::TaskPowerAssigner(dc::DataCenter& dc,
                                     const thermal::HeatFlowModel& model,
                                     dc::TaskPowerFactors factors)
    : dc_(dc), model_(model), factors_(std::move(factors)) {
  TAPO_CHECK_MSG(factors_.idle_factor >= 0.0, "idle factor must be >= 0");
  for (double f : factors_.task_factor) TAPO_CHECK(f >= 0.0);
  TAPO_CHECK_MSG(factors_.max_factor() <= 1.0 + 1e-12,
                 "factors above 1 would break the stages-1-2 power bound");
}

TaskPowerResult TaskPowerAssigner::assign(const TaskPowerOptions& options) const {
  TaskPowerResult result;

  // Stages 1-2 run against a *virtual* budget on a shadow copy of Pconst.
  // The power-aware Stage 3 always enforces the true budget/redlines, so a
  // too-aggressive inflation can only make Stage 3 infeasible (handled by
  // keeping the best feasible iterate), never violate constraints.
  dc::DataCenter& mutable_dc = dc_;
  const double true_budget = dc_.p_const_kw;
  double virtual_budget = true_budget;

  const Stage1Solver stage1(dc_, model_);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    mutable_dc.p_const_kw = virtual_budget;
    const Stage1Result s1 = stage1.solve(options.stage1);
    if (!s1.feasible) break;
    const Stage2Result s2 = convert_power_to_pstates(dc_, s1.node_core_power_kw);
    mutable_dc.p_const_kw = true_budget;
    if (!s2.status.ok()) break;  // bad handoff; keep the incumbent

    const PowerAwareStage3Result s3 = solve_stage3_power_aware(
        dc_, model_, s1.crac_out_c, s2.core_pstate, factors_);
    if (!s3.optimal) break;  // virtual budget overshot; keep the incumbent

    if (iter == 0) {
      result.first_iteration_reward = s3.reward_rate;
      result.first_iteration_power_kw = s3.compute_power_kw + s3.crac_power_kw;
    }
    if (!result.feasible || s3.reward_rate > result.assignment.reward_rate) {
      result.feasible = true;
      Assignment assignment;
      assignment.feasible = true;
      assignment.technique = "task-power three-stage";
      assignment.crac_out_c = s1.crac_out_c;
      assignment.core_pstate = s2.core_pstate;
      assignment.tc = s3.tc;
      assignment.reward_rate = s3.reward_rate;
      assignment.stage1_objective = s1.objective;
      result.assignment = std::move(assignment);
      result.expected_power_kw = s3.compute_power_kw + s3.crac_power_kw;
    }

    const double slack = true_budget - result.expected_power_kw;
    if (slack <= options.slack_tolerance * true_budget) break;
    virtual_budget += options.reclaim_fraction * slack;
  }
  mutable_dc.p_const_kw = true_budget;

  if (result.feasible) {
    // Temperatures/powers for reporting use the expected node powers of the
    // final TC (not the stage-2 worst case).
    const PowerAwareStage3Result final_s3 = solve_stage3_power_aware(
        dc_, model_, result.assignment.crac_out_c, result.assignment.core_pstate,
        factors_);
    result.assignment.compute_power_kw = final_s3.compute_power_kw;
    result.assignment.crac_power_kw = final_s3.crac_power_kw;
    result.assignment.temps =
        model_.solve(result.assignment.crac_out_c, final_s3.node_power_kw);
  }
  return result;
}

}  // namespace tapo::core
