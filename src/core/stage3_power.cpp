#include "core/stage3_power.h"

#include <map>
#include <utility>

#include "core/stage2.h"
#include "core/stage3.h"
#include "core/thermal_rows.h"
#include "solver/lp.h"
#include "util/check.h"

namespace tapo::core {

namespace {

// Virtual-budget inflation per reclaim iteration, as a fraction of the
// measured power slack (1 = claim all of it at once).
constexpr double kReclaimFraction = 0.9;
constexpr std::size_t kMaxReclaimIterations = 4;
// Stop iterating once the slack falls below this fraction of Pconst.
constexpr double kSlackTolerance = 0.005;

}  // namespace

PowerAwareStage3Result solve_stage3_power_aware(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out,
    const std::vector<std::size_t>& core_pstate,
    const dc::TaskPowerFactors& factors) {
  const std::size_t nn = dc.num_nodes();
  TAPO_CHECK(core_pstate.size() == dc.total_cores());
  TAPO_CHECK(crac_out.size() == dc.num_cracs());
  // Executing cannot draw less than idling at the same P-state (an I/O-bound
  // task approaches the idle draw from above); a violation would let the LP
  // "cool the room" by scheduling work.
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    TAPO_CHECK_MSG(factors.factor(i) >= factors.idle_factor - 1e-12,
                   "task power factor below the idle factor");
  }

  // Per live node: one class per active P-state, states ascending, and the
  // constant load, its base power plus the idle draw of its on cores. A
  // failed node has neither.
  std::vector<CoreClass> classes;
  std::vector<double> load(nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) {
    if (dc.node_failed(j)) continue;
    const dc::NodeTypeSpec& spec = dc.node_type(j);
    load[j] = spec.base_power_kw();
    std::map<std::size_t, std::vector<std::size_t>> by_state;
    const std::size_t offset = dc.core_offset(j);
    for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
      const std::size_t state = core_pstate[offset + c];
      if (state == spec.off_state()) continue;
      by_state[state].push_back(offset + c);
      load[j] += spec.core_power_kw(state) * factors.idle_factor;
    }
    for (auto& [state, cores] : by_state) {
      classes.push_back({dc.nodes[j].type, state, std::move(cores)});
    }
  }

  const Stage3RateLp rates(dc, std::move(classes));
  solver::LpProblem lp = rates.problem();
  std::vector<std::size_t> crac_power_vars(dc.num_cracs());
  for (std::size_t& q : crac_power_vars) {
    q = lp.add_variable(0.0, solver::kLpInfinity, 0.0);
  }
  // Running task i replaces idle draw: each unit of rate adds utilization
  // (etc) times pi * (mu_i - mu_idle) kW to its node.
  std::vector<std::vector<std::size_t>> node_cols(nn);
  std::vector<double> col_kw(lp.num_vars(), 0.0);
  for (const Stage3RateLp::Column& col : rates.columns()) {
    const CoreClass& cls = rates.core_class(col.cls);
    const std::size_t j = dc.core_node(cls.cores.front());
    col_kw[col.var] =
        dc.ecs.etc_seconds(col.task_type, cls.node_type, cls.pstate) *
        dc.node_type(j).core_power_kw(cls.pstate) *
        (factors.factor(col.task_type) - factors.idle_factor);
    node_cols[j].push_back(col.var);
  }
  // Redlines, CRAC power rows and the budget over the affine node powers,
  // in the per-point form; see core/thermal_rows.h.
  if (!append_point_thermal_rows(lp, dc, model, node_cols, col_kw, load,
                                 crac_power_vars, crac_out,
                                 /*with_budget_row=*/true)) {
    PowerAwareStage3Result failed;
    failed.status = util::Status::Infeasible(
        "stage3-power: idle floor violates a thermal/power row");
    return failed;
  }

  PowerAwareStage3Result result;
  result.node_power_kw = load;
  if (rates.empty()) {
    // Nothing can run; feasible iff the idle floor fits the budget.
    result.tc = solver::Matrix(dc.num_task_types(), dc.total_cores());
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
  result.tc = rates.split(sol.x);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t v : node_cols[j]) {
      if (sol.x[v] > 0.0) result.node_power_kw[j] += col_kw[v] * sol.x[v];
    }
  }
  for (double p : result.node_power_kw) result.compute_power_kw += p;
  // The CRAC power columns cost nothing in the objective, so wherever the
  // budget row has slack the LP may leave them anywhere above the true CRAC
  // power; report the model's value at the published node powers instead.
  result.crac_power_kw = model.total_crac_power_kw(
      model.solve(crac_out, result.node_power_kw));
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

  std::vector<double> best_node_power_kw;  // the published iterate's

  const Stage1Solver stage1(dc_, model_);
  for (std::size_t iter = 0; iter < kMaxReclaimIterations; ++iter) {
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
      assignment.compute_power_kw = s3.compute_power_kw;
      assignment.crac_power_kw = s3.crac_power_kw;
      result.assignment = std::move(assignment);
      result.expected_power_kw = s3.compute_power_kw + s3.crac_power_kw;
      best_node_power_kw = s3.node_power_kw;
    }

    const double slack = true_budget - result.expected_power_kw;
    if (slack <= kSlackTolerance * true_budget) break;
    virtual_budget += kReclaimFraction * slack;
  }
  mutable_dc.p_const_kw = true_budget;

  // Temperatures for reporting use the expected node powers of the
  // published TC (not the stage-2 worst case).
  if (result.feasible) {
    result.assignment.temps =
        model_.solve(result.assignment.crac_out_c, best_node_power_kw);
  }
  return result;
}

}  // namespace tapo::core
