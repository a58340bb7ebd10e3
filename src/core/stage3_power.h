// Power-aware Stage 3 and the task-power pipeline (Section III.C extension).
//
// When core power depends on the executing task type (pi_{j,k} scaled by a
// per-type factor, idle cores by an idle factor), the expected node power
// becomes affine in the desired execution rates TC - so Stage 3 can carry
// the power budget and the thermal redlines as LP rows of its own instead of
// inheriting them from Stage 1's worst-case assumption:
//
//   maximize   sum_i r_i sum x(i, j, k)
//   s.t.       capacity, deadlines, arrivals          (as plain Stage 3)
//              p_j = B_j + sum_k count_{j,k} pi_k mu_idle
//                        + sum_{i,k} x/ECS * pi_k (mu_i - mu_idle)
//              Tin(p) <= Tredline,  sum p + CRAC(p) <= Pconst
//
// Because real workload factors are <= 1, the plain pipeline (which budgets
// every active core at full pi) strands power. TaskPowerAssigner reclaims
// it iteratively: run stages 1-2 with an inflated virtual budget, solve the
// power-aware Stage 3 (which enforces the TRUE constraints, so feasibility
// never depends on the inflation), and keep inflating while measured slack
// remains. Variables are per (task type, node, P-state) because expected
// power - unlike ECS - is tied to the node's thermal position, so the
// class aggregation of plain Stage 3 does not apply; problem sizes stay
// moderate (T x NCN x states).
//
// The LP has no rows of its own: Stage3RateLp (core/stage3.h) writes the
// rate rows over per-node (node, P-state) classes, nodes and states
// ascending, and append_point_thermal_rows (core/thermal_rows.h) the
// redline, CRAC power and budget rows with a kW coefficient per rate column
// and B_j plus the idle draw as node j's constant load. A failed node gets
// no classes and draws 0.
#pragma once

#include <vector>

#include "core/assigner.h"
#include "core/stage1.h"
#include "dc/datacenter.h"
#include "solver/matrix.h"
#include "thermal/heatflow.h"

namespace tapo::core {

struct PowerAwareStage3Result {
  bool optimal = false;
  // Why the solve failed when !optimal: distinguishes a genuinely
  // infeasible/degenerate instance from an LP iteration-cap hit
  // (RESOURCE_EXHAUSTED), which says nothing about the instance.
  util::Status status;
  double reward_rate = 0.0;
  solver::Matrix tc;                    // T x NCORES
  std::vector<double> node_power_kw;    // expected, incl. base
  double compute_power_kw = 0.0;
  double crac_power_kw = 0.0;           // from the LP's CRAC rows
};

// Solves the power-aware Stage-3 LP for fixed P-states and CRAC setpoints.
PowerAwareStage3Result solve_stage3_power_aware(
    const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
    const std::vector<double>& crac_out,
    const std::vector<std::size_t>& core_pstate,
    const dc::TaskPowerFactors& factors);

struct TaskPowerOptions {
  Stage1Options stage1;
  // Virtual-budget inflation per iteration, as a fraction of the measured
  // power slack (1 = claim all of it at once).
  double reclaim_fraction = 0.9;
  std::size_t max_iterations = 4;
  // Stop iterating once the slack falls below this fraction of Pconst.
  double slack_tolerance = 0.005;
};

struct TaskPowerResult {
  bool feasible = false;
  Assignment assignment;           // P-states + TC of the best iteration
  double expected_power_kw = 0.0;  // true expected total power (<= Pconst)
  std::size_t iterations = 0;
  double first_iteration_reward = 0.0;    // = plain pipeline reward
  double first_iteration_power_kw = 0.0;  // expected power before reclaiming
};

// Holds a mutable reference: assign() temporarily inflates dc.p_const_kw as
// its virtual stage-1 budget and restores it before returning.
class TaskPowerAssigner {
 public:
  TaskPowerAssigner(dc::DataCenter& dc, const thermal::HeatFlowModel& model,
                    dc::TaskPowerFactors factors);

  TaskPowerResult assign(const TaskPowerOptions& options = {}) const;

 private:
  dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  dc::TaskPowerFactors factors_;
};

}  // namespace tapo::core
