// Stage 3: optimal desired execution rates for fixed P-states (Section V.B.4).
//
// With the P-states and CRAC setpoints fixed, Eq. 7 becomes the LP
//   maximize  sum_i r_i sum_k TC(i,k)
//   s.t.      sum_i TC(i,k) / ECS(i, CT_k, PS_k) <= 1      (core capacity)
//             TC(i,k) = 0 when 1/ECS > m_i or ECS = 0      (deadline)
//             sum_k TC(i,k) <= lambda_i                    (arrival rate)
//
// ECS depends on the core only through (node type, P-state), so cores fall
// into equivalence classes and the per-core LP collapses losslessly to one
// variable per (task type, class) with class capacity = class size; rates
// are distributed uniformly within a class afterwards. One writer,
// Stage3RateLp, builds these rows from the partition its caller passes:
// (node type, P-state) classes here, (node, P-state) classes in the
// power-aware Stage 3 (core/stage3_power.h). solve_stage3_percore keeps the
// literal per-core formulation, with its own rows, for cross-validation.
//
// Stages 1 and 2 never read the arrival rates, so the arrival rows here are
// the only place lambda enters the three-stage plan: a re-plan at drifted
// rates is this LP with new arrival-row right-hand sides (core/replanner.h).
#pragma once

#include <cstddef>
#include <vector>

#include "dc/datacenter.h"
#include "solver/lp.h"
#include "solver/matrix.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::core {

struct Stage3Result {
  // True when the LP reached optimality (an all-off data center is optimal
  // at zero rates); false only on a solver failure, in which case `status`
  // carries the reason.
  bool optimal = false;
  util::Status status;
  double reward_rate = 0.0;        // total reward rate (Eq. 7 objective)
  solver::Matrix tc;               // T x NCORES desired execution rates
  std::vector<double> per_type_rate;  // sum over cores, per task type
};

// A class of interchangeable cores: one node type, one P-state.
struct CoreClass {
  std::size_t node_type = 0;
  std::size_t pstate = 0;
  std::vector<std::size_t> cores;  // member core indices
};

// The Eq.-7 rate LP for fixed per-core P-states, written class by class over
// an ordered partition of the schedulable cores: one column per task type
// whose deadline the class meets, priced at r_i, and the class's capacity
// row sum_i x_i / ECS(i, class) <= |class| when it has a column; then one
// arrival row per task type with a column. By default the partition is the
// (node type, P-state) classes in ascending order; off cores and failed
// nodes (dc's degraded-mode state at construction) belong to no class.
// solve_stage3 cold-solves it; RollingPlanner keeps it resident in an
// LpSession and patches the arrival rows.
class Stage3RateLp {
 public:
  struct Column {
    std::size_t var;
    std::size_t task_type;
    std::size_t cls;  // index into the partition
  };

  // Arrival rows start at dc.task_types' rates.
  Stage3RateLp(const dc::DataCenter& dc,
               const std::vector<std::size_t>& core_pstate);
  // The rows over the caller's partition.
  Stage3RateLp(const dc::DataCenter& dc, std::vector<CoreClass> classes);

  const solver::LpProblem& problem() const { return lp_; }
  // True when no (task type, class) pair is schedulable: the LP has no
  // variables and zero rates are optimal.
  bool empty() const { return columns_.empty(); }
  std::size_t num_classes() const { return classes_.size(); }
  std::size_t num_variables() const { return columns_.size(); }
  const CoreClass& core_class(std::size_t cls) const { return classes_[cls]; }
  // Class by class, task types ascending.
  const std::vector<Column>& columns() const { return columns_; }

  // Row of task type i's arrival constraint sum_k TC(i,k) <= lambda_i, or -1
  // when no class can meet its deadline and the type has no row.
  std::ptrdiff_t arrival_row(std::size_t i) const { return arrival_row_[i]; }

  // Re-points the arrival rows at `lambda` (one rate per task type).
  void set_arrival_rates(const std::vector<double>& lambda);

  // Splits solution `x` uniformly over each class's member cores into the
  // T x NCORES matrix TC.
  solver::Matrix split(const std::vector<double>& x) const;

 private:
  std::size_t num_cores_;
  std::vector<CoreClass> classes_;
  std::vector<Column> columns_;
  std::vector<std::ptrdiff_t> arrival_row_;
  solver::LpProblem lp_;
};

// Solves the Eq.-7 rate LP for the given per-core P-states (off cores get no
// rates). Cores are aggregated into (node type, P-state) equivalence classes
// before solving — a lossless reduction because ECS depends on the core only
// through that pair — and the class rates are split uniformly over member
// cores afterwards.
//
// `telemetry` (optional) records the stage3.* metrics from
// docs/OBSERVABILITY.md: the solve timer, class/variable/LP-iteration
// counters and the achieved reward rate.
Stage3Result solve_stage3(const dc::DataCenter& dc,
                          const std::vector<std::size_t>& core_pstate,
                          util::telemetry::Registry* telemetry = nullptr);

// Cold-solves an already built rate LP at its current arrival rates. Records
// the stage3.* counters and gauge; the stage3.solve timer is the overload
// above's, which also covers the build.
Stage3Result solve_stage3(const Stage3RateLp& rate_lp,
                          util::telemetry::Registry* telemetry = nullptr);

// Reference implementation with one variable per (task type, core); used by
// tests to validate the class aggregation. Cost grows with the core count.
Stage3Result solve_stage3_percore(const dc::DataCenter& dc,
                                  const std::vector<std::size_t>& core_pstate);

}  // namespace tapo::core
