// Data-center power bounds (Eq. 17 of the paper).
//
// Pmin is the total power draw when every core is off (base node power plus
// the CRAC power needed to remove it), Pmax when every core runs in
// P-state 0; both are minimized over the CRAC outlet setpoints subject to
// the redline constraints, via the same discretized coarse-to-fine search
// the assignment stages use. The simulation's power budget is then
// Pconst = (Pmin + Pmax) / 2 (Eq. 18).
#pragma once

#include <vector>

#include "dc/datacenter.h"
#include "solver/gridsearch.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::thermal {

struct PowerBounds {
  bool feasible = false;
  double pmin_kw = 0.0;
  double pmax_kw = 0.0;
  std::vector<double> crac_out_at_min;  // optimal setpoints for the two cases
  std::vector<double> crac_out_at_max;
};

struct PowerBoundsOptions {
  double tcrac_min_c = 10.0;
  double tcrac_max_c = 25.0;
  solver::GridSearchOptions grid;
};

// Total power (compute + CRAC) for fixed node powers, minimized over CRAC
// outlet temperatures; infeasible when no setpoint satisfies the redlines.
struct FixedLoadPower {
  bool feasible = false;
  double total_kw = 0.0;
  std::vector<double> crac_out;
};
FixedLoadPower minimize_total_power(const dc::DataCenter& dc,
                                    const HeatFlowModel& model,
                                    const std::vector<double>& node_power,
                                    const PowerBoundsOptions& options = {});

PowerBounds compute_power_bounds(const dc::DataCenter& dc,
                                 const HeatFlowModel& model,
                                 const PowerBoundsOptions& options = {});

// Pconst = Pmin + factor * (Pmax - Pmin); Eq. 18 uses factor = 0.5.
// InvalidArgument for infeasible bounds or a factor outside [0, 1] (NaN
// included).
util::StatusOr<double> pconst_from_bounds(const PowerBounds& bounds,
                                          double factor = 0.5);

}  // namespace tapo::thermal
