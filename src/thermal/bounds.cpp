#include "thermal/bounds.h"

#include <numeric>
#include <string>

#include "util/check.h"

namespace tapo::thermal {

FixedLoadPower minimize_total_power(const dc::DataCenter& dc,
                                    const HeatFlowModel& model,
                                    const std::vector<double>& node_power,
                                    const PowerBoundsOptions& options) {
  const double compute_kw =
      std::accumulate(node_power.begin(), node_power.end(), 0.0);

  const std::vector<double> lo(dc.num_cracs(), options.tcrac_min_c);
  const std::vector<double> hi(dc.num_cracs(), options.tcrac_max_c);
  // Maximize the negated total power; infeasible points return nullopt.
  const auto objective =
      [&](const std::vector<double>& crac_out) -> std::optional<double> {
    const Temperatures temps = model.solve(crac_out, node_power);
    if (!model.within_redlines(temps)) return std::nullopt;
    return -(compute_kw + model.total_crac_power_kw(temps));
  };
  const auto result = solver::uniform_then_coordinate_maximize(
      lo, hi, objective, options.grid);

  FixedLoadPower out;
  out.feasible = result.found;
  if (result.found) {
    out.total_kw = -result.best_value;
    out.crac_out = result.best_point;
  }
  return out;
}

PowerBounds compute_power_bounds(const dc::DataCenter& dc,
                                 const HeatFlowModel& model,
                                 const PowerBoundsOptions& options) {
  std::vector<double> all_off(dc.num_nodes());
  std::vector<double> all_on(dc.num_nodes());
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    all_off[j] = dc.node_type(j).base_power_kw();
    all_on[j] = dc.node_type(j).max_node_power_kw();
  }

  const FixedLoadPower low = minimize_total_power(dc, model, all_off, options);
  const FixedLoadPower high = minimize_total_power(dc, model, all_on, options);

  PowerBounds bounds;
  bounds.feasible = low.feasible && high.feasible;
  if (bounds.feasible) {
    bounds.pmin_kw = low.total_kw;
    bounds.pmax_kw = high.total_kw;
    bounds.crac_out_at_min = low.crac_out;
    bounds.crac_out_at_max = high.crac_out;
    TAPO_CHECK(bounds.pmax_kw >= bounds.pmin_kw);
  }
  return bounds;
}

util::StatusOr<double> pconst_from_bounds(const PowerBounds& bounds,
                                          double factor) {
  if (!bounds.feasible) {
    return util::Status::InvalidArgument(
        "power budget: the power bounds are infeasible");
  }
  if (!(factor >= 0.0 && factor <= 1.0)) {
    return util::Status::InvalidArgument(
        "power budget: factor must be in [0, 1] (got " +
        std::to_string(factor) + ")");
  }
  return bounds.pmin_kw + factor * (bounds.pmax_kw - bounds.pmin_kw);
}

}  // namespace tapo::thermal
