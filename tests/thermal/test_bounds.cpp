#include "thermal/bounds.h"

#include <gtest/gtest.h>

#include <limits>

#include "testutil.h"

namespace tapo::thermal {
namespace {

using test::make_tiny_dc;

TEST(PowerBounds, PmaxExceedsPmin) {
  const auto dc = make_tiny_dc({0, 1, 0, 1}, 2);
  const HeatFlowModel model(dc);
  const PowerBounds bounds = compute_power_bounds(dc, model);
  ASSERT_TRUE(bounds.feasible);
  EXPECT_GT(bounds.pmax_kw, bounds.pmin_kw);
}

TEST(PowerBounds, PminCoversBasePower) {
  // Even all-off, total power includes every node's base power plus the CRAC
  // power to remove it.
  const auto dc = make_tiny_dc({0, 0, 1}, 1);
  const HeatFlowModel model(dc);
  const PowerBounds bounds = compute_power_bounds(dc, model);
  ASSERT_TRUE(bounds.feasible);
  EXPECT_GT(bounds.pmin_kw, dc.total_base_power_kw());
}

TEST(PowerBounds, PmaxCoversMaxComputePower) {
  const auto dc = make_tiny_dc({0, 1}, 1);
  const HeatFlowModel model(dc);
  const PowerBounds bounds = compute_power_bounds(dc, model);
  ASSERT_TRUE(bounds.feasible);
  EXPECT_GT(bounds.pmax_kw, dc.max_compute_power_kw());
}

TEST(PowerBounds, SetpointsRespectRedlinesAtFullLoad) {
  const auto dc = make_tiny_dc({0, 0, 1, 1, 0}, 2);
  const HeatFlowModel model(dc);
  const PowerBounds bounds = compute_power_bounds(dc, model);
  ASSERT_TRUE(bounds.feasible);
  std::vector<double> all_on(dc.num_nodes());
  for (std::size_t j = 0; j < dc.num_nodes(); ++j) {
    all_on[j] = dc.node_type(j).max_node_power_kw();
  }
  EXPECT_TRUE(model.within_redlines(model.solve(bounds.crac_out_at_max, all_on)));
}

TEST(PowerBounds, MinimizerPrefersWarmSetpointsAtIdle) {
  // At idle the CoP effect dominates: higher setpoints are cheaper, so the
  // optimizer should not sit at the coldest allowed temperature.
  const auto dc = make_tiny_dc({0, 1}, 1);
  const HeatFlowModel model(dc);
  PowerBoundsOptions options;
  const PowerBounds bounds = compute_power_bounds(dc, model, options);
  ASSERT_TRUE(bounds.feasible);
  EXPECT_GT(bounds.crac_out_at_min[0], options.tcrac_min_c + 1.0);
}

TEST(PowerBounds, PconstMidpoint) {
  PowerBounds bounds;
  bounds.feasible = true;
  bounds.pmin_kw = 10.0;
  bounds.pmax_kw = 30.0;
  EXPECT_DOUBLE_EQ(*pconst_from_bounds(bounds), 20.0);
  EXPECT_DOUBLE_EQ(*pconst_from_bounds(bounds, 0.25), 15.0);
  EXPECT_DOUBLE_EQ(*pconst_from_bounds(bounds, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(*pconst_from_bounds(bounds, 0.0), 10.0);
}

TEST(PowerBounds, PconstRejectsInfeasibleBoundsAndBadFactors) {
  PowerBounds bounds;
  bounds.pmin_kw = 10.0;
  bounds.pmax_kw = 30.0;
  EXPECT_EQ(pconst_from_bounds(bounds).status().code(),
            util::StatusCode::kInvalidArgument);  // bounds.feasible is false
  bounds.feasible = true;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double factor : {-0.1, 1.5, kNaN, kInf}) {
    SCOPED_TRACE(testing::Message() << "factor " << factor);
    EXPECT_EQ(pconst_from_bounds(bounds, factor).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(FixedLoadPower, MonotoneInLoad) {
  const auto dc = make_tiny_dc({0, 1, 0}, 1);
  const HeatFlowModel model(dc);
  const auto low =
      minimize_total_power(dc, model, {0.4, 0.45, 0.4});
  const auto high =
      minimize_total_power(dc, model, {0.7, 0.85, 0.7});
  ASSERT_TRUE(low.feasible && high.feasible);
  EXPECT_GT(high.total_kw, low.total_kw);
}

TEST(FixedLoadPower, InfeasibleWhenRedlineUnreachable) {
  auto dc = make_tiny_dc({0, 0}, 1);
  dc.redline_node_c = 5.0;  // below any reachable setpoint
  const HeatFlowModel model(dc);
  const auto result = minimize_total_power(dc, model, {0.5, 0.5});
  EXPECT_FALSE(result.feasible);
}

TEST(FixedLoadPower, TotalIncludesCracShare) {
  const auto dc = make_tiny_dc({0}, 1);
  const HeatFlowModel model(dc);
  const std::vector<double> load{0.6};
  const auto result = minimize_total_power(dc, model, load);
  ASSERT_TRUE(result.feasible);
  const auto temps = model.solve(result.crac_out, load);
  EXPECT_NEAR(result.total_kw, 0.6 + model.total_crac_power_kw(temps), 1e-9);
}

}  // namespace
}  // namespace tapo::thermal
