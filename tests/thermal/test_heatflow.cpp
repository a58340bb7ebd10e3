#include "thermal/heatflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dc/crac.h"
#include "testutil.h"

namespace tapo::thermal {
namespace {

using test::make_tiny_dc;

TEST(HeatFlow, NoPowerMeansUniformTemperature) {
  // With zero node power every temperature equals the (single) CRAC setpoint:
  // all inlets are convex combinations of outlets, and nothing adds heat.
  const auto dc = make_tiny_dc({0, 0}, 1);
  const HeatFlowModel model(dc);
  const auto temps = model.solve({18.0}, {0.0, 0.0});
  for (double t : temps.node_in) EXPECT_NEAR(t, 18.0, 1e-9);
  for (double t : temps.node_out) EXPECT_NEAR(t, 18.0, 1e-9);
  for (double t : temps.crac_in) EXPECT_NEAR(t, 18.0, 1e-9);
}

TEST(HeatFlow, NodeOutletFollowsEq4) {
  const auto dc = make_tiny_dc({0, 1}, 1);
  const HeatFlowModel model(dc);
  const std::vector<double> power{0.5, 0.3};
  const auto temps = model.solve({15.0}, power);
  for (std::size_t j = 0; j < 2; ++j) {
    const double expected =
        temps.node_in[j] +
        power[j] / (dc::kAirDensity * dc::kAirSpecificHeat * dc.node_flow(j));
    EXPECT_NEAR(temps.node_out[j], expected, 1e-9);
  }
}

TEST(HeatFlow, GlobalEnergyBalance) {
  // In steady state the heat absorbed by all CRACs equals total node power:
  // sum_c rho*Cp*F_c (Tin_c - Tout_c) = sum_j P_j.
  const auto dc = make_tiny_dc({0, 1, 0, 1}, 2);
  const HeatFlowModel model(dc);
  const std::vector<double> power{0.7, 0.2, 0.5, 0.61};
  const auto temps = model.solve({16.0, 17.0}, power);
  double removed = 0.0;
  for (std::size_t c = 0; c < dc.num_cracs(); ++c) {
    removed += dc::kAirDensity * dc::kAirSpecificHeat * dc.cracs[c].flow_m3s *
               (temps.crac_in[c] - temps.crac_out[c]);
  }
  EXPECT_NEAR(removed, 0.7 + 0.2 + 0.5 + 0.61, 1e-8);
}

TEST(HeatFlow, MorePowerRaisesTemperatures) {
  const auto dc = make_tiny_dc({0, 0, 1}, 1);
  const HeatFlowModel model(dc);
  const auto low = model.solve({15.0}, {0.1, 0.1, 0.1});
  const auto high = model.solve({15.0}, {0.6, 0.6, 0.6});
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_GT(high.node_in[j], low.node_in[j]);
    EXPECT_GT(high.node_out[j], low.node_out[j]);
  }
  EXPECT_GT(high.crac_in[0], low.crac_in[0]);
}

TEST(HeatFlow, SetpointShiftsEverythingUniformly) {
  // With alpha fixed, raising all CRAC outlets by d raises every temperature
  // by exactly d (the system is affine with row-stochastic mixing).
  const auto dc = make_tiny_dc({0, 1}, 2);
  const HeatFlowModel model(dc);
  const std::vector<double> power{0.4, 0.4};
  const auto a = model.solve({15.0, 15.0}, power);
  const auto b = model.solve({18.0, 18.0}, power);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(b.node_in[j] - a.node_in[j], 3.0, 1e-9);
    EXPECT_NEAR(b.node_out[j] - a.node_out[j], 3.0, 1e-9);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(b.crac_in[c] - a.crac_in[c], 3.0, 1e-9);
  }
}

TEST(HeatFlow, LinearizeMatchesSolve) {
  const auto dc = make_tiny_dc({0, 1, 1}, 2);
  const HeatFlowModel model(dc);
  const std::vector<double> crac_out{15.5, 17.0};
  const HeatFlowModel::AffineOffsets off = model.offsets(crac_out);
  const std::vector<double> power{0.3, 0.8, 0.05};
  const auto temps = model.solve(crac_out, power);

  const auto node_in_pred = model.node_in_coeff().multiply(power);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(off.node_in0[j] + node_in_pred[j], temps.node_in[j], 1e-9);
  }
  const auto crac_in_pred = model.crac_in_coeff().multiply(power);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(off.crac_in0[c] + crac_in_pred[c], temps.crac_in[c], 1e-9);
  }
}

TEST(HeatFlow, LinearResponseCoefficientsNonNegative) {
  // More power anywhere never cools any inlet: (I-G_nn)^-1 = sum G^k >= 0.
  const auto dc = make_tiny_dc({0, 0, 1, 1}, 2);
  const HeatFlowModel model(dc);
  const solver::Matrix& node_in_coeff = model.node_in_coeff();
  const solver::Matrix& crac_in_coeff = model.crac_in_coeff();
  for (std::size_t r = 0; r < node_in_coeff.rows(); ++r) {
    for (std::size_t c = 0; c < node_in_coeff.cols(); ++c) {
      EXPECT_GE(node_in_coeff(r, c), -1e-12);
    }
  }
  for (std::size_t r = 0; r < crac_in_coeff.rows(); ++r) {
    for (std::size_t c = 0; c < crac_in_coeff.cols(); ++c) {
      EXPECT_GE(crac_in_coeff(r, c), -1e-12);
    }
  }
}

TEST(HeatFlow, TotalCracPowerMatchesSpec) {
  const auto dc = make_tiny_dc({0, 1}, 2);
  const HeatFlowModel model(dc);
  const auto temps = model.solve({15.0, 16.0}, {0.79, 0.93});
  double expected = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    expected += dc.cracs[c].power_kw(temps.crac_in[c], temps.crac_out[c]);
  }
  EXPECT_DOUBLE_EQ(model.total_crac_power_kw(temps), expected);
  EXPECT_GT(expected, 0.0);
}

TEST(HeatFlow, RedlineCheck) {
  auto dc = make_tiny_dc({0, 0}, 1);
  dc.redline_node_c = 25.0;
  dc.redline_crac_c = 40.0;
  const HeatFlowModel model(dc);
  EXPECT_TRUE(model.within_redlines(model.solve({20.0}, {0.3, 0.3})));
  // A 24.9 degC setpoint plus recirculated heat pushes node inlets past 25.
  EXPECT_FALSE(model.within_redlines(model.solve({24.9}, {0.79, 0.79})));
}

TEST(HeatFlow, RejectsMalformedAlpha) {
  auto dc = make_tiny_dc({0, 0}, 1);
  dc.alpha(0, 0) += 0.5;  // breaks flow balance
  EXPECT_DEATH({ HeatFlowModel model(dc); }, "flow balance");
}

TEST(HeatFlow, InletMixingStatesTheAlphaRuleAsAStatus) {
  const auto dc = make_tiny_dc({0, 0}, 1);
  const auto g = inlet_mixing(dc);
  ASSERT_TRUE(g.ok()) << g.status().to_string();
  for (std::size_t j = 0; j < dc.num_entities(); ++j) {
    double row = 0.0;
    for (std::size_t i = 0; i < dc.num_entities(); ++i) row += (*g)(j, i);
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
  const auto fails_with = [&](auto mutate, const char* want) {
    auto bad = dc;
    mutate(bad);
    const auto status = inlet_mixing(bad).status();
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << want;
    EXPECT_NE(status.message().find(want), std::string::npos)
        << status.to_string();
  };
  fails_with([](dc::DataCenter& d) { d.alpha(0, 1) = -0.5; }, "negative");
  fails_with([](dc::DataCenter& d) { d.alpha(0, 1) = std::nan(""); },
             "not finite");
  fails_with([](dc::DataCenter& d) { d.alpha(0, 0) += 0.5; }, "flow balance");
  fails_with([](dc::DataCenter& d) { d.alpha = solver::Matrix(2, 2); },
             "dimensions");
}

TEST(HeatFlow, HeatingPerKwMatchesNodeFlow) {
  const auto dc = make_tiny_dc({0, 1}, 1);
  const HeatFlowModel model(dc);
  EXPECT_NEAR(model.node_heating_per_kw(0), 1.0 / (1.205 * 0.07), 1e-12);
  EXPECT_NEAR(model.node_heating_per_kw(1), 1.0 / (1.205 * 0.0828), 1e-12);
}

TEST(HeatFlow, ScenarioAlphaProducesFiniteTemperatures) {
  const auto scenario = test::make_small_scenario(3, 12, 2);
  const HeatFlowModel model(scenario.dc);
  std::vector<double> power(scenario.dc.num_nodes(), 0.5);
  const auto temps = model.solve({16.0, 16.0}, power);
  for (double t : temps.node_in) {
    EXPECT_GT(t, 15.0);
    EXPECT_LT(t, 40.0);
  }
}

}  // namespace
}  // namespace tapo::thermal
