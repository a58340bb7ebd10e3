#include "thermal/crossinterference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dc/layout.h"
#include "thermal/heatflow.h"
#include "testutil.h"

namespace tapo::thermal {
namespace {

std::vector<double> uniform_flows(const dc::Layout& layout, double node_flow) {
  const double crac_flow = node_flow * static_cast<double>(layout.nodes.size()) /
                           static_cast<double>(layout.num_cracs);
  std::vector<double> flows(layout.num_cracs, crac_flow);
  flows.insert(flows.end(), layout.nodes.size(), node_flow);
  return flows;
}

TEST(Table2, RangesMatchPaper) {
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::A).ec_min, 0.30);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::A).ec_max, 0.40);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::A).rc_min, 0.00);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::A).rc_max, 0.10);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::B).rc_max, 0.20);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::C).ec_min, 0.40);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::D).ec_max, 0.80);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::D).rc_min, 0.30);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::E).ec_max, 0.90);
  EXPECT_DOUBLE_EQ(table2_range(dc::RackLabel::E).rc_max, 0.80);
}

TEST(Table2, MonotoneWithHeight) {
  // Higher rack positions recirculate and exit more.
  double prev_ec = 0.0, prev_rc = -1.0;
  for (auto label : {dc::RackLabel::A, dc::RackLabel::B, dc::RackLabel::C,
                     dc::RackLabel::D, dc::RackLabel::E}) {
    const auto r = table2_range(label);
    EXPECT_GE(r.ec_min, prev_ec - 1e-12);
    EXPECT_GE(r.rc_max, prev_rc);
    prev_ec = r.ec_min;
    prev_rc = r.rc_max;
  }
}

class CrossInterferenceGen : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossInterferenceGen, SatisfiesAllAppendixBConstraints) {
  const auto layout = dc::make_hot_cold_aisle_layout(25, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng rng(GetParam());
  const auto alpha = generate_cross_interference(layout, flows, rng);
  ASSERT_TRUE(alpha.has_value());
  const auto check = verify_cross_interference(*alpha, layout, flows);
  EXPECT_TRUE(check.ok) << "row-sum err " << check.max_outflow_error
                        << " balance err " << check.max_flow_balance_error
                        << " ec " << check.max_ec_violation << " rc "
                        << check.max_rc_violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossInterferenceGen,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(CrossInterference, PaperScale150Nodes3Cracs) {
  const auto layout = dc::make_hot_cold_aisle_layout(150, 3);
  const auto flows = uniform_flows(layout, 0.075);
  util::Rng rng(42);
  const auto alpha = generate_cross_interference(layout, flows, rng);
  ASSERT_TRUE(alpha.has_value());
  EXPECT_TRUE(verify_cross_interference(*alpha, layout, flows).ok);
}

TEST(CrossInterference, DifferentSeedsGiveDifferentMatrices) {
  const auto layout = dc::make_hot_cold_aisle_layout(15, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng r1(1), r2(2);
  const auto a1 = generate_cross_interference(layout, flows, r1);
  const auto a2 = generate_cross_interference(layout, flows, r2);
  ASSERT_TRUE(a1 && a2);
  double diff = 0.0;
  for (std::size_t i = 0; i < a1->rows(); ++i) {
    for (std::size_t j = 0; j < a1->cols(); ++j) {
      diff = std::max(diff, std::fabs((*a1)(i, j) - (*a2)(i, j)));
    }
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(CrossInterference, SameSeedReproduces) {
  const auto layout = dc::make_hot_cold_aisle_layout(15, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng r1(9), r2(9);
  const auto a1 = generate_cross_interference(layout, flows, r1);
  const auto a2 = generate_cross_interference(layout, flows, r2);
  ASSERT_TRUE(a1 && a2);
  for (std::size_t i = 0; i < a1->rows(); ++i) {
    for (std::size_t j = 0; j < a1->cols(); ++j) {
      EXPECT_DOUBLE_EQ((*a1)(i, j), (*a2)(i, j));
    }
  }
}

TEST(CrossInterference, GeneratedAlphaFeedsHeatFlowModel) {
  // The generated matrix must produce a solvable heat-flow fixed point.
  auto dc = test::make_tiny_dc({0, 0, 1, 1, 0, 1, 0, 0, 1, 0}, 2);
  std::vector<double> flows;
  for (std::size_t e = 0; e < dc.num_entities(); ++e) {
    flows.push_back(dc.entity_flow(e));
  }
  util::Rng rng(5);
  const auto alpha = generate_cross_interference(dc.layout, flows, rng);
  ASSERT_TRUE(alpha.has_value());
  dc.alpha = *alpha;
  const HeatFlowModel model(dc);
  const auto temps = model.solve({15.0, 15.0}, std::vector<double>(10, 0.5));
  for (double t : temps.node_in) EXPECT_GT(t, 15.0);
}

TEST(CrossInterference, TopNodesRecirculateMoreThanBottomNodes) {
  const auto layout = dc::make_hot_cold_aisle_layout(50, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng rng(11);
  const auto alpha = generate_cross_interference(layout, flows, rng);
  ASSERT_TRUE(alpha.has_value());
  const std::size_t nc = layout.num_cracs;
  double rc_bottom = 0.0, rc_top = 0.0;
  std::size_t n_bottom = 0, n_top = 0;
  for (std::size_t j = 0; j < layout.nodes.size(); ++j) {
    double rc_flow = 0.0;
    for (std::size_t i = 0; i < layout.nodes.size(); ++i) {
      rc_flow += (*alpha)(nc + i, nc + j) * flows[nc + i];
    }
    const double rc = rc_flow / flows[nc + j];
    if (layout.nodes[j].label == dc::RackLabel::A) {
      rc_bottom += rc;
      ++n_bottom;
    } else if (layout.nodes[j].label == dc::RackLabel::E) {
      rc_top += rc;
      ++n_top;
    }
  }
  ASSERT_GT(n_bottom, 0u);
  ASSERT_GT(n_top, 0u);
  EXPECT_GT(rc_top / n_top, rc_bottom / n_bottom);
}

TEST(CrossInterference, VerifyRejectsBadMatrix) {
  const auto layout = dc::make_hot_cold_aisle_layout(10, 1);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng rng(3);
  auto alpha = generate_cross_interference(layout, flows, rng);
  ASSERT_TRUE(alpha.has_value());
  (*alpha)(0, 0) += 0.1;  // breaks the row sum
  EXPECT_FALSE(verify_cross_interference(*alpha, layout, flows).ok);
}

TEST(CrossInterference, PartialRackRequiresRelaxation) {
  // 12 nodes = 2 full racks + {A, B}: the extra bottom labels emit more
  // node-to-node air than the strict RC ranges absorb, so the generator must
  // fall back to a (reported) minimal widening of the Table-II upper bounds.
  const auto layout = dc::make_hot_cold_aisle_layout(12, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng rng(4);
  GenerationInfo info;
  const auto alpha = generate_cross_interference(layout, flows, rng, &info);
  ASSERT_TRUE(alpha.has_value());
  EXPECT_GT(info.range_relaxation, 0.0);
  EXPECT_LT(info.range_relaxation, 0.5);
  // Flow conservation stays exact; only the EC/RC ranges were widened.
  const auto strict = verify_cross_interference(*alpha, layout, flows);
  EXPECT_LT(strict.max_outflow_error, 1e-6);
  EXPECT_LT(strict.max_flow_balance_error, 1e-6);
  EXPECT_TRUE(verify_cross_interference(*alpha, layout, flows,
                                        info.range_relaxation + 1e-9)
                  .ok);
}

TEST(CrossInterference, StrictGenerationReportsZeroRelaxation) {
  const auto layout = dc::make_hot_cold_aisle_layout(25, 2);
  const auto flows = uniform_flows(layout, 0.07);
  util::Rng rng(6);
  GenerationInfo info;
  const auto alpha = generate_cross_interference(layout, flows, rng, &info);
  ASSERT_TRUE(alpha.has_value());
  EXPECT_DOUBLE_EQ(info.range_relaxation, 0.0);
}

TEST(CrossInterference, VerifyRejectsWrongDimensions) {
  const auto layout = dc::make_hot_cold_aisle_layout(10, 1);
  const auto flows = uniform_flows(layout, 0.07);
  EXPECT_FALSE(verify_cross_interference(solver::Matrix(3, 3), layout, flows).ok);
}

}  // namespace
}  // namespace tapo::thermal
