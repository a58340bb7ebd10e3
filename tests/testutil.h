// Shared helpers for building small, fully-valid data centers in tests, and
// the bitwise SimResult comparison the DES differential suites share.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "dc/datacenter.h"
#include "scenario/generator.h"
#include "sim/des.h"
#include "solver/matrix.h"

namespace tapo::test {

// A proportional-mixing cross-interference matrix: every outlet distributes
// to inlets proportionally to their flow. Satisfies the Appendix-B row-sum
// and flow-balance constraints exactly (though not the Table-II EC/RC
// ranges), which suffices for heat-flow tests.
inline solver::Matrix proportional_alpha(const dc::DataCenter& dc) {
  const std::size_t n = dc.num_entities();
  double total = 0.0;
  for (std::size_t e = 0; e < n; ++e) total += dc.entity_flow(e);
  solver::Matrix alpha(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      alpha(i, j) = dc.entity_flow(j) / total;
    }
  }
  return alpha;
}

// A tiny data center (node types from Table I) with proportional mixing.
// node_type_of[j] selects the type of node j.
inline dc::DataCenter make_tiny_dc(const std::vector<std::size_t>& node_type_of,
                                   std::size_t num_cracs,
                                   double static_fraction = 0.3) {
  dc::DataCenter out;
  out.node_types = dc::table1_node_types(static_fraction);
  for (std::size_t t : node_type_of) out.nodes.push_back({t});
  out.layout = dc::make_hot_cold_aisle_layout(node_type_of.size(), num_cracs);
  double node_flow = 0.0;
  for (std::size_t j = 0; j < node_type_of.size(); ++j) {
    node_flow += out.node_types[node_type_of[j]].airflow_m3s();
  }
  dc::CracSpec crac;
  crac.flow_m3s = node_flow / static_cast<double>(num_cracs);
  out.cracs.assign(num_cracs, crac);
  out.finalize();
  out.alpha = proportional_alpha(out);
  return out;
}

// A full scenario at reduced size; aborts the test on generation failure.
inline scenario::Scenario make_small_scenario(std::uint64_t seed,
                                              std::size_t num_nodes = 10,
                                              std::size_t num_cracs = 2) {
  scenario::ScenarioConfig config;
  config.num_nodes = num_nodes;
  config.num_cracs = num_cracs;
  config.seed = seed;
  auto result = scenario::generate_scenario(config);
  if (!result.has_value()) {
    throw std::runtime_error("scenario generation failed in test helper");
  }
  return std::move(*result);
}

// Every SimResult field must match exactly: same decisions, same counters,
// same doubles.
inline void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.to_string();
  ASSERT_TRUE(b.status.ok()) << b.status.to_string();
  EXPECT_EQ(a.measured_seconds, b.measured_seconds);
  EXPECT_EQ(a.total_reward, b.total_reward);
  EXPECT_EQ(a.reward_rate, b.reward_rate);
  EXPECT_EQ(a.mean_tracking_error, b.mean_tracking_error);
  EXPECT_EQ(a.energy_kwh, b.energy_kwh);
  EXPECT_EQ(a.reward_per_kwh, b.reward_per_kwh);
  ASSERT_EQ(a.per_type.size(), b.per_type.size());
  for (std::size_t i = 0; i < a.per_type.size(); ++i) {
    EXPECT_EQ(a.per_type[i].arrived, b.per_type[i].arrived) << "type " << i;
    EXPECT_EQ(a.per_type[i].assigned, b.per_type[i].assigned) << "type " << i;
    EXPECT_EQ(a.per_type[i].dropped, b.per_type[i].dropped) << "type " << i;
    EXPECT_EQ(a.per_type[i].completed_in_time, b.per_type[i].completed_in_time)
        << "type " << i;
    EXPECT_EQ(a.per_type[i].completed_late, b.per_type[i].completed_late)
        << "type " << i;
    EXPECT_EQ(a.per_type[i].reward, b.per_type[i].reward) << "type " << i;
    EXPECT_EQ(a.per_type[i].desired_rate, b.per_type[i].desired_rate)
        << "type " << i;
  }
}

}  // namespace tapo::test
