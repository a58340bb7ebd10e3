// Table II reproduction: the EC/RC ranges per rack-position label, and a
// validation run of the Appendix-B cross-interference generator at paper
// scale (150 nodes, 3 CRACs) - every Appendix-B constraint is re-verified
// on the generated matrix and the realized EC/RC statistics are reported
// per label.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "dc/layout.h"
#include "thermal/crossinterference.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 150);
  const std::size_t cracs = bench::env_size("TAPO_CRACS", 3);
  std::printf("=== Table II: EC / RC ranges per compute-node label ===\n\n");
  bench::print_config();
  util::Table ranges({"label", "EC range (paper)", "RC range (paper)"});
  for (auto label : {dc::RackLabel::A, dc::RackLabel::B, dc::RackLabel::C,
                     dc::RackLabel::D, dc::RackLabel::E}) {
    const auto r = thermal::table2_range(label);
    ranges.add_row({dc::to_string(label),
                    util::fmt(r.ec_min * 100, 0) + "-" + util::fmt(r.ec_max * 100, 0) + "%",
                    util::fmt(r.rc_min * 100, 0) + "-" + util::fmt(r.rc_max * 100, 0) + "%"});
  }
  ranges.print(std::cout);

  std::printf("\nGenerating cross-interference coefficients for %zu nodes / "
              "%zu CRACs (Appendix B as a feasible circulation)...\n",
              nodes, cracs);

  const auto layout = dc::make_hot_cold_aisle_layout(nodes, cracs);
  std::vector<double> flows(cracs, 0.07 * static_cast<double>(nodes) /
                                       static_cast<double>(cracs));
  flows.insert(flows.end(), nodes, 0.07);

  util::Rng rng(12345);
  const auto alpha = thermal::generate_cross_interference(layout, flows, rng);
  if (!alpha) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const auto check = thermal::verify_cross_interference(*alpha, layout, flows);
  std::printf("verification: %s (row-sum err %.2e, flow-balance err %.2e, "
              "EC violation %.2e, RC violation %.2e)\n\n",
              check.ok ? "OK" : "FAILED", check.max_outflow_error,
              check.max_flow_balance_error, check.max_ec_violation,
              check.max_rc_violation);

  // Realized EC/RC statistics per label.
  util::RunningStats ec_stats[5], rc_stats[5];
  for (std::size_t j = 0; j < nodes; ++j) {
    const auto label = static_cast<std::size_t>(layout.nodes[j].label);
    double ec = 0.0;
    for (std::size_t c = 0; c < cracs; ++c) ec += (*alpha)(cracs + j, c);
    double rc_flow = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      rc_flow += (*alpha)(cracs + i, cracs + j) * flows[cracs + i];
    }
    ec_stats[label].add(ec * 100.0);
    rc_stats[label].add(rc_flow / flows[cracs + j] * 100.0);
  }
  util::Table realized({"label", "nodes", "EC mean% [min,max]", "RC mean% [min,max]"});
  for (std::size_t l = 0; l < 5; ++l) {
    if (ec_stats[l].count() == 0) continue;
    realized.add_row(
        {std::string(1, static_cast<char>('A' + l)),
         std::to_string(ec_stats[l].count()),
         util::fmt(ec_stats[l].mean(), 1) + " [" + util::fmt(ec_stats[l].min(), 1) +
             ", " + util::fmt(ec_stats[l].max(), 1) + "]",
         util::fmt(rc_stats[l].mean(), 1) + " [" + util::fmt(rc_stats[l].min(), 1) +
             ", " + util::fmt(rc_stats[l].max(), 1) + "]"});
  }
  realized.print(std::cout);
  std::printf("\nEvery realized EC/RC must fall inside its Table-II range; the\n"
              "verification line above checks this (and flow balance) exactly.\n");
  return check.ok ? 0 : 1;
}
