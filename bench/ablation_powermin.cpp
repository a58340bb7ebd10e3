// Section VIII (future work) realized: minimize total power subject to a
// reward-rate floor, the dual of the paper's main problem. The sweep traces
// the power/performance frontier: what fraction of the power-constrained
// optimum's reward costs what fraction of its power.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "core/powermin.h"
#include "scenario/generator.h"
#include "thermal/heatflow.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 30);
  std::printf("=== Extension: power minimization under a reward-rate floor "
              "(%zu nodes) ===\n\n",
              nodes);
  bench::print_config();

  scenario::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_cracs = 2;
  config.seed = 9911;
  const auto scenario = scenario::generate_scenario(config);
  if (!scenario) {
    std::fprintf(stderr, "scenario failed\n");
    return 1;
  }
  const auto& dc = scenario->dc;
  const thermal::HeatFlowModel model(dc);

  const core::ThreeStageAssigner assigner(dc, model);
  const core::Assignment reference = assigner.assign();
  if (!reference.feasible) {
    std::fprintf(stderr, "reference assignment infeasible\n");
    return 1;
  }
  std::printf("reference (budget %.1f kW): reward %.1f at %.1f kW total\n\n",
              dc.p_const_kw, reference.reward_rate, reference.total_power_kw());

  util::Table table({"reward floor (% of ref)", "target reward/s",
                     "achieved reward/s", "total power (kW)",
                     "power vs ref (%)", "met", "attempts"});
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
    const double target = fraction * reference.reward_rate;
    const auto result = core::minimize_power_for_reward(dc, model, target);
    if (!result.feasible) {
      table.add_row({util::fmt(fraction * 100, 0), util::fmt(target, 1),
                     "infeasible", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({util::fmt(fraction * 100, 0), util::fmt(target, 1),
                   util::fmt(result.reward_rate, 1),
                   util::fmt(result.total_power_kw, 1),
                   util::fmt(100.0 * result.total_power_kw /
                                 reference.total_power_kw(), 1),
                   result.met_target ? "yes" : "no",
                   std::to_string(result.attempts)});
  }
  table.print(std::cout);
  std::printf("\nReading: the frontier is concave - the first half of the\n"
              "reward is cheap (efficient P-states on the best task types),\n"
              "the last 10-20%% is disproportionately expensive, which is why\n"
              "power-capped operation (the paper's setting) loses so little.\n");
  return 0;
}
