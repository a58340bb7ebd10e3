// Section III.C extension: task-type-dependent core power.
//
// The paper's base model draws full P-state power regardless of what runs;
// measurements (its citation [23]) show I/O-intensive tasks draw less. When
// half the task types carry a cheaper power profile, the plain pipeline -
// which budgets every core at full pi - strands watts. This bench measures
// how much reward the iterative task-power pipeline (power-aware Stage 3 +
// virtual-budget reclaim) recovers, as a function of how cheap the cheap
// tasks are.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/stage3_power.h"
#include "scenario/generator.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 20);
  const std::size_t runs = bench::env_size("TAPO_RUNS", 5);
  std::printf("=== Extension: task-type-dependent core power (%zu nodes, %zu "
              "scenarios) ===\n\n",
              nodes, runs);
  bench::print_config();
  std::printf("Half the task types are 'I/O-like' with the given power "
              "factor; idle factor = cheapest task factor.\n\n");

  util::Table table({"I/O task power factor", "reclaimed reward (%)",
                     "power slack before reclaim (%)", "scenarios"});
  for (double cheap : {1.0, 0.85, 0.7, 0.55}) {
    util::RunningStats gain, slack;
    for (std::size_t run = 0; run < runs; ++run) {
      scenario::ScenarioConfig config;
      config.num_nodes = nodes;
      config.num_cracs = 2;
      config.seed = 90000 + run;
      auto scenario = scenario::generate_scenario(config);
      if (!scenario) continue;
      const thermal::HeatFlowModel model(scenario->dc);

      dc::TaskPowerFactors factors;
      factors.task_factor.assign(scenario->dc.num_task_types(), 1.0);
      for (std::size_t i = 0; i < scenario->dc.num_task_types(); i += 2) {
        factors.task_factor[i] = cheap;
      }
      factors.idle_factor = cheap;

      const core::TaskPowerAssigner assigner(scenario->dc, model, factors);
      core::TaskPowerOptions options;
      const core::TaskPowerResult result = assigner.assign(options);
      if (!result.feasible || result.first_iteration_reward <= 0) continue;
      gain.add(100.0 *
               (result.assignment.reward_rate - result.first_iteration_reward) /
               result.first_iteration_reward);

      // Slack of the conservative pipeline before reclaiming.
      const double budget = scenario->dc.p_const_kw;
      slack.add(100.0 * (budget - result.first_iteration_power_kw) / budget);
    }
    table.add_row({util::fmt(cheap, 2),
                   util::fmt_ci(gain.mean(), gain.ci_halfwidth(0.95)),
                   util::fmt_ci(slack.mean(), slack.ci_halfwidth(0.95)),
                   std::to_string(gain.count())});
    std::fprintf(stderr, "  factor %.2f done\n", cheap);
  }
  table.print(std::cout);
  std::printf("\nReading: at factor 1.0 the extension is a no-op (the base\n"
              "model); as the I/O tasks get cheaper, the conservative\n"
              "worst-case budget of stages 1-2 strands more power and the\n"
              "power-aware reclaim converts it into reward. The final\n"
              "expected power always respects Pconst and the redlines - the\n"
              "power-aware LP enforces them directly.\n");
  return 0;
}
