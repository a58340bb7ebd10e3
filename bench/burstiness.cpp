// Extension: sensitivity of the first-step plan to arrival burstiness.
//
// The paper's evaluation (and Eq. 16's sizing) assumes Poisson arrivals.
// Replaying MMPP traces with the same mean rates through the same assignment
// and scheduler measures how much of the predicted reward survives as the
// traffic becomes burstier - the capacity reserved by the LP cannot be
// banked through quiet phases to serve the bursts.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "scenario/generator.h"
#include "sim/trace.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 15);
  const std::size_t runs = bench::env_size("TAPO_RUNS", 5);
  const double horizon = 600.0, warmup = 100.0;
  std::printf("=== Extension: reward under bursty (MMPP) arrivals at equal "
              "offered load (%zu nodes, %zu scenarios, %.0f s) ===\n\n",
              nodes, runs, horizon);
  bench::print_config();

  const double multipliers[] = {1.0, 3.0, 6.0, 10.0};
  std::vector<util::RunningStats> reward(std::size(multipliers));
  std::vector<util::RunningStats> drops(std::size(multipliers));
  util::RunningStats poisson_reward;

  for (std::size_t run = 0; run < runs; ++run) {
    scenario::ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_cracs = 2;
    config.seed = 97000 + run;
    const auto scenario = scenario::generate_scenario(config);
    if (!scenario) continue;
    const thermal::HeatFlowModel model(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, model);
    const core::Assignment assignment = assigner.assign();
    if (!assignment.feasible) continue;

    sim::SimOptions options;
    options.duration_seconds = horizon;
    options.warmup_seconds = warmup;

    const auto poisson = sim::generate_poisson_trace(
        scenario->dc.task_types, horizon, util::Rng(run + 1)).value();
    const auto base =
        sim::simulate_trace(scenario->dc, assignment, poisson, options);
    poisson_reward.add(100.0 * base.reward_rate / assignment.reward_rate);

    for (std::size_t m = 0; m < std::size(multipliers); ++m) {
      sim::MmppConfig mmpp;
      mmpp.burst_multiplier = multipliers[m];
      const auto trace = sim::generate_mmpp_trace(
          scenario->dc.task_types, horizon, mmpp, util::Rng(run + 1)).value();
      const auto result =
          sim::simulate_trace(scenario->dc, assignment, trace, options);
      reward[m].add(100.0 * result.reward_rate / assignment.reward_rate);
      drops[m].add(100.0 * result.drop_fraction());
    }
    std::fprintf(stderr, "  run %zu/%zu done\r", run + 1, runs);
  }
  std::fprintf(stderr, "\n");

  util::Table table({"arrival process", "achieved reward (% of predicted)",
                     "drop %", "scenarios"});
  table.add_row({"Poisson (paper)",
                 util::fmt_ci(poisson_reward.mean(),
                              poisson_reward.ci_halfwidth(0.95)),
                 "-", std::to_string(poisson_reward.count())});
  for (std::size_t m = 0; m < std::size(multipliers); ++m) {
    table.add_row({"MMPP x" + util::fmt(multipliers[m], 0),
                   util::fmt_ci(reward[m].mean(), reward[m].ci_halfwidth(0.95)),
                   util::fmt_ci(drops[m].mean(), drops[m].ci_halfwidth(0.95)),
                   std::to_string(reward[m].count())});
  }
  table.print(std::cout);
  std::printf("\nReading: MMPP x1 degenerates to Poisson (sanity anchor);\n"
              "rising burst multipliers shave reward at identical mean load\n"
              "because the deadline-based admission cannot defer burst\n"
              "overflow into the quiet phases. This quantifies how far the\n"
              "paper's Poisson assumption flatters the steady-state plan.\n");
  return 0;
}
