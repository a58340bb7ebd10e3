// Ablation: the CRAC outlet-temperature search strategy.
//
// Section V.B.2 proposes a multi-step discretized search because the Stage-1
// problem is an LP only once the outlet temperatures are fixed. This bench
// compares (a) the cheap uniform-value + coordinate-descent strategy,
// (b) the full Cartesian coarse-to-fine grid, and (c) a fixed mid-range
// setpoint (no search), reporting reward and LP-solve counts.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "scenario/generator.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t runs = bench::env_size("TAPO_RUNS", 6);
  const std::size_t nodes = bench::env_size("TAPO_NODES", 40);
  std::printf("=== Ablation: CRAC setpoint search strategies (%zu runs, %zu "
              "nodes, 2 CRACs) ===\n\n",
              runs, nodes);
  bench::print_config();

  util::RunningStats reward_uc, reward_grid, reward_fixed;
  util::RunningStats solves_uc, solves_grid;

  for (std::size_t run = 0; run < runs; ++run) {
    scenario::ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_cracs = 2;
    config.seed = 8800 + run;
    const auto scenario = scenario::generate_scenario(config);
    if (!scenario) continue;
    const thermal::HeatFlowModel model(scenario->dc);
    const core::ThreeStageAssigner three(scenario->dc, model);

    core::ThreeStageOptions uc;
    const core::Assignment a_uc = three.assign(uc);

    core::ThreeStageOptions grid;
    grid.stage1.full_grid = true;
    grid.stage1.grid.coarse_samples = 5;
    grid.stage1.grid.refine_rounds = 2;
    const core::Assignment a_grid = three.assign(grid);

    // Fixed mid-range setpoint: emulate "no search" by collapsing the range.
    core::ThreeStageOptions fixed;
    fixed.stage1.tcrac_min_c = 17.0;
    fixed.stage1.tcrac_max_c = 17.0;
    const core::Assignment a_fixed = three.assign(fixed);

    if (!a_uc.feasible || !a_grid.feasible || !a_fixed.feasible) continue;
    reward_uc.add(a_uc.reward_rate);
    reward_grid.add(a_grid.reward_rate);
    reward_fixed.add(a_fixed.reward_rate);
    solves_uc.add(static_cast<double>(a_uc.lp_solves));
    solves_grid.add(static_cast<double>(a_grid.lp_solves));
    std::fprintf(stderr, "  run %zu/%zu done\r", run + 1, runs);
  }
  std::fprintf(stderr, "\n");

  util::Table table({"strategy", "mean reward rate", "mean LP solves"});
  table.add_row({"uniform + coordinate descent (default)",
                 util::fmt(reward_uc.mean(), 1), util::fmt(solves_uc.mean(), 0)});
  table.add_row({"full coarse-to-fine grid", util::fmt(reward_grid.mean(), 1),
                 util::fmt(solves_grid.mean(), 0)});
  table.add_row({"fixed 17 C setpoint (no search)",
                 util::fmt(reward_fixed.mean(), 1), "1"});
  table.print(std::cout);
  std::printf("\nReading: homogeneous CRACs keep the optimum near a shared\n"
              "setpoint, so the cheap strategy matches the full grid at a\n"
              "fraction of the LP solves; skipping the search entirely costs\n"
              "reward whenever 17 C is not the sweet spot.\n");
  return 0;
}
