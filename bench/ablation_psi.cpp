// Ablation: sensitivity of the three-stage technique to psi (the "best
// psi%" of task types averaged into ARR_j).
//
// The paper evaluates psi = 25 and psi = 50 and observes that neither
// dominates (Section VII.B, third observation). This sweep extends the axis
// to psi in {12.5 .. 100} and reports the mean improvement over the
// baseline, showing the tradeoff: small psi builds ARR from only the most
// efficient task types (optimistic Stage 1, starved Stage 3), large psi
// dilutes ARR with poorly-matched types.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "core/baseline.h"
#include "scenario/generator.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t runs = bench::env_size("TAPO_RUNS", 8);
  const std::size_t nodes = bench::env_size("TAPO_NODES", 40);

  std::printf("=== Ablation: psi sweep (%zu runs, %zu nodes, set-3 config) "
              "===\n\n",
              runs, nodes);
  bench::print_config();

  const double psis[] = {12.5, 25.0, 37.5, 50.0, 75.0, 100.0};
  std::vector<util::RunningStats> improvement(std::size(psis));
  std::vector<util::RunningStats> stage1_gap(std::size(psis));

  for (std::size_t run = 0; run < runs; ++run) {
    scenario::ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_cracs = 2;
    config.static_fraction = 0.2;
    config.v_prop = 0.3;
    config.seed = 7000 + run;
    const auto scenario = scenario::generate_scenario(config);
    if (!scenario) continue;
    const thermal::HeatFlowModel model(scenario->dc);
    const core::BaselineAssigner base(scenario->dc, model);
    const core::Assignment b = base.assign();
    if (!b.feasible || b.reward_rate <= 0) continue;

    const core::ThreeStageAssigner three(scenario->dc, model);
    for (std::size_t p = 0; p < std::size(psis); ++p) {
      core::ThreeStageOptions options;
      options.stage1.psi = psis[p];
      const core::Assignment a = three.assign(options);
      if (!a.feasible) continue;
      improvement[p].add(100.0 * (a.reward_rate - b.reward_rate) / b.reward_rate);
      // How far Stage 3's realized reward lands from Stage 1's relaxed
      // objective (positive = Stage 1 over-promised).
      stage1_gap[p].add(100.0 * (a.stage1_objective - a.reward_rate) /
                        a.reward_rate);
    }
    std::fprintf(stderr, "  run %zu/%zu done\r", run + 1, runs);
  }
  std::fprintf(stderr, "\n");

  util::Table table({"psi (%)", "improvement over baseline (%)",
                     "stage1 objective vs stage3 reward (%)", "runs"});
  for (std::size_t p = 0; p < std::size(psis); ++p) {
    table.add_row({util::fmt(psis[p], 1),
                   util::fmt_ci(improvement[p].mean(),
                                improvement[p].ci_halfwidth(0.95)),
                   util::fmt_ci(stage1_gap[p].mean(),
                                stage1_gap[p].ci_halfwidth(0.95)),
                   std::to_string(improvement[p].count())});
  }
  table.print(std::cout);
  std::printf("\nPaper: psi=50 edged out psi=25 on average with heavily\n"
              "overlapping CIs, and individual instances flipped either way;\n"
              "the stage1-vs-stage3 gap explains why small psi over-promises\n"
              "(the best types' arrival rates cannot keep the cores busy).\n");
  return 0;
}
