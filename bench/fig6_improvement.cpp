// Figure 6 reproduction - the paper's headline result.
//
// Three simulation sets of 25 independent data centers (150 nodes, 3 CRACs,
// 8 task types). For each data center the three-stage assignment runs with
// psi = 25 and psi = 50; the reported metric is the percentage improvement
// in total reward rate over the Eq. 21 baseline (P0-or-off), averaged per
// set with a 95% confidence interval - one bar group per set, three bars
// (psi=25, psi=50, best-of-both), exactly as in the paper's figure.
//
//   Set 1: static power 30%, Vprop = 0.1
//   Set 2: static power 30%, Vprop = 0.3
//   Set 3: static power 20%, Vprop = 0.3
//
// Paper reference: average improvements up to ~10%, ordered
// set1 < set2 < set3, with psi=50 slightly above psi=25 (overlapping CIs)
// and best-of-both on top.
//
// Scale down with TAPO_RUNS / TAPO_NODES for quick checks.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "core/baseline.h"
#include "scenario/generator.h"
#include "thermal/heatflow.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

struct SetConfig {
  const char* name;
  double static_fraction;
  double v_prop;
};

}  // namespace

int main() {
  using namespace tapo;

  const std::size_t runs = bench::env_size("TAPO_RUNS", 25);
  const std::size_t nodes = bench::env_size("TAPO_NODES", 150);
  const std::size_t cracs = bench::env_size("TAPO_CRACS", 3);

  const SetConfig sets[3] = {
      {"set 1: static 30%, Vprop 0.1", 0.30, 0.1},
      {"set 2: static 30%, Vprop 0.3", 0.30, 0.3},
      {"set 3: static 20%, Vprop 0.3", 0.20, 0.3},
  };

  std::printf("=== Figure 6: %% improvement of the three-stage assignment over "
              "the Eq. 21 baseline ===\n");
  std::printf("%zu runs per set, %zu nodes, %zu CRACs (paper: 25 x 150 x 3)\n\n",
              runs, nodes, cracs);
  bench::print_config();

  util::Table table({"configuration", "psi=25 (%)", "psi=50 (%)",
                     "best of both (%)", "runs"});

  for (std::size_t set = 0; set < 3; ++set) {
    util::RunningStats imp25, imp50, imp_best;
    for (std::size_t run = 0; run < runs; ++run) {
      scenario::ScenarioConfig config;
      config.num_nodes = nodes;
      config.num_cracs = cracs;
      config.static_fraction = sets[set].static_fraction;
      config.v_prop = sets[set].v_prop;
      config.seed = 1000 * (set + 1) + run;
      const auto scenario = scenario::generate_scenario(config);
      if (!scenario) {
        std::fprintf(stderr, "  [set %zu run %zu] scenario failed, skipped\n",
                     set + 1, run);
        continue;
      }
      const thermal::HeatFlowModel model(scenario->dc);

      core::ThreeStageOptions o25, o50;
      o25.stage1.psi = 25.0;
      o50.stage1.psi = 50.0;
      const core::ThreeStageAssigner three(scenario->dc, model);
      const core::Assignment a25 = three.assign(o25);
      const core::Assignment a50 = three.assign(o50);
      const core::BaselineAssigner base(scenario->dc, model);
      const core::Assignment b = base.assign();
      if (!a25.feasible || !a50.feasible || !b.feasible || b.reward_rate <= 0) {
        std::fprintf(stderr, "  [set %zu run %zu] infeasible, skipped\n",
                     set + 1, run);
        continue;
      }
      const double best =
          std::max(a25.reward_rate, a50.reward_rate);
      imp25.add(100.0 * (a25.reward_rate - b.reward_rate) / b.reward_rate);
      imp50.add(100.0 * (a50.reward_rate - b.reward_rate) / b.reward_rate);
      imp_best.add(100.0 * (best - b.reward_rate) / b.reward_rate);
      std::fprintf(stderr, "  [set %zu run %zu/%zu] done\r", set + 1, run + 1,
                   runs);
    }
    std::fprintf(stderr, "\n");
    table.add_row({sets[set].name,
                   util::fmt_ci(imp25.mean(), imp25.ci_halfwidth(0.95)),
                   util::fmt_ci(imp50.mean(), imp50.ci_halfwidth(0.95)),
                   util::fmt_ci(imp_best.mean(), imp_best.ci_halfwidth(0.95)),
                   std::to_string(imp25.count())});
  }

  table.print(std::cout);
  std::printf(
      "\nPaper (Fig. 6): improvements up to ~10%% on average; ordering\n"
      "set1 < set2 < set3; psi=50 slightly above psi=25 with overlapping\n"
      "95%% CIs; best-of-both highest. Expect the same shape here.\n");
  return 0;
}
