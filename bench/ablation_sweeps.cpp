// Ablation sweeps over the generator parameters the paper calls out in
// Section VIII as future work: the static power fraction and the
// frequency-proportionality noise Vprop. Each cell reports the mean
// improvement of best-of-psi three-stage over the baseline.
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

double mean_improvement(std::size_t runs, std::size_t nodes,
                        double static_fraction, double v_prop,
                        std::uint64_t seed_base, double* ci_out) {
  using namespace tapo;
  util::RunningStats stats;
  for (std::size_t run = 0; run < runs; ++run) {
    scenario::ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_cracs = 2;
    config.static_fraction = static_fraction;
    config.v_prop = v_prop;
    config.seed = seed_base + run;
    const auto scenario = scenario::generate_scenario(config);
    if (!scenario) continue;
    const thermal::HeatFlowModel model(scenario->dc);
    core::ThreeStageOptions o25, o50;
    o25.stage1.psi = 25.0;
    o50.stage1.psi = 50.0;
    const core::ThreeStageAssigner three(scenario->dc, model);
    const auto best = core::best_of({three.assign(o25), three.assign(o50)});
    const core::BaselineAssigner base(scenario->dc, model);
    const auto b = base.assign();
    if (!best.feasible || !b.feasible || b.reward_rate <= 0) continue;
    stats.add(100.0 * (best.reward_rate - b.reward_rate) / b.reward_rate);
  }
  *ci_out = stats.ci_halfwidth(0.95);
  return stats.mean();
}

}  // namespace

int main() {
  using namespace tapo;

  const std::size_t runs = bench::env_size("TAPO_RUNS", 6);
  const std::size_t nodes = bench::env_size("TAPO_NODES", 40);
  std::printf("=== Ablation: static-fraction x Vprop sweep (%zu runs per "
              "cell, %zu nodes) ===\n\n",
              runs, nodes);
  bench::print_config();
  std::printf("cells: mean %% improvement (best-of-psi) over baseline, 95%% CI\n\n");

  const double fractions[] = {0.1, 0.2, 0.3, 0.4};
  const double vprops[] = {0.1, 0.3};

  util::Table table({"static fraction", "Vprop=0.1", "Vprop=0.3"});
  std::uint64_t seed_base = 40000;
  for (double sf : fractions) {
    std::vector<std::string> row{util::fmt(sf * 100, 0) + "%"};
    for (double vp : vprops) {
      double ci = 0.0;
      const double mean = mean_improvement(runs, nodes, sf, vp, seed_base, &ci);
      row.push_back(util::fmt_ci(mean, ci));
      seed_base += 1000;
      std::fprintf(stderr, "  cell sf=%.1f vp=%.1f done\n", sf, vp);
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::printf(
      "\nExpected monotonicity (paper's observations 1-2): improvement grows\n"
      "as the static fraction shrinks (intermediate P-states become more\n"
      "efficient relative to P0) and as Vprop grows (stronger P-state /\n"
      "task-type affinity for Stage 3 to exploit).\n");
  return 0;
}
