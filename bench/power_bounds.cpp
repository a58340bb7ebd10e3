// Eq. 17/18 reproduction: the data-center power bounds Pmin / Pmax and the
// simulation budget Pconst = (Pmin + Pmax) / 2, for a few scenario seeds at
// paper scale.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "scenario/generator.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 150);
  const std::size_t cracs = bench::env_size("TAPO_CRACS", 3);
  const std::size_t runs = bench::env_size("TAPO_RUNS", 5);

  std::printf("=== Eq. 17/18: power bounds and the budget (%zu nodes, %zu "
              "CRACs) ===\n\n",
              nodes, cracs);
  bench::print_config();

  util::Table table({"seed", "Pmin (kW)", "Pmax (kW)", "Pconst (kW)",
                     "compute max (kW)", "CRAC share at Pmax (%)",
                     "Tout at Pmin (C)", "Tout at Pmax (C)"});
  for (std::size_t seed = 1; seed <= runs; ++seed) {
    scenario::ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_cracs = cracs;
    config.seed = seed;
    const auto scenario = scenario::generate_scenario(config);
    if (!scenario) {
      std::fprintf(stderr, "seed %zu failed\n", seed);
      continue;
    }
    const auto& b = scenario->bounds;
    const double compute_max = scenario->dc.max_compute_power_kw();
    auto fmt_temps = [](const std::vector<double>& temps) {
      std::string s;
      for (std::size_t i = 0; i < temps.size(); ++i) {
        if (i) s += "/";
        s += util::fmt(temps[i], 1);
      }
      return s;
    };
    table.add_row({std::to_string(seed), util::fmt(b.pmin_kw, 1),
                   util::fmt(b.pmax_kw, 1), util::fmt(scenario->dc.p_const_kw, 1),
                   util::fmt(compute_max, 1),
                   util::fmt(100.0 * (b.pmax_kw - compute_max) / b.pmax_kw, 1),
                   fmt_temps(b.crac_out_at_min), fmt_temps(b.crac_out_at_max)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: Pconst sits halfway between the idle floor and the all-P0\n"
      "ceiling, which oversubscribes the data center (the paper's premise).\n"
      "The CRAC share of Pmax shows the cooling overhead the EPA report\n"
      "motivates; the minimizer picks warmer setpoints at idle (better CoP)\n"
      "and colder ones at full load (redlines bind).\n");
  return 0;
}
