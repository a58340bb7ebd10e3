// Section V.C reproduction: the dynamic scheduler's tracking behaviour.
//
// Runs the online simulation on top of a three-stage assignment and reports,
// per task type, the desired steady-state rate (sum_k TC) against the
// realized completion rate, plus the ATC/TC tracking error - the scheduler's
// objective is to keep that ratio near 1 for every (type, core) pair.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/assigner.h"
#include "scenario/generator.h"
#include "sim/des.h"
#include "thermal/heatflow.h"
#include "util/table.h"

int main() {
  using namespace tapo;

  const std::size_t nodes = bench::env_size("TAPO_NODES", 15);
  // TAPO_TELEMETRY_OUT=<file>.json archives this harness's metrics in the
  // same JSON shape tapo_cli --telemetry-out emits.
  util::telemetry::Registry* const telemetry = bench::telemetry_sink();
  std::printf("=== Second-step dynamic scheduler: desired vs realized rates "
              "===\n\n");
  bench::print_config();

  scenario::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_cracs = 2;
  config.seed = 2222;
  const auto scenario = scenario::generate_scenario(config);
  if (!scenario) {
    std::fprintf(stderr, "scenario failed\n");
    return 1;
  }
  const auto& dc = scenario->dc;
  const thermal::HeatFlowModel model(dc);
  const core::ThreeStageAssigner assigner(dc, model);
  core::ThreeStageOptions assign_options;
  assign_options.stage1.telemetry = telemetry;
  const core::Assignment assignment = assigner.assign(assign_options);
  if (!assignment.feasible) {
    std::fprintf(stderr, "assignment infeasible\n");
    return 1;
  }

  sim::SimOptions options;
  options.duration_seconds = 600.0;
  options.warmup_seconds = 120.0;
  options.telemetry = telemetry;
  const sim::SimResult result = sim::simulate(dc, assignment, options);
  if (telemetry) {
    telemetry->gauge_set("bench.nodes", static_cast<double>(nodes));
    telemetry->gauge_set("bench.predicted_reward_rate", assignment.reward_rate);
  }

  util::Table table({"task type", "lambda/s", "desired rate/s",
                     "realized rate/s", "realized/desired", "drop %"});
  for (std::size_t i = 0; i < result.per_type.size(); ++i) {
    const auto& m = result.per_type[i];
    const double realized =
        static_cast<double>(m.completed_in_time) / result.measured_seconds;
    const double rel = m.desired_rate > 0 ? realized / m.desired_rate : 0.0;
    const double drop =
        m.arrived ? 100.0 * static_cast<double>(m.dropped) / m.arrived : 0.0;
    table.add_row({dc.task_types[i].name,
                   util::fmt(dc.task_types[i].arrival_rate, 2),
                   util::fmt(m.desired_rate, 2), util::fmt(realized, 2),
                   util::fmt(rel, 3), util::fmt(drop, 1)});
  }
  table.print(std::cout);

  std::printf("\npredicted steady-state reward rate: %.2f\n"
              "realized reward rate over %.0f s:   %.2f (%.1f%%)\n"
              "mean |ATC/TC - 1| at end of run:    %.4f\n",
              assignment.reward_rate, result.measured_seconds, result.reward_rate,
              100.0 * result.reward_rate / assignment.reward_rate,
              result.mean_tracking_error);
  std::printf("\nThe scheduler routes each arrival to the eligible core with\n"
              "the smallest ATC/TC (skipping cores already ahead of their\n"
              "desired rate) and drops tasks no core can finish in time.\n");
  bench::write_telemetry();
  return 0;
}
