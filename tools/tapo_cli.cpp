// tapo command-line driver.
//
// Generates a Section-VI scenario from a seed and runs the requested stage
// of the pipeline against it:
//
//   tapo_cli bounds   [--nodes --cracs --seed ...]   Pmin/Pmax/Pconst
//   tapo_cli assign   [... --psi --technique]        first-step assignment
//   tapo_cli simulate [... --duration]               assignment + online DES
//   tapo_cli powermin [... --target-fraction]        power-min extension
//   tapo_cli sweep    [... --points]                 reward vs budget sweep
//
// simulate additionally accepts --faults <file> (a "tapo-faults v1"
// schedule, see docs/RESILIENCE.md): faults are injected mid-run and the
// two-phase recovery controller re-plans online. --rate-trace <file> drives
// time-varying arrivals from a "tapo-traces v1" curve, and
// --replan-cadence <s> (with --replan-threshold) turns on the
// receding-horizon re-planner that tracks the drift (core/replanner.h).
//
// --csv switches the tabular output to CSV for downstream plotting.
// --telemetry-out <file>.json archives the run's metrics registry (schema
// "tapo-telemetry-v1", catalog in docs/OBSERVABILITY.md) after the
// subcommand finishes.
//
// Exit codes: 0 success, 1 infeasible/unsolvable instance, 2 bad input
// (malformed scenario, trace or fault file, a malformed or out-of-range
// option, unknown flags).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>

#include "core/assigner.h"
#include "core/baseline.h"
#include "core/powermin.h"
#include "scenario/generator.h"
#include "scenario/io.h"
#include "scenario/profile.h"
#include "sim/des.h"
#include "sim/trace.h"
#include "thermal/heatflow.h"
#include "util/args.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace {

using namespace tapo;

// Set by main when --telemetry-out is given; null disables recording.
util::telemetry::Registry* g_telemetry = nullptr;

void print_table(const util::Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

std::optional<scenario::Scenario> make_scenario(const util::ArgParser& args) {
  std::optional<scenario::Scenario> scenario;
  if (const std::string& path = args.option("load"); !path.empty()) {
    // An archived instance: the data center is complete; bounds stay unset
    // except for subcommands that recompute them.
    util::StatusOr<dc::DataCenter> loaded =
        scenario::load_data_center_file(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return std::nullopt;
    }
    scenario.emplace();
    scenario->dc = std::move(*loaded);
    const thermal::HeatFlowModel model(scenario->dc);
    scenario->bounds = thermal::compute_power_bounds(scenario->dc, model);
  } else {
    // The generator inputs pass the ranges a scenario profile enforces, so
    // a count like --nodes=-5 is bad input rather than a huge size_t.
    scenario::ScenarioProfile profile;
    profile.name = "tapo_cli";
    profile.nodes = static_cast<std::size_t>(args.option_int("nodes"));
    profile.cracs = static_cast<std::size_t>(args.option_int("cracs"));
    profile.task_types = static_cast<std::size_t>(args.option_int("task-types"));
    profile.static_fraction = args.option_double("static-fraction");
    profile.v_prop = args.option_double("vprop");
    profile.pconst_factor = args.option_double("pconst-factor");
    profile.seed = static_cast<std::uint64_t>(args.option_int("seed"));
    if (const util::Status s = profile.validate(); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
      return std::nullopt;
    }
    scenario = scenario::generate_scenario(profile.to_config());
    if (!scenario) std::fprintf(stderr, "error: scenario generation failed\n");
  }
  if (scenario) {
    if (const std::string& path = args.option("save"); !path.empty()) {
      if (!scenario::save_data_center_file(scenario->dc, path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
        return std::nullopt;
      }
      std::fprintf(stderr, "saved data center to %s\n", path.c_str());
    }
  }
  return scenario;
}

// Range checks for options the library would abort on (--psi, --points) or
// accept without a word (--target-fraction). Subcommands run them before any
// scenario work, so a bad value exits 2 with an error line.
bool option_rejected(const util::ArgParser& args, const char* name, bool ok,
                     const char* range) {
  if (!ok) {
    std::fprintf(stderr, "error: --%s must be %s, got %s\n", name, range,
                 args.option(name).c_str());
  }
  return !ok;
}

bool psi_rejected(const util::ArgParser& args) {
  const double psi = args.option_double("psi");
  return option_rejected(args, "psi", psi > 0.0 && psi <= 100.0, "in (0, 100]");
}

core::Assignment run_technique(const dc::DataCenter& dc,
                               const thermal::HeatFlowModel& model,
                               const std::string& technique, double psi) {
  if (technique == "baseline") {
    core::BaselineOptions options;
    options.lp.telemetry = g_telemetry;
    return core::BaselineAssigner(dc, model).assign(options);
  }
  core::ThreeStageOptions options;
  options.stage1.psi = psi;
  options.stage1.telemetry = g_telemetry;
  if (technique == "three-stage") {
    return core::ThreeStageAssigner(dc, model).assign(options);
  }
  if (technique == "best") {
    core::ThreeStageOptions o25 = options, o50 = options;
    o25.stage1.psi = 25.0;
    o50.stage1.psi = 50.0;
    const core::ThreeStageAssigner assigner(dc, model);
    return core::best_of({assigner.assign(o25), assigner.assign(o50)});
  }
  std::fprintf(stderr, "error: unknown --technique '%s' (three-stage, baseline, best)\n",
               technique.c_str());
  return {};
}

int cmd_bounds(const util::ArgParser& args) {
  const auto scenario = make_scenario(args);
  if (!scenario) return 2;
  util::Table table({"Pmin (kW)", "Pmax (kW)", "Pconst (kW)", "nodes", "cores"});
  table.add_row({util::fmt(scenario->bounds.pmin_kw, 2),
                 util::fmt(scenario->bounds.pmax_kw, 2),
                 util::fmt(scenario->dc.p_const_kw, 2),
                 std::to_string(scenario->dc.num_nodes()),
                 std::to_string(scenario->dc.total_cores())});
  print_table(table, args.flag("csv"));
  return 0;
}

int cmd_assign(const util::ArgParser& args) {
  if (psi_rejected(args)) return 2;
  const auto scenario = make_scenario(args);
  if (!scenario) return 2;
  const thermal::HeatFlowModel model(scenario->dc);
  const core::Assignment a = run_technique(scenario->dc, model,
                                           args.option("technique"),
                                           args.option_double("psi"));
  if (!a.feasible) {
    std::fprintf(stderr, "error: assignment infeasible\n");
    return 1;
  }
  const auto check = core::verify_assignment(scenario->dc, model, a);
  util::Table table({"technique", "reward rate", "total kW", "budget kW",
                     "max node inlet C", "constraints"});
  table.add_row({a.technique, util::fmt(a.reward_rate, 3),
                 util::fmt(a.total_power_kw(), 2),
                 util::fmt(scenario->dc.p_const_kw, 2),
                 util::fmt(check.max_node_inlet_c, 2),
                 check.ok() ? "OK" : "VIOLATED"});
  print_table(table, args.flag("csv"));

  if (args.flag("pstates")) {
    util::Table detail({"node", "type", "P0", "P1", "P2", "P3", "off",
                        "power kW", "inlet C"});
    const auto node_power = scenario->dc.node_power_from_pstates(a.core_pstate);
    for (std::size_t j = 0; j < scenario->dc.num_nodes(); ++j) {
      const auto& spec = scenario->dc.node_type(j);
      std::vector<std::size_t> hist(spec.off_state() + 1, 0);
      for (std::size_t c = 0; c < spec.cores_per_node(); ++c) {
        ++hist[a.core_pstate[scenario->dc.core_offset(j) + c]];
      }
      detail.add_row({std::to_string(j), spec.name().substr(0, 3),
                      std::to_string(hist[0]), std::to_string(hist[1]),
                      std::to_string(hist[2]), std::to_string(hist[3]),
                      std::to_string(hist[4]), util::fmt(node_power[j], 3),
                      util::fmt(a.temps.node_in[j], 2)});
    }
    print_table(detail, args.flag("csv"));
  }
  return 0;
}

int cmd_simulate(const util::ArgParser& args) {
  if (psi_rejected(args)) return 2;
  auto scenario = make_scenario(args);  // non-const: fault runs mutate the dc
  if (!scenario) return 2;
  const thermal::HeatFlowModel model(scenario->dc);
  const core::Assignment a = run_technique(scenario->dc, model,
                                           args.option("technique"),
                                           args.option_double("psi"));
  if (!a.feasible) {
    std::fprintf(stderr, "error: assignment infeasible\n");
    return 1;
  }
  sim::SimOptions options;
  options.duration_seconds = args.option_double("duration");
  options.warmup_seconds = options.duration_seconds * 0.1;
  options.seed = static_cast<std::uint64_t>(args.option_int("seed")) + 1;
  options.telemetry = g_telemetry;

  // Optional time-varying arrivals ("tapo-traces v1"); must outlive the run.
  std::optional<sim::RateTrace> rate_trace;
  if (const std::string& trace_path = args.option("rate-trace");
      !trace_path.empty()) {
    util::StatusOr<sim::RateTrace> loaded =
        sim::load_rate_trace_file(trace_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 2;
    }
    rate_trace = std::move(*loaded);
    options.rate_trace = &*rate_trace;
  }

  const std::string& faults_path = args.option("faults");
  const double replan_cadence = args.option_double("replan-cadence");
  if (!faults_path.empty() || replan_cadence > 0.0) {
    sim::FaultSchedule schedule;
    if (!faults_path.empty()) {
      util::StatusOr<sim::FaultSchedule> loaded =
          sim::load_fault_schedule_file(faults_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.status().to_string().c_str());
        return 2;
      }
      schedule = std::move(*loaded);
    }
    sim::FaultSimOptions fault_options;
    fault_options.sim = options;
    fault_options.recovery.assign.stage1.telemetry = g_telemetry;
    fault_options.recovery.replan_delay_s = args.option_double("replan-delay");
    if (replan_cadence > 0.0) {
      core::ReplannerOptions replan;
      replan.cadence_s = replan_cadence;
      replan.tracking_error_threshold = args.option_double("replan-threshold");
      replan.telemetry = g_telemetry;
      fault_options.replan = replan;
    }
    const sim::FaultSimResult result = sim::simulate_with_faults(
        scenario->dc, model, a, schedule, fault_options);
    if (!result.status.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status.to_string().c_str());
      return 2;
    }
    util::Table table({"faults", "replans adopted", "horizon steps",
                       "horizon adoptions", "predicted reward/s",
                       "achieved reward/s", "drop %", "energy kWh"});
    table.add_row({std::to_string(result.faults.size()),
                   std::to_string(result.replans_adopted),
                   std::to_string(result.horizon_steps),
                   std::to_string(result.horizon_adoptions),
                   util::fmt(a.reward_rate, 3),
                   util::fmt(result.sim.reward_rate, 3),
                   util::fmt(100.0 * result.sim.drop_fraction(), 1),
                   util::fmt(result.sim.energy_kwh, 3)});
    print_table(table, args.flag("csv"));
    util::Table detail({"time s", "fault", "safe", "replanned",
                        "throttle reward/s", "replan reward/s", "killed"});
    for (const sim::FaultRecord& r : result.faults) {
      detail.add_row({util::fmt(r.event.time_s, 1),
                      sim::fault_kind_name(r.event.kind),
                      r.safe ? "yes" : "NO", r.replan_adopted ? "yes" : "no",
                      util::fmt(r.throttle_reward_rate, 3),
                      util::fmt(r.replan_reward_rate, 3),
                      std::to_string(r.tasks_killed)});
    }
    print_table(detail, args.flag("csv"));
    return 0;
  }

  const sim::SimResult result = sim::simulate(scenario->dc, a, options);
  if (!result.status.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status.to_string().c_str());
    return 2;
  }
  util::Table table({"predicted reward/s", "achieved reward/s", "ratio",
                     "drop %", "tracking error"});
  table.add_row({util::fmt(a.reward_rate, 3), util::fmt(result.reward_rate, 3),
                 util::fmt(result.reward_rate / a.reward_rate, 3),
                 util::fmt(100.0 * result.drop_fraction(), 1),
                 util::fmt(result.mean_tracking_error, 4)});
  print_table(table, args.flag("csv"));
  return 0;
}

int cmd_powermin(const util::ArgParser& args) {
  if (option_rejected(args, "target-fraction",
                      args.option_double("target-fraction") >= 0.0,
                      "non-negative")) {
    return 2;
  }
  const auto scenario = make_scenario(args);
  if (!scenario) return 2;
  const thermal::HeatFlowModel model(scenario->dc);
  const core::ThreeStageAssigner assigner(scenario->dc, model);
  core::ThreeStageOptions reference_options;
  reference_options.stage1.telemetry = g_telemetry;
  const core::Assignment reference = assigner.assign(reference_options);
  if (!reference.feasible) {
    std::fprintf(stderr, "error: reference assignment infeasible\n");
    return 1;
  }
  const double target =
      args.option_double("target-fraction") * reference.reward_rate;
  core::PowerMinOptions pm_options;
  pm_options.stage1.telemetry = g_telemetry;
  const auto result =
      core::minimize_power_for_reward(scenario->dc, model, target, pm_options);
  if (!result.feasible) {
    std::fprintf(stderr, "error: target unreachable\n");
    return 1;
  }
  util::Table table({"target reward/s", "achieved reward/s", "total kW",
                     "reference kW", "met"});
  table.add_row({util::fmt(target, 3), util::fmt(result.reward_rate, 3),
                 util::fmt(result.total_power_kw, 2),
                 util::fmt(reference.total_power_kw(), 2),
                 result.met_target ? "yes" : "no"});
  print_table(table, args.flag("csv"));
  return 0;
}

int cmd_trace(const util::ArgParser& args) {
  if (psi_rejected(args)) return 2;
  const double horizon = args.option_double("duration");
  if (option_rejected(args, "duration", std::isfinite(horizon) && horizon > 0.0,
                      "positive and finite")) {
    return 2;
  }
  const auto scenario = make_scenario(args);
  if (!scenario) return 2;
  const auto seed = static_cast<std::uint64_t>(args.option_int("seed"));

  util::StatusOr<sim::Trace> made = sim::Trace{};
  if (const std::string& path = args.option("trace-in"); !path.empty()) {
    made = sim::load_trace_csv(path, scenario->dc.num_task_types());
  } else if (args.option_double("burst-multiplier") > 1.0) {
    sim::MmppConfig config;
    config.burst_multiplier = args.option_double("burst-multiplier");
    made = sim::generate_mmpp_trace(scenario->dc.task_types, horizon, config,
                                    util::Rng(seed + 2));
  } else {
    made = sim::generate_poisson_trace(scenario->dc.task_types, horizon,
                                       util::Rng(seed + 2));
  }
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    return 2;
  }
  const sim::Trace& trace = *made;
  if (const std::string& path = args.option("trace-out"); !path.empty()) {
    if (!sim::save_trace_csv(trace, path)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "saved %zu arrivals to %s\n", trace.size(), path.c_str());
  }

  const thermal::HeatFlowModel model(scenario->dc);
  const core::Assignment a = run_technique(scenario->dc, model,
                                           args.option("technique"),
                                           args.option_double("psi"));
  if (!a.feasible) {
    std::fprintf(stderr, "error: assignment infeasible\n");
    return 1;
  }
  sim::SimOptions options;
  options.duration_seconds = horizon;
  options.warmup_seconds = horizon * 0.1;
  options.telemetry = g_telemetry;
  const sim::SimResult result =
      sim::simulate_trace(scenario->dc, a, trace, options);
  if (!result.status.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status.to_string().c_str());
    return 2;
  }
  util::Table table({"arrivals", "predicted reward/s", "achieved reward/s",
                     "ratio", "drop %"});
  table.add_row({std::to_string(trace.size()), util::fmt(a.reward_rate, 3),
                 util::fmt(result.reward_rate, 3),
                 util::fmt(result.reward_rate / a.reward_rate, 3),
                 util::fmt(100.0 * result.drop_fraction(), 1)});
  print_table(table, args.flag("csv"));
  return 0;
}

int cmd_sweep(const util::ArgParser& args) {
  // The sweep spaces its points from 0.15 to 0.9 of the budget range, so it
  // needs both ends.
  if (option_rejected(args, "points", args.option_int("points") >= 2,
                      "at least 2")) {
    return 2;
  }
  const auto points = static_cast<std::size_t>(args.option_int("points"));
  auto scenario = make_scenario(args);
  if (!scenario) return 2;
  const thermal::HeatFlowModel model(scenario->dc);
  util::Table table({"budget factor", "Pconst kW", "three-stage", "baseline",
                     "improvement %"});
  for (std::size_t p = 0; p < points; ++p) {
    const double factor =
        0.15 + 0.75 * static_cast<double>(p) / static_cast<double>(points - 1);
    scenario->dc.p_const_kw =
        thermal::pconst_from_bounds(scenario->bounds, factor);
    const core::Assignment a =
        run_technique(scenario->dc, model, "best", 50.0);
    const core::Assignment b =
        run_technique(scenario->dc, model, "baseline", 50.0);
    if (!a.feasible || !b.feasible) continue;
    table.add_row({util::fmt(factor, 3), util::fmt(scenario->dc.p_const_kw, 1),
                   util::fmt(a.reward_rate, 2), util::fmt(b.reward_rate, 2),
                   util::fmt(100.0 * (a.reward_rate - b.reward_rate) /
                                 b.reward_rate, 2)});
  }
  print_table(table, args.flag("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "tapo_cli",
      "thermal-aware data-center assignment driver (IPDPSW'12 reproduction); "
      "subcommands: bounds | assign | simulate | powermin | sweep | trace");
  args.add_option("nodes", "number of compute nodes", "40");
  args.add_option("cracs", "number of CRAC units", "2");
  args.add_option("task-types", "number of task types", "8");
  args.add_option("seed", "scenario seed", "1");
  args.add_option("static-fraction", "P-state-0 static power share", "0.3");
  args.add_option("vprop", "ECS frequency-proportionality noise", "0.1");
  args.add_option("pconst-factor", "budget position between Pmin and Pmax", "0.5");
  args.add_option("technique", "three-stage | baseline | best", "three-stage");
  args.add_option("psi", "best-psi-percent of task types for ARR", "50");
  args.add_option("duration", "simulated seconds (simulate)", "120");
  args.add_option("faults", "inject this tapo-faults v1 schedule (simulate)", "");
  args.add_option("replan-delay",
                  "seconds between a fault and re-plan adoption (simulate)", "10");
  args.add_option("rate-trace",
                  "drive arrivals from this tapo-traces v1 file (simulate)", "");
  args.add_option("replan-cadence",
                  "receding-horizon re-plan period in seconds; 0 = off "
                  "(simulate)", "0");
  args.add_option("replan-threshold",
                  "tracking-error trigger for early re-plans; 0 disables "
                  "(simulate)", "0.5");
  args.add_option("target-fraction", "reward floor vs reference (powermin)", "0.8");
  args.add_option("points", "sweep points (sweep)", "6");
  args.add_option("save", "archive the generated data center to this file", "");
  args.add_option("load", "load an archived data center instead of generating", "");
  args.add_option("trace-in", "replay this arrival trace CSV (trace)", "");
  args.add_option("trace-out", "save the generated arrival trace CSV (trace)", "");
  args.add_option("burst-multiplier", "MMPP burst multiplier; 1 = Poisson (trace)", "1");
  args.add_option("telemetry-out",
                  "write the run's metrics registry to this JSON file", "");
  args.add_flag("csv", "emit CSV instead of aligned tables");
  args.add_flag("pstates", "also print the per-node P-state histogram (assign)");

  if (!args.parse(argc, argv)) {
    if (!args.error().empty()) std::fprintf(stderr, "error: %s\n", args.error().c_str());
    std::fputs(args.usage().c_str(), args.help_requested() ? stdout : stderr);
    return args.help_requested() ? 0 : 2;
  }
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "error: expected exactly one subcommand\n%s",
                 args.usage().c_str());
    return 2;
  }
  const std::string& command = args.positional()[0];
  util::telemetry::Registry registry;
  const std::string& telemetry_path = args.option("telemetry-out");
  if (!telemetry_path.empty()) g_telemetry = &registry;

  int status = 2;
  bool known = true;
  {
    // The cli.<command> timer wraps the whole subcommand (scenario
    // generation included), so stage timers can be read as fractions of it.
    // ScopedTimer keeps only a view of the name, so it must outlive it.
    const std::string timer_name = "cli." + command;
    const util::telemetry::ScopedTimer timer(g_telemetry, timer_name);
    if (command == "bounds") status = cmd_bounds(args);
    else if (command == "assign") status = cmd_assign(args);
    else if (command == "simulate") status = cmd_simulate(args);
    else if (command == "powermin") status = cmd_powermin(args);
    else if (command == "sweep") status = cmd_sweep(args);
    else if (command == "trace") status = cmd_trace(args);
    else known = false;
  }
  if (!known) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", command.c_str());
    return 2;
  }
  if (g_telemetry) {
    std::ofstream out(telemetry_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", telemetry_path.c_str());
      return 1;
    }
    registry.to_json(out);
    std::fprintf(stderr, "wrote telemetry to %s\n", telemetry_path.c_str());
  }
  return status;
}
