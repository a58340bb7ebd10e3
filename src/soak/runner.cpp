#include "soak/runner.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/assigner.h"
#include "core/scheduler.h"
#include "sim/des.h"
#include "sim/faults.h"
#include "sim/trace.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"
#include "util/text.h"
#include "util/threadpool.h"

namespace tapo::soak {

namespace {

namespace fs = std::filesystem;
using util::text::json_number;
using util::text::json_string;

std::string hash_hex(std::uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Cache/artifact file stem: profile names are free-form, filenames are not.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '-' || c == '_' || c == '.';
    out += safe ? c : '_';
  }
  return out.empty() ? std::string("profile") : out;
}

std::string cache_stem(const scenario::ScenarioProfile& profile,
                       std::uint64_t hash) {
  return sanitize_name(profile.name) + "-" + hash_hex(hash);
}

// Everything deterministic about one scenario run, used to build the report.
struct RunRecord {
  bool planned = false;       // a plan was attempted (generation succeeded)
  bool feasible = false;      // the three-stage plan exists
  std::string reason;         // why not, when !feasible or sim failed
  double reward_rate = 0.0;   // predicted
  double achieved_reward_rate = 0.0;
  double drop_fraction = 0.0;
  double tracking_error = 0.0;
  double energy_kwh = 0.0;
  bool simulated = false;
  // Receding-horizon accounting (profiles with a `replan` section).
  bool replanned = false;
  std::size_t horizon_steps = 0;
  std::size_t horizon_adoptions = 0;
  std::size_t horizon_degraded = 0;
  std::size_t horizon_throttles = 0;
  std::vector<Anomaly> anomalies;
  bool pass = false;
};

std::string build_report_json(const scenario::ScenarioProfile& profile,
                              std::uint64_t hash, const RunRecord& record) {
  std::ostringstream os;
  os << "{\"schema\":\"tapo-soak-report-v1\"";
  os << ",\"name\":" << json_string(profile.name);
  os << ",\"hash\":\"" << hash_hex(hash) << "\"";
  os << ",\"expect\":\""
     << (profile.expect_infeasible ? "infeasible" : "feasible") << "\"";
  os << ",\"planned\":" << (record.planned ? "true" : "false");
  os << ",\"feasible\":" << (record.feasible ? "true" : "false");
  if (!record.reason.empty()) {
    os << ",\"reason\":" << json_string(record.reason);
  }
  if (record.feasible) {
    os << ",\"reward_rate\":" << json_number(record.reward_rate);
  }
  if (record.simulated) {
    os << ",\"achieved_reward_rate\":"
       << json_number(record.achieved_reward_rate);
    os << ",\"drop_fraction\":" << json_number(record.drop_fraction);
    os << ",\"tracking_error\":" << json_number(record.tracking_error);
    os << ",\"energy_kwh\":" << json_number(record.energy_kwh);
  }
  if (record.replanned) {
    os << ",\"replan\":{\"steps\":" << record.horizon_steps
       << ",\"adoptions\":" << record.horizon_adoptions
       << ",\"degraded\":" << record.horizon_degraded
       << ",\"throttles\":" << record.horizon_throttles << "}";
  }
  os << ",\"anomalies\":[";
  for (std::size_t i = 0; i < record.anomalies.size(); ++i) {
    const Anomaly& a = record.anomalies[i];
    if (i) os << ",";
    os << "{\"detector\":" << json_string(a.detector)
       << ",\"series\":" << json_string(a.series)
       << ",\"value\":" << json_number(a.value)
       << ",\"threshold\":" << json_number(a.threshold)
       << ",\"detail\":" << json_string(a.detail) << "}";
  }
  os << "]";
  os << ",\"pass\":" << (record.pass ? "true" : "false");
  os << "}";
  return os.str();
}

// Executes one profile end to end; pure in the profile (see runner.h).
RunRecord execute(const scenario::ScenarioProfile& profile,
                  const SoakOptions& options,
                  util::telemetry::Registry& registry) {
  RunRecord record;
  scenario::ScenarioConfig config = profile.to_config();
  std::optional<scenario::Scenario> generated =
      scenario::generate_scenario(config);
  if (!generated) {
    record.reason = "scenario generation found no feasible power bounds";
    record.pass = profile.expect_infeasible;
    return record;
  }
  dc::DataCenter& dc = generated->dc;
  if (profile.arrival.kind == scenario::ArrivalOverlay::Kind::kScale) {
    for (auto& task : dc.task_types) {
      task.arrival_rate *= profile.arrival.scale;
    }
  }

  const thermal::HeatFlowModel model(dc);
  core::ThreeStageOptions assign_options;
  assign_options.stage1.psi = profile.psi;
  // The suite is the parallel axis; Stage-1 results are thread-count
  // invariant, so pinning to 1 costs nothing in determinism and avoids
  // nested pools under the fleet runner.
  assign_options.stage1.threads = 1;
  assign_options.stage1.telemetry = &registry;
  const core::ThreeStageAssigner assigner(dc, model);
  const core::Assignment assignment = assigner.assign(assign_options);
  record.planned = true;
  record.feasible = assignment.feasible;
  if (!assignment.feasible) {
    record.reason = assignment.status.ok() ? "assignment infeasible"
                                           : assignment.status.to_string();
    record.pass = profile.expect_infeasible;
    return record;
  }
  if (profile.expect_infeasible) {
    record.reason = "profile expects infeasible, but a plan exists";
    record.reward_rate = assignment.reward_rate;
    record.pass = false;
    return record;
  }
  record.reward_rate = assignment.reward_rate;
  if (!options.run_sim) {
    record.pass = true;
    return record;
  }

  sim::SimOptions sim_options;
  sim_options.duration_seconds = profile.sim.duration_s;
  sim_options.warmup_seconds = profile.sim.warmup_s;
  sim_options.seed = profile.sim.seed;
  sim_options.scheduler.deadline_check = profile.deadline_check;
  switch (profile.policy) {
    case scenario::ScenarioProfile::Policy::kMinAtcTc:
      sim_options.scheduler.policy = core::SchedulerPolicy::MinAtcTcRatio;
      break;
    case scenario::ScenarioProfile::Policy::kEarliestFinish:
      sim_options.scheduler.policy = core::SchedulerPolicy::EarliestFinish;
      break;
    case scenario::ScenarioProfile::Policy::kRandom:
      sim_options.scheduler.policy = core::SchedulerPolicy::Random;
      break;
  }
  sim_options.telemetry = &registry;
  sim_options.telemetry_samples = profile.sim.samples;

  // Trace overlay: generated from the (scale-adjusted) task types with the
  // sim seed, so the same profile always drives the same demand curves. Owned
  // here — SimOptions::rate_trace is non-owning and must outlive the run.
  std::optional<sim::RateTrace> rate_trace;
  if (profile.trace.kind != scenario::TraceOverlay::Kind::kNone) {
    sim::RateTraceGenConfig trace_config;
    switch (profile.trace.kind) {
      case scenario::TraceOverlay::Kind::kNone:
        break;
      case scenario::TraceOverlay::Kind::kDiurnal:
        trace_config.kind = sim::RateTraceGenConfig::Kind::kDiurnal;
        trace_config.amplitude = profile.trace.amplitude;
        trace_config.segments = profile.trace.segments;
        break;
      case scenario::TraceOverlay::Kind::kFlash:
        trace_config.kind = sim::RateTraceGenConfig::Kind::kFlashCrowd;
        trace_config.start_s = profile.trace.start_s;
        trace_config.magnitude = profile.trace.magnitude;
        trace_config.duration_s = profile.trace.duration_s;
        break;
      case scenario::TraceOverlay::Kind::kBurst:
        trace_config.kind = sim::RateTraceGenConfig::Kind::kDecayingBurst;
        trace_config.start_s = profile.trace.start_s;
        trace_config.magnitude = profile.trace.magnitude;
        trace_config.duration_s = profile.trace.duration_s;
        trace_config.segments = profile.trace.segments;
        break;
    }
    trace_config.seed = profile.sim.seed;
    trace_config.horizon_s = profile.sim.duration_s;
    rate_trace = sim::generate_rate_trace(dc.task_types, trace_config);
    sim_options.rate_trace = &*rate_trace;
  }

  sim::SimResult sim_result;
  if (profile.faults || profile.replan) {
    // Fault storms and the rolling planner both run through the
    // fault-injected loop (a replan-only profile just gets an empty
    // schedule), so compound drift+fault scenarios exercise the full
    // generation-guarded adoption protocol.
    sim::FaultSchedule schedule;
    if (profile.faults) {
      const scenario::FaultStorm& storm = *profile.faults;
      sim::FaultInjectionConfig fault_config;
      fault_config.seed = storm.seed;
      fault_config.horizon_s = storm.horizon_s;
      fault_config.node_failures = storm.node_failures;
      fault_config.node_repair_after_s = storm.node_repair_after_s;
      fault_config.crac_derates = storm.crac_derates;
      fault_config.crac_capacity_fraction = storm.crac_capacity_fraction;
      fault_config.crac_repair_after_s = storm.crac_repair_after_s;
      fault_config.power_cap_fraction = storm.power_cap_fraction;
      schedule = sim::generate_fault_schedule(dc, fault_config);
    }
    sim::FaultSimOptions fault_options;
    fault_options.sim = sim_options;
    fault_options.recovery.assign.stage1.psi = profile.psi;
    fault_options.recovery.assign.stage1.threads = 1;
    fault_options.recovery.assign.stage1.telemetry = &registry;
    if (profile.replan) {
      core::ReplannerOptions replan;
      replan.cadence_s = profile.replan->cadence_s;
      replan.tracking_error_threshold = profile.replan->tracking_threshold;
      replan.max_lp_iterations =
          static_cast<std::size_t>(profile.replan->max_lp_iterations);
      replan.telemetry = &registry;
      fault_options.replan = replan;
    }
    const sim::FaultSimResult fault_result =
        sim::simulate_with_faults(dc, model, assignment, schedule, fault_options);
    if (!fault_result.status.ok()) {
      record.reason = fault_result.status.to_string();
      record.pass = false;
      return record;
    }
    record.replanned = profile.replan.has_value();
    record.horizon_steps = fault_result.horizon_steps;
    record.horizon_adoptions = fault_result.horizon_adoptions;
    record.horizon_degraded = fault_result.horizon_degraded;
    record.horizon_throttles = fault_result.horizon_throttles;
    sim_result = fault_result.sim;
  } else if (profile.arrival.kind == scenario::ArrivalOverlay::Kind::kMmpp) {
    sim::MmppConfig mmpp;
    mmpp.burst_multiplier = profile.arrival.burst_multiplier;
    mmpp.mean_phase_seconds = profile.arrival.mean_phase_s;
    mmpp.burst_duty = profile.arrival.burst_duty;
    const util::StatusOr<sim::Trace> trace =
        sim::generate_mmpp_trace(dc.task_types, profile.sim.duration_s, mmpp,
                                 util::Rng(profile.sim.seed + 1));
    if (!trace.ok()) {
      record.reason = trace.status().to_string();
      record.pass = false;
      return record;
    }
    sim_result = sim::simulate_trace(dc, assignment, *trace, sim_options);
  } else {
    sim_result = sim::simulate(dc, assignment, sim_options);
  }
  if (!sim_result.status.ok()) {
    record.reason = sim_result.status.to_string();
    record.pass = false;
    return record;
  }
  record.simulated = true;
  record.achieved_reward_rate = sim_result.reward_rate;
  record.drop_fraction = sim_result.drop_fraction();
  record.tracking_error = sim_result.mean_tracking_error;
  record.energy_kwh = sim_result.energy_kwh;
  record.anomalies = detect_anomalies(registry);
  record.pass = record.anomalies.empty();
  return record;
}

util::Status write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) return util::Status::Internal("cannot write '" + path + "'");
  os << text;
  if (!os) return util::Status::Internal("short write to '" + path + "'");
  return util::Status::Ok();
}

}  // namespace

ScenarioOutcome run_scenario(const scenario::ScenarioProfile& profile,
                             const SoakOptions& options) {
  ScenarioOutcome outcome;
  outcome.name = profile.name;
  outcome.hash = scenario::profile_hash(profile);

  util::telemetry::Registry registry;
  RunRecord record = execute(profile, options, registry);
  outcome.pass = record.pass;
  outcome.anomalies = std::move(record.anomalies);
  record.anomalies = outcome.anomalies;  // report builder reads them back
  outcome.report_json = build_report_json(profile, outcome.hash, record);

  if (!options.out_dir.empty()) {
    const std::string path = (fs::path(options.out_dir) /
                              (cache_stem(profile, outcome.hash) +
                               ".telemetry.json"))
                                 .string();
    std::ofstream os(path);
    if (os) registry.to_json(os);
  }
  return outcome;
}

SoakResult run_suite(const std::vector<scenario::ScenarioProfile>& profiles,
                     const SoakOptions& options) {
  SoakResult result;
  for (const std::string& dir : {options.out_dir, options.cache_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      result.status = util::Status::Internal("cannot create '" + dir +
                                             "': " + ec.message());
      return result;
    }
  }

  result.outcomes.resize(profiles.size());
  // Phase 1: serve cache hits (cheap, serial, deterministic).
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    ScenarioOutcome& outcome = result.outcomes[i];
    outcome.name = profiles[i].name;
    outcome.hash = scenario::profile_hash(profiles[i]);
    if (options.cache_dir.empty()) {
      misses.push_back(i);
      continue;
    }
    const std::string stem =
        (fs::path(options.cache_dir) / cache_stem(profiles[i], outcome.hash))
            .string();
    bool hit = false;
    for (const bool pass : {true, false}) {
      const std::string path = stem + (pass ? ".pass.json" : ".fail.json");
      std::ifstream is(path);
      if (!is) continue;
      std::ostringstream buffer;
      buffer << is.rdbuf();
      if (buffer.str().empty()) continue;  // torn write; re-run
      outcome.report_json = buffer.str();
      outcome.pass = pass;
      outcome.from_cache = true;
      hit = true;
      break;
    }
    if (!hit) misses.push_back(i);
  }

  // Phase 2: execute the misses in parallel, each into its own slot.
  if (!misses.empty()) {
    const std::size_t threads =
        options.threads == 0 ? util::ThreadPool::hardware_threads()
                             : options.threads;
    util::ThreadPool pool(std::min(threads, misses.size()));
    pool.parallel_for(misses.size(), [&](std::size_t task) {
      const std::size_t i = misses[task];
      result.outcomes[i] = run_scenario(profiles[i], options);
    });
    if (!options.cache_dir.empty()) {
      for (const std::size_t i : misses) {
        const ScenarioOutcome& outcome = result.outcomes[i];
        const std::string path =
            (fs::path(options.cache_dir) /
             (cache_stem(profiles[i], outcome.hash) +
              (outcome.pass ? ".pass.json" : ".fail.json")))
                .string();
        (void)write_text_file(path, outcome.report_json);
      }
    }
  }

  for (const ScenarioOutcome& outcome : result.outcomes) {
    if (outcome.from_cache) {
      ++result.cached;
    } else {
      ++result.executed;
    }
    if (!outcome.pass) ++result.failed;
  }
  return result;
}

void write_suite_report(const SoakResult& result, std::ostream& os) {
  os << "{\"schema\":\"tapo-soak-suite-v1\"";
  os << ",\"scenarios\":[";
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (i) os << ",";
    // Per-scenario reports are embedded verbatim (they are canonical JSON).
    os << result.outcomes[i].report_json;
  }
  os << "]";
  os << ",\"executed\":" << result.executed;
  os << ",\"cached\":" << result.cached;
  os << ",\"failed\":" << result.failed;
  os << ",\"pass\":" << (result.pass() ? "true" : "false");
  os << "}\n";
}

}  // namespace tapo::soak
