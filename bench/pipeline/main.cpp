// bench_pipeline: the end-to-end benchmark of the tapo pipeline.
//
// It drives the library only through public calls — scenario generation,
// the HeatFlowModel constructor, the three-stage and baseline assigners,
// verify_assignment, the DES (plain and fault-injected), the recovery
// controller and the rolling planner — and times whole operations a user
// runs. Each workload runs in its own process as one closed loop with one
// caller: the next operation starts when the previous one returns.
//
// Two kinds of run:
//   --trace 0  end-to-end metrics, telemetry off. Operations repeat until
//              --seconds have passed (and at least the checked operations
//              have run). Bench-side spans stay on, so the run also prints
//              the median latency of each public call its operations make.
//   --trace 1  per-layer metrics. The checked operations run once untraced
//              and once with a telemetry Registry attached to every options
//              struct that takes one, plus bench-side spans around every
//              public call; then three traced-only probes. Spans and the
//              registry are written out as Chrome-trace and telemetry JSON.
//
// Every run re-verifies each published plan with verify_assignment and folds
// the checked operations' plans into an FNV-1a digest, compared with the
// digests committed next to this file (digests.txt; the build fixes its path
// in TAPO_BENCH_DIGESTS). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md has the workload rationale and the metric catalog.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/assigner.h"
#include "core/baseline.h"
#include "core/recovery.h"
#include "core/replanner.h"
#include "core/stage1.h"
#include "scenario/generator.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "sim/faults.h"
#include "thermal/bounds.h"
#include "thermal/crossinterference.h"
#include "thermal/heatflow.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/telemetry.h"

namespace {

using namespace tapo;
using Clock = std::chrono::steady_clock;
using util::telemetry::Registry;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : util::percentile(values, 50.0);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Independent seed for (stream, index) under the run seed, so every input of
// a workload is a pure function of --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return util::Rng(seed).fork(stream).fork(index).next_u64();
}

enum SeedStream : std::uint64_t {
  kScenario = 1,
  kSim = 2,
  kDrift = 3,
  kFaults = 4,
  kTrace = 5,
};

// Population seed of the workloads whose data centers do not follow --seed.
constexpr std::uint64_t kFixedPopulationSeed = 20120521;

// ---------------------------------------------------------------------------
// Spans: {name, start, end, parent, op_id}, kept in memory, written at exit.

constexpr std::size_t kNoOp = static_cast<std::size_t>(-1);

struct SpanRecord {
  const char* name;
  double start_s;
  double end_s;
  std::ptrdiff_t parent;  // index into the span list, -1 for a root
  std::size_t op_id;      // kNoOp outside the timed operations

  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) index_ = tracer_.open(name);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  Scope scope(const char* name) { return Scope(*this, name); }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(std::size_t op_id) { op_id_ = op_id; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Durations of every span called `name`, or only of those inside a timed
  // operation.
  std::vector<double> durations(const char* name, bool in_ops_only) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (in_ops_only && s.op_id == kNoOp) continue;
      if (std::strcmp(s.name, name) == 0) out.push_back(s.duration());
    }
    return out;
  }

  // Self time of each span name: its duration minus its direct children's.
  std::map<std::string, std::pair<double, double>> total_and_self() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent < 0) continue;
      child[static_cast<std::size_t>(s.parent)] += s.duration();
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, self] = out[spans_[i].name];
      total += spans_[i].duration();
      self += spans_[i].duration() - child[i];
    }
    return out;
  }

  void write_chrome_trace(std::ostream& os) const {
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"op_id\": %lld, \"parent\": %lld}}",
                    i == 0 ? "" : ",", s.name, s.start_s * 1e6,
                    s.duration() * 1e6,
                    s.op_id == kNoOp ? -1LL : static_cast<long long>(s.op_id),
                    static_cast<long long>(s.parent));
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  std::size_t open(const char* name) {
    const std::ptrdiff_t parent =
        stack_.empty() ? -1 : static_cast<std::ptrdiff_t>(stack_.back());
    spans_.push_back({name, seconds_since(epoch_), 0.0, parent, op_id_});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_s = seconds_since(epoch_);
    stack_.pop_back();
  }

  bool enabled_ = true;
  std::size_t op_id_ = kNoOp;
  const Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// FNV-1a over the bits of the published plans, one 64-bit word per step
// (byte steps cost ~6% of a fault-drift operation). Each step is a bijection
// of the running hash, so changing any one word changes the digest.

class Fnv1a {
 public:
  void add_u64(std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ULL;
  }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }
  void add_plan(const core::Assignment& plan) {
    add_u64(plan.feasible ? 1 : 0);
    for (double t : plan.crac_out_c) add_f64(t);
    for (std::size_t p : plan.core_pstate) add_u64(p);
    for (std::size_t r = 0; r < plan.tc.rows(); ++r) {
      for (std::size_t c = 0; c < plan.tc.cols(); ++c) add_f64(plan.tc(r, c));
    }
    add_f64(plan.reward_rate);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads.

struct DataCenterCase {
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;  // built on scenario->dc
  core::Assignment plan;  // healthy plan made in setup (des/fault workloads)
  // Setpoints of the latest published three-stage plan; the dense final
  // re-solve probe runs there.
  std::vector<double> setpoints;
};

struct OpOutcome {
  bool failed = false;  // an operation failed (see README "failed")
  bool wrong = false;   // a plan published as feasible failed verification
  Fnv1a digest;
  double plan_reward = 0.0;      // published three-stage plans
  double baseline_reward = 0.0;  // fig6 baseline plan
  double achieved_reward = 0.0;  // DES runs
  std::size_t sim_arrivals = 0;  // measured-window arrivals of `simulate`
};

struct Context;
using OpFn = OpOutcome (*)(Context&, std::size_t op);

// Sizes are the full run's; --smoke shrinks every workload to one 20-node
// data center and short horizons.
struct WorkloadSpec {
  const char* name;
  std::size_t nodes;
  std::size_t cracs;
  std::size_t data_centers;  // built in setup
  // Operations that always run, are hashed into the digest and are the
  // traced run's operations.
  std::size_t checked_ops;
  // Operations after which inputs repeat exactly (0 = one per data
  // center); a repeated operation must reproduce its first digest.
  std::size_t cycle;
  // Data centers drawn independently of --seed (the seed then drives only
  // the arrival streams); see README for why the DES workload needs this.
  bool fixed_population;
  double arrival_scale;
  bool setup_plan;
  OpFn op;
};

struct Context {
  const WorkloadSpec& spec;
  std::uint64_t seed;
  bool smoke;
  std::size_t plan_threads;
  Tracer tracer;
  Registry* reg = nullptr;  // attached only to traced operations
  std::vector<DataCenterCase> dcs;

  DataCenterCase& dc_for(std::size_t op) { return dcs[op % dcs.size()]; }
  std::size_t checked_ops() const { return smoke ? 1 : spec.checked_ops; }

  core::ThreeStageOptions three_stage(double psi, std::size_t threads) const {
    core::ThreeStageOptions o;
    o.stage1.psi = psi;
    o.stage1.threads = threads;
    o.stage1.telemetry = reg;
    return o;
  }
  core::RecoveryOptions recovery() const {
    core::RecoveryOptions o;
    o.assign = three_stage(50.0, 1);
    o.telemetry = reg;
    return o;
  }
  core::ReplannerOptions replanner() const {  // 20-s cadence by default
    core::ReplannerOptions o;
    o.telemetry = reg;
    return o;
  }
};

// Verifies a plan the library published; an infeasible plan is a failed
// operation, a feasible one that fails the independent check is also wrong.
bool check_plan(Context& ctx, OpOutcome& out, const dc::DataCenter& dc,
                const thermal::HeatFlowModel& model,
                const core::Assignment& plan,
                const std::vector<double>* rates = nullptr) {
  out.digest.add_plan(plan);
  if (!plan.feasible) {
    out.failed = true;
    return false;
  }
  const auto scope = ctx.tracer.scope("core.verify");
  if (!core::verify_assignment(dc, model, plan, rates).ok()) {
    out.failed = true;
    out.wrong = true;
    return false;
  }
  return true;
}

void run_sim(Context& ctx, OpOutcome& out, const dc::DataCenter& dc,
             const core::Assignment& plan, double duration_s,
             std::uint64_t sim_seed) {
  sim::SimOptions o;
  o.duration_seconds = duration_s;
  o.warmup_seconds = duration_s / 10.0;
  o.seed = sim_seed;
  o.telemetry = ctx.reg;
  sim::SimResult r;
  {
    const auto scope = ctx.tracer.scope("sim.simulate");
    r = sim::simulate(dc, plan, o);
  }
  if (!r.status.ok()) {
    out.failed = true;
    return;
  }
  std::size_t arrived = 0;
  for (const sim::PerTypeMetrics& t : r.per_type) arrived += t.arrived;
  out.achieved_reward += r.reward_rate;
  out.sim_arrivals += arrived;
  out.digest.add_f64(r.total_reward);
  out.digest.add_u64(arrived);
}

// fig6-150: the paper's Figure-6 cell for one data center.
OpOutcome fig6_op(Context& ctx, std::size_t op) {
  DataCenterCase& c = ctx.dc_for(op);
  const dc::DataCenter& dc = c.scenario->dc;
  const thermal::HeatFlowModel& model = *c.model;
  OpOutcome out;

  const core::ThreeStageAssigner three(dc, model);
  core::Assignment a25, a50, best, base;
  {
    const auto scope = ctx.tracer.scope("core.assign");
    a25 = three.assign(ctx.three_stage(25.0, 1));
  }
  {
    const auto scope = ctx.tracer.scope("core.assign");
    a50 = three.assign(ctx.three_stage(50.0, 1));
  }
  {
    const auto scope = ctx.tracer.scope("core.best_of");
    best = core::best_of({a25, a50});
  }
  {
    const auto scope = ctx.tracer.scope("core.baseline");
    core::BaselineOptions bo;
    bo.lp.telemetry = ctx.reg;
    base = core::BaselineAssigner(dc, model).assign(bo);
  }
  out.digest.add_plan(a25);
  out.digest.add_plan(a50);
  if (!a25.feasible || !a50.feasible) out.failed = true;

  const double duration = ctx.smoke ? 20.0 : 120.0;
  const std::uint64_t sim_seed =
      derive_seed(ctx.seed, kSim, op % ctx.dcs.size());
  if (check_plan(ctx, out, dc, model, best)) {
    out.plan_reward = best.reward_rate;
    c.setpoints = a50.crac_out_c;
    run_sim(ctx, out, dc, best, duration, sim_seed);
  }
  if (check_plan(ctx, out, dc, model, base)) {
    out.baseline_reward = base.reward_rate;
    run_sim(ctx, out, dc, base, duration, sim_seed);
  }
  return out;
}

// plan-300: operator-scale planning, Stage-1 thread pool on.
OpOutcome plan_op(Context& ctx, std::size_t op) {
  DataCenterCase& c = ctx.dc_for(op);
  const dc::DataCenter& dc = c.scenario->dc;
  OpOutcome out;
  core::Assignment plan;
  {
    const auto scope = ctx.tracer.scope("core.assign");
    plan = core::ThreeStageAssigner(dc, *c.model)
               .assign(ctx.three_stage(50.0, ctx.plan_threads));
  }
  if (check_plan(ctx, out, dc, *c.model, plan)) {
    out.plan_reward = plan.reward_rate;
    c.setpoints = plan.crac_out_c;
  }
  return out;
}

// des-storm-300: one serial simulate of every setup-planned, oversubscribed
// data center. The simulate time of one data center differs from another's
// by up to 18x, so an operation covers the whole park and the per-operation
// time does not depend on where the loop stopped. Two arrival streams per
// data center alternate between operations.
OpOutcome storm_op(Context& ctx, std::size_t op) {
  OpOutcome out;
  for (std::size_t i = 0; i < ctx.dcs.size(); ++i) {
    const DataCenterCase& c = ctx.dcs[i];
    out.digest.add_plan(c.plan);
    run_sim(ctx, out, c.scenario->dc, c.plan, ctx.smoke ? 40.0 : 300.0,
            derive_seed(ctx.seed, kSim, 2 * i + op % 2));
  }
  return out;
}

// fault-drift-150: demand drift, three faults and a fault-injected DES run
// on one data center with a healthy plan made in setup.
OpOutcome fault_op(Context& ctx, std::size_t op) {
  const std::size_t index = op % ctx.dcs.size();
  DataCenterCase& c = ctx.dcs[index];
  dc::DataCenter& dc = c.scenario->dc;
  const thermal::HeatFlowModel& model = *c.model;
  const core::Assignment& healthy = c.plan;
  OpOutcome out;
  out.digest.add_plan(healthy);
  util::Rng rng = util::Rng(ctx.seed).fork(kDrift).fork(index);

  // Demand drift: seeded lambda x U[0.6, 1.4] per task type per step.
  {
    std::optional<core::RollingPlanner> planner;
    {
      const auto scope = ctx.tracer.scope("core.replanner.build");
      planner.emplace(dc, model, healthy, ctx.replanner());
    }
    std::vector<double> lambda(dc.num_task_types());
    const std::size_t steps = ctx.smoke ? 20 : 200;
    for (std::size_t s = 0; s < steps; ++s) {
      for (std::size_t i = 0; i < lambda.size(); ++i) {
        lambda[i] = dc.task_types[i].arrival_rate * rng.uniform(0.6, 1.4);
      }
      core::HorizonStep step;
      {
        const auto scope = ctx.tracer.scope("core.replanner.step");
        step = planner->step(lambda);
      }
      if (step.degraded()) {
        out.failed = true;
        continue;
      }
      check_plan(ctx, out, dc, model, step.plan, &lambda);
    }
  }

  // Faults, each answered on a copy of the data center: the LP-free safety
  // throttle, then the full two-phase recovery.
  const core::RecoveryOptions recovery = ctx.recovery();
  const double tmin = recovery.assign.stage1.tcrac_min_c;
  const double tmax = recovery.assign.stage1.tcrac_max_c;
  const sim::FaultEvent faults[] = {
      {0.0, sim::FaultKind::kNodeFail,
       static_cast<std::size_t>(rng.uniform_int(
           0, static_cast<std::int64_t>(dc.num_nodes()) - 1)),
       0.0},
      {0.0, sim::FaultKind::kCracDerate,
       static_cast<std::size_t>(rng.uniform_int(
           0, static_cast<std::int64_t>(dc.num_cracs()) - 1)),
       0.7},
      {0.0, sim::FaultKind::kPowerCap, 0, 0.85 * dc.p_const_kw},
  };
  for (const sim::FaultEvent& fault : faults) {
    std::optional<dc::DataCenter> degraded;
    {
      const auto scope = ctx.tracer.scope("sim.apply_fault");
      degraded.emplace(dc);
      sim::apply_fault(*degraded, fault, tmin, tmax);
    }
    const core::RecoveryController controller(*degraded, model, recovery);
    core::Assignment throttle;
    {
      const auto scope = ctx.tracer.scope("core.safety_throttle");
      throttle = controller.safety_throttle(healthy);
    }
    out.digest.add_plan(throttle);
    if (!throttle.feasible) out.failed = true;
    core::RecoveryOutcome outcome;
    {
      const auto scope = ctx.tracer.scope("core.recover");
      outcome = controller.recover(healthy);
    }
    if (!outcome.safe) out.failed = true;
    if (outcome.replan_adopted) {
      check_plan(ctx, out, *degraded, model, outcome.plan);
    } else {
      out.digest.add_plan(outcome.plan);
    }
  }

  // Fault-injected DES: diurnal drift, rolling re-plans, generated faults.
  const double horizon = ctx.smoke ? 40.0 : 240.0;
  sim::RateTraceGenConfig trace_config;
  trace_config.kind = sim::RateTraceGenConfig::Kind::kDiurnal;
  trace_config.seed = derive_seed(ctx.seed, kTrace, index);
  trace_config.horizon_s = horizon;
  trace_config.amplitude = 0.5;
  const sim::RateTrace trace =
      sim::generate_rate_trace(dc.task_types, trace_config);
  sim::FaultInjectionConfig fault_config;
  fault_config.seed = derive_seed(ctx.seed, kFaults, index);
  fault_config.horizon_s = horizon;
  fault_config.node_failures = 2;
  fault_config.crac_derates = 1;
  fault_config.crac_capacity_fraction = 0.7;
  fault_config.power_cap_fraction = 0.9;
  const sim::FaultSchedule schedule =
      sim::generate_fault_schedule(dc, fault_config);
  sim::FaultSimOptions options;
  options.sim.duration_seconds = horizon;
  options.sim.seed = derive_seed(ctx.seed, kSim, index);
  options.sim.rate_trace = &trace;
  options.sim.telemetry = ctx.reg;
  options.recovery = recovery;
  options.replan = ctx.replanner();
  sim::FaultSimResult result;
  {
    const auto scope = ctx.tracer.scope("sim.simulate_with_faults");
    result = sim::simulate_with_faults(dc, model, healthy, schedule, options);
  }
  if (!result.status.ok()) {
    out.failed = true;
    return out;
  }
  for (const sim::FaultRecord& record : result.faults) {
    if (!record.safe) out.failed = true;
  }
  out.achieved_reward += result.sim.reward_rate;
  out.digest.add_f64(result.sim.total_reward);
  out.digest.add_u64(result.horizon_steps);
  out.digest.add_u64(result.replans_adopted);
  return out;
}

// One data center's operation takes up to twice as long as another's, while
// repeats of one are within ~10%, so the per-seed workloads build about one
// data center per operation of a 20-s run: the run's median is then over many
// data centers, not a few repeated ones.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"fig6-150", 150, 3, 12, 4, 0, false, 1.0, false, fig6_op},
      {"plan-300", 300, 6, 24, 4, 0, false, 1.0, false, plan_op},
      {"des-storm-300", 300, 6, 4, 2, 2, true, 2.0, true, storm_op},
      {"fault-drift-150", 150, 3, 20, 4, 0, false, 1.0, true, fault_op},
  };
  return specs;
}

// Builds the data centers; returns the wall time of each one's set-up
// (generation + thermal model + set-up plan), or nullopt on a failure.
std::optional<std::vector<double>> setup(Context& ctx) {
  const WorkloadSpec& spec = ctx.spec;
  const std::size_t count = ctx.smoke ? 1 : spec.data_centers;
  const std::uint64_t population_seed =
      spec.fixed_population ? kFixedPopulationSeed : ctx.seed;
  // Salted by the workload name, so no two workloads share a data center.
  Fnv1a salt;
  for (const char* p = spec.name; *p != '\0'; ++p) salt.add_u64(*p);
  std::vector<double> times;
  // The generator rejects a few draws (no feasible power bounds); those are
  // skipped, so data center i is the i-th draw the generator accepts.
  for (std::size_t draw = 0; ctx.dcs.size() < count; ++draw) {
    if (draw == 4 * count) {
      std::fprintf(stderr, "setup: the generator rejected %zu draws\n", draw);
      return std::nullopt;
    }
    const Clock::time_point start = Clock::now();
    scenario::ScenarioConfig config;
    config.num_nodes = ctx.smoke ? 20 : spec.nodes;
    config.num_cracs = ctx.smoke ? 2 : spec.cracs;
    config.seed = derive_seed(population_seed, kScenario ^ salt.value(), draw);
    DataCenterCase c;
    {
      const auto scope = ctx.tracer.scope("scenario.generate");
      std::optional<scenario::Scenario> generated =
          scenario::generate_scenario(config);
      if (!generated) continue;
      c.scenario = std::make_unique<scenario::Scenario>(std::move(*generated));
    }
    for (dc::TaskType& t : c.scenario->dc.task_types) {
      t.arrival_rate *= spec.arrival_scale;
    }
    {
      const auto scope = ctx.tracer.scope("thermal.heatflow_build");
      c.model = std::make_unique<thermal::HeatFlowModel>(c.scenario->dc);
    }
    if (spec.setup_plan) {
      const auto scope = ctx.tracer.scope("core.setup_plan");
      c.plan = core::ThreeStageAssigner(c.scenario->dc, *c.model)
                   .assign(ctx.three_stage(50.0, 1));
      if (!c.plan.feasible ||
          !core::verify_assignment(c.scenario->dc, *c.model, c.plan).ok()) {
        std::fprintf(stderr, "setup: no verified plan for draw %zu\n", draw);
        return std::nullopt;
      }
      c.setpoints = c.plan.crac_out_c;
    }
    ctx.dcs.push_back(std::move(c));
    times.push_back(seconds_since(start));
  }
  return times;
}

// ---------------------------------------------------------------------------
// The timed loop.

struct LoopStats {
  std::vector<double> op_seconds;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t sim_arrivals = 0;  // over every operation, like op_seconds
  bool wrong = false;
  bool nondeterministic = false;
  Fnv1a digest;  // over the checked operations
  double plan_reward = 0.0;
  double achieved_reward = 0.0;
  std::vector<double> improvement_pct;
  std::map<std::size_t, std::uint64_t> first_digest;  // by op % cycle
};

void run_op(Context& ctx, std::size_t op, LoopStats& stats) {
  ctx.tracer.set_op(op);
  const Clock::time_point start = Clock::now();
  OpOutcome out;
  {
    const auto scope = ctx.tracer.scope("op");
    out = ctx.spec.op(ctx, op);
  }
  stats.op_seconds.push_back(seconds_since(start));
  ctx.tracer.set_op(kNoOp);

  ++stats.attempted;
  if (out.failed) ++stats.failed;
  stats.sim_arrivals += out.sim_arrivals;
  stats.wrong = stats.wrong || out.wrong;
  const std::size_t cycle = ctx.spec.cycle ? ctx.spec.cycle : ctx.dcs.size();
  const auto [it, first] =
      stats.first_digest.emplace(op % cycle, out.digest.value());
  if (!first && it->second != out.digest.value()) {
    std::fprintf(stderr, "op %zu: outputs differ from its first run\n", op);
    stats.nondeterministic = true;
  }
  if (first && op < ctx.checked_ops()) {
    stats.digest.add_u64(out.digest.value());
    stats.plan_reward += out.plan_reward;
    stats.achieved_reward += out.achieved_reward;
    if (out.baseline_reward > 0.0) {
      stats.improvement_pct.push_back(100.0 *
                                      (out.plan_reward - out.baseline_reward) /
                                      out.baseline_reward);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Traced-only probes on each data center, after the timed operations:
// cross-interference generation and the power bounds on the generated
// layout, and the dense final re-solve at the published setpoints.
void run_probes(Context& ctx) {
  for (const DataCenterCase& c : ctx.dcs) {
    const dc::DataCenter& dc = c.scenario->dc;
    std::vector<double> flows;
    for (std::size_t e = 0; e < dc.num_entities(); ++e) {
      flows.push_back(dc.entity_flow(e));
    }
    util::Rng rng(derive_seed(ctx.seed, kScenario, 0));
    {
      const auto scope = ctx.tracer.scope("probe.cross_interference");
      (void)thermal::generate_cross_interference(dc.layout, flows, rng);
    }
    {
      const auto scope = ctx.tracer.scope("probe.power_bounds");
      thermal::PowerBoundsOptions opts;
      opts.tcrac_max_c = std::min(opts.tcrac_max_c, dc.redline_node_c);
      (void)thermal::compute_power_bounds(dc, *c.model, opts);
    }
    if (!c.setpoints.empty()) {
      const auto scope = ctx.tracer.scope("probe.final_resolve");
      solver::LpOptions lp;
      lp.engine = solver::LpEngine::Dense;
      (void)core::Stage1Solver(dc, *c.model).solve_at(c.setpoints, 50.0, lp);
    }
  }
}

// `traced` ran with telemetry and spans; `reference` is the same operations
// untraced, which gives the tracing overhead and the output quality.
std::vector<Metric> per_layer_metrics(const Context& ctx, const Registry& reg,
                                      const LoopStats& traced,
                                      const LoopStats& reference) {
  const Tracer& tr = ctx.tracer;
  const double ops = static_cast<double>(traced.attempted);
  // Registry timers sum over threads, so in plan-300 they can exceed wall.
  const auto timer = [&](const char* name) {
    return reg.timer_stats(name).total_seconds / ops;
  };
  const auto timer_mean = [&](const char* name) {
    const util::telemetry::TimerStats t = reg.timer_stats(name);
    return ratio(t.total_seconds, static_cast<double>(t.count));
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto per_op = [&](const char* name) { return count(name) / ops; };
  const auto count_ratio = [&](const char* num, const char* den) {
    return ratio(count(num), count(den));
  };
  const auto span_mean = [&](const char* name) {
    return mean(tr.durations(name, false));
  };
  const auto span_per_op = [&](const char* name) {
    return sum(tr.durations(name, true)) / ops;
  };
  const auto pct = [&](const char* name, double p, double scale) {
    const std::vector<double> d = tr.durations(name, true);
    return d.empty() ? 0.0 : scale * util::percentile(d, p);
  };

  // Wall time of the operations that no call span covers.
  double op_wall = 0.0, covered = 0.0;
  const std::vector<SpanRecord>& spans = tr.spans();
  for (const SpanRecord& s : spans) {
    if (s.op_id == kNoOp) continue;
    if (s.parent < 0) {
      op_wall += s.duration();
    } else if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      covered += s.duration();
    }
  }
  const double overhead =
      ratio(mean(traced.op_seconds), mean(reference.op_seconds)) - 1.0;
  // sim.arrivals counts both DES loops, so the rate is over both timers; the
  // fault loop's timer includes its in-loop recoveries and re-plans.
  const double arrivals = count("sim.arrivals");
  const double des_seconds = reg.timer_stats("sim.run").total_seconds +
                             reg.timer_stats("sim.fault_run").total_seconds;
  const double routes =
      count("scheduler.routes_indexed") + count("scheduler.routes_scan");
  const double assign_ratio =
      arrivals > 0.0 ? 1.0 - count("scheduler.dropped") / arrivals : 0.0;

  return {
      {"scenario.generate_s", span_mean("scenario.generate"), "s"},
      {"thermal.heatflow_build_s", span_mean("thermal.heatflow_build"), "s"},
      {"thermal.cross_interference_s", span_mean("probe.cross_interference"), "s"},
      {"thermal.power_bounds_s", span_mean("probe.power_bounds"), "s"},
      {"core.setup_plan_s", span_mean("core.setup_plan"), "s"},
      {"core.assign_s", timer("assign.total"), "s/op"},
      {"core.plan_s_p50", pct("core.assign", 50.0, 1.0), "s"},
      {"core.stage1_s", timer("stage1.solve"), "s/op"},
      {"core.stage1_lp_s", timer("stage1.lp"), "s/op"},
      {"core.stage1_lp_solves", per_op("stage1.lp_solves"), "1/op"},
      {"core.stage1_sweep_rounds", per_op("stage1.sweep_rounds"), "1/op"},
      {"core.final_resolve_s", span_mean("probe.final_resolve"), "s"},
      {"core.stage2_s", timer("stage2.convert"), "s/op"},
      {"core.stage3_s", timer("stage3.solve"), "s/op"},
      {"core.verify_s", span_per_op("core.verify"), "s/op"},
      {"core.baseline_s", span_per_op("core.baseline"), "s/op"},
      {"solver.lp_solves", per_op("lp.solves"), "1/op"},
      {"solver.lp_iterations", per_op("lp.iterations"), "1/op"},
      {"solver.lp_dual_iterations", per_op("lp.dual_iterations"), "1/op"},
      {"solver.iters_per_solve", count_ratio("lp.iterations", "lp.solves"),
       "iter/solve"},
      {"solver.warm_hit_ratio", count_ratio("lp.warm_starts", "lp.solves"),
       "ratio"},
      {"solver.price_s", timer("lp.phase.price"), "s/op"},
      {"solver.ftran_s", timer("lp.phase.ftran"), "s/op"},
      {"solver.update_s", timer("lp.phase.update"), "s/op"},
      {"solver.factorize_s", timer("lp.phase.factorize"), "s/op"},
      {"solver.standardize_s", timer("lp.phase.standardize"), "s/op"},
      {"solver.session_build_s", timer("lp.session.build"), "s/op"},
      {"solver.session_resident_ratio",
       count_ratio("lp.session.resident_resumes", "lp.session.solves"), "ratio"},
      {"solver.refactorizations", per_op("lp.refactorizations"), "1/op"},
      {"solver.session_fallbacks", per_op("lp.session.fallbacks"), "1/op"},
      {"sim.run_s", timer("sim.run"), "s/op"},
      {"sim.arrivals", arrivals / ops, "1/op"},
      {"sim.events", per_op("sim.events_processed"), "1/op"},
      {"sim.arrival_batches", per_op("sim.arrival_batches"), "1/op"},
      {"sim.tasks_per_s", ratio(arrivals, des_seconds), "1/s"},
      {"sched.routes", routes / ops, "1/op"},
      {"sched.index_pops_per_route",
       count_ratio("scheduler.index_pops", "scheduler.routes_indexed"), "ratio"},
      {"sched.assign_ratio", assign_ratio, "ratio"},
      {"core.recovery.throttle_ms_p50", pct("core.safety_throttle", 50.0, 1e3),
       "ms"},
      {"core.recovery.recover_s_p50", pct("core.recover", 50.0, 1.0), "s"},
      {"core.recovery.replan_s", timer_mean("recovery.replan"), "s"},
      {"core.recovery.adopt_ratio",
       count_ratio("recovery.replan_adopted", "recovery.invocations"), "ratio"},
      {"core.replanner.step_ms_p50", pct("core.replanner.step", 50.0, 1e3), "ms"},
      {"core.replanner.step_ms_p99", pct("core.replanner.step", 99.0, 1e3), "ms"},
      {"core.replanner.adopt_ratio", count_ratio("replan.adoptions", "replan.steps"),
       "ratio"},
      {"sim.fault_run_s", timer("sim.fault_run"), "s/op"},
      {"ledger.unattributed_frac", ratio(op_wall - covered, op_wall), "ratio"},
      {"ledger.trace_overhead_frac", overhead, "ratio"},
      {"quality.plan_reward_per_s", reference.plan_reward, "reward/s"},
      {"quality.fig6_improvement_pct", mean(reference.improvement_pct), "%"},
      {"quality.achieved_reward_per_s", reference.achieved_reward, "reward/s"},
  };
}

// The untraced run's latency of each public call its operations make, the
// output quality and the failed share, each only where the workload defines
// it. A call that is a small share of an operation (a horizon step is ~4% of
// a fault-drift operation) cannot move op_s_p50 past its bound; compare.py
// gates these next to the result line's metrics.
std::vector<Metric> call_metrics(const Context& ctx, const LoopStats& stats) {
  const Tracer& tr = ctx.tracer;
  std::vector<Metric> out;
  const auto p50 = [&](const char* metric, const char* span, double scale,
                       const char* unit) {
    const std::vector<double> d = tr.durations(span, true);
    if (!d.empty()) out.push_back({metric, scale * median(d), unit});
  };
  p50("plan_s_p50", "core.assign", 1.0, "s");
  if (!tr.durations("core.baseline", true).empty()) {
    out.push_back({"dc_eval_s_p50", median(stats.op_seconds), "s"});
  }
  const std::vector<double> sims = tr.durations("sim.simulate", true);
  if (!sims.empty()) {
    out.push_back({"sim_tasks_per_s",
                   static_cast<double>(stats.sim_arrivals) / sum(sims), "1/s"});
  }
  p50("recover_s_p50", "core.recover", 1.0, "s");
  p50("horizon_step_ms_p50", "core.replanner.step", 1e3, "ms");
  p50("fault_sim_s_p50", "sim.simulate_with_faults", 1.0, "s");
  if (stats.plan_reward > 0.0) {
    out.push_back({"plan_reward_per_s", stats.plan_reward, "reward/s"});
  }
  if (!stats.improvement_pct.empty()) {
    out.push_back({"fig6_improvement_pct", mean(stats.improvement_pct), "%"});
  }
  if (stats.achieved_reward > 0.0) {
    out.push_back({"achieved_reward_per_s", stats.achieved_reward, "reward/s"});
  }
  out.push_back({"failed_frac",
                 ratio(static_cast<double>(stats.failed),
                       static_cast<double>(stats.attempted)),
                 "ratio"});
  return out;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

// Committed digests: lines "<seed> <workload> <fnv1a-64 hex>"; '#' comments.
// Empty when the file has no line for this run.
std::string expected_digest(std::uint64_t seed, const std::string& workload) {
  std::ifstream in(TAPO_BENCH_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t s = 0;
    std::string w, hex;
    if ((fields >> s >> w >> hex) && s == seed && w == workload) return hex;
  }
  return "";
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  body(out);
  return static_cast<bool>(out);
}

int run(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
        bool trace, bool smoke, const std::string& out_dir) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Context ctx{spec, seed, smoke, std::min<std::size_t>(4, nproc), {}, nullptr, {}};
  std::printf("# bench_pipeline %s seed=%" PRIu64 " seconds=%g trace=%d "
              "smoke=%d nproc=%zu compiler=%s\n",
              spec.name, seed, seconds, trace ? 1 : 0, smoke ? 1 : 0, nproc,
              __VERSION__);

  const std::optional<std::vector<double>> setup_times = setup(ctx);
  if (!setup_times) return 3;

  // `stats` holds the untraced operations: timings, digest and quality.
  // A traced run repeats its checked operations into `traced`, which must
  // reproduce the untraced digests (telemetry never changes an output).
  LoopStats stats, traced;
  Registry registry;
  if (trace) {
    // Without spans, so every span inside an operation is a traced one.
    ctx.tracer.set_enabled(false);
    for (std::size_t op = 0; op < ctx.checked_ops(); ++op) {
      run_op(ctx, op, stats);
    }
    ctx.tracer.set_enabled(true);
    ctx.reg = &registry;
    traced.first_digest = stats.first_digest;
    for (std::size_t op = 0; op < ctx.checked_ops(); ++op) {
      run_op(ctx, op, traced);
    }
    ctx.reg = nullptr;
    run_probes(ctx);
  } else {
    const Clock::time_point start = Clock::now();
    for (std::size_t op = 0;
         op < ctx.checked_ops() || seconds_since(start) < seconds; ++op) {
      run_op(ctx, op, stats);
    }
  }

  const std::string digest = hex64(stats.digest.value());
  // The committed digests are of full-size runs.
  const std::string expected = smoke ? "" : expected_digest(seed, spec.name);
  const bool digest_ok = expected.empty() || expected == digest;
  if (!digest_ok) {
    std::fprintf(stderr, "%s seed %" PRIu64 ": plan digest %s, expected %s\n",
                 spec.name, seed, digest.c_str(), expected.c_str());
  }
  const bool correct = digest_ok && !stats.wrong && !traced.wrong &&
                       !stats.nondeterministic && !traced.nondeterministic;
  const std::size_t attempted = stats.attempted + traced.attempted;
  const std::size_t failed = stats.failed + traced.failed;

  std::vector<Metric> metrics;
  if (trace) {
    metrics = per_layer_metrics(ctx, registry, traced, stats);
  } else {
    metrics = {
        {"op_s_p50", median(stats.op_seconds), "s"},
        {"setup_s", median(*setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %.9g %s\n", spec.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s ops %zu count\n", spec.name, attempted);
  std::printf("%s failed %zu count\n", spec.name, failed);
  std::printf("%s plan_digest %s %s\n", spec.name, digest.c_str(),
              expected.empty() ? "fnv1a-unchecked"
                               : digest_ok ? "fnv1a-match" : "fnv1a-MISMATCH");
  if (!trace) {
    for (const Metric& m : call_metrics(ctx, stats)) {
      std::printf("%s %s %.9g %s\n", spec.name, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + spec.name + "-seed" +
                             std::to_string(seed) + (trace ? "-trace" : "");
    if (trace) {
      write_file(stem + ".chrome.json",
                 [&](std::ostream& os) { ctx.tracer.write_chrome_trace(os); });
      write_file(stem + ".telemetry.json",
                 [&](std::ostream& os) { registry.to_json(os); });
      write_file(stem + ".ledger.txt", [&](std::ostream& os) {
        const double op_wall = sum(traced.op_seconds);
        os << "# span total_s self_s self_share_of_traced_op_wall\n";
        for (const auto& [name, ts] : ctx.tracer.total_and_self()) {
          os << name << ' ' << ts.first << ' ' << ts.second << ' '
             << ratio(ts.second, op_wall) << '\n';
        }
      });
    }
    write_file(stem + ".ops.txt", [&](std::ostream& os) {
      os << "# op wall_s\n";
      for (std::size_t i = 0; i < stats.op_seconds.size(); ++i) {
        os << i << ' ' << stats.op_seconds[i] << '\n';
      }
    });
  }

  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_pipeline",
                       "End-to-end benchmark of the tapo pipeline (one "
                       "workload per process; see README.md).");
  args.add_option("workload", "fig6-150 | plan-300 | des-storm-300 | "
                  "fault-drift-150", "");
  args.add_option("seed", "input seed", "1");
  args.add_option("seconds", "measured seconds of an untraced run", "20");
  args.add_option("trace", "1 = traced per-layer run, 0 = end-to-end run", "0");
  args.add_option("out", "directory for per-run files (empty = none)", "");
  args.add_flag("smoke", "one 20-node data center per workload, short horizons");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  const std::string name = args.option("workload");
  const std::int64_t seed = args.option_int("seed");
  const double seconds = args.option_double("seconds");
  const std::string trace = args.option("trace");
  if (seed < 0 || !(seconds > 0.0) || (trace != "0" && trace != "1")) {
    std::fprintf(stderr, "bad --seed, --seconds or --trace\n%s",
                 args.usage().c_str());
    return 2;
  }
  if (!std::ifstream(TAPO_BENCH_DIGESTS)) {
    std::fprintf(stderr, "cannot read the plan digests %s\n",
                 TAPO_BENCH_DIGESTS);
    return 2;
  }
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) {
      return run(spec, static_cast<std::uint64_t>(seed), seconds, trace == "1",
                 args.flag("smoke"), args.option("out"));
    }
  }
  std::fprintf(stderr, "unknown --workload '%s'\n%s", name.c_str(),
               args.usage().c_str());
  return 2;
}
