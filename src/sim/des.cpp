#include "sim/des.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "sim/trace.h"
#include "util/telemetry.h"

namespace tapo::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Deepest per-core backlog (seconds of admitted-but-unfinished work) at time
// `now`, normalized by the longest relative deadline in the workload. With
// the admission check on this can never exceed 1.0 — a task is only admitted
// if it finishes inside its own deadline, which caps every core's queue at
// the slowest type's deadline. Values climbing past 1.0 therefore mean
// unguarded admission is stacking work faster than the park executes it,
// which is the runaway the soak anomaly pass watches for.
double backlog_depth(const dc::DataCenter& dc,
                     const std::vector<double>& core_free_time, double now) {
  double deepest = 0.0;
  for (const double free_at : core_free_time) {
    if (free_at - now > deepest) deepest = free_at - now;
  }
  double max_deadline = 0.0;
  for (const auto& type : dc.task_types) {
    if (type.relative_deadline > max_deadline) {
      max_deadline = type.relative_deadline;
    }
  }
  return max_deadline > 0.0 ? deepest / max_deadline : 0.0;
}

// Per-type next-arrival calendar for batched admission. Each task type's
// renewal stream is drawn lazily exactly as the old one-event-per-arrival
// design did (one interarrival per processed arrival, stopping once the next
// time would pass the horizon), so arrival times are bit-identical — only
// the event-calendar traffic is gone. peek() is an O(task types) min-scan;
// with the paper-scale handful of task types that beats a heap.
class ArrivalPump {
 public:
  ArrivalPump(const std::vector<dc::TaskType>& task_types, util::Rng rng,
              double horizon, const RateTrace* trace)
      : arrivals_(task_types, std::move(rng), trace), horizon_(horizon) {
    next_.assign(task_types.size(), kInf);
    for (std::size_t i = 0; i < next_.size(); ++i) {
      const double t = arrivals_.next_arrival_after(i, 0.0);
      if (t <= horizon_) next_[i] = t;
    }
  }

  // Earliest pending arrival; false when every stream is drained. Exact-time
  // ties resolve to the lowest task type id.
  bool peek(double& time, std::size_t& type) const {
    time = kInf;
    for (std::size_t i = 0; i < next_.size(); ++i) {
      if (next_[i] < time) {
        time = next_[i];
        type = i;
      }
    }
    return time <= horizon_;
  }

  // Consumes the arrival of `type` at time `now` and draws its successor.
  void advance(std::size_t type, double now) {
    const double t = arrivals_.next_arrival_after(type, now);
    next_[type] = t <= horizon_ ? t : kInf;
  }

 private:
  ArrivalProcess arrivals_;
  std::vector<double> next_;
  double horizon_;
};

// A recorded Trace behind the ArrivalPump interface. check_run() has vetted
// every event up to the first one past the horizon, which ends the replay.
struct TraceCursor {
  const Trace& trace;
  double horizon;
  std::size_t next = 0;

  bool peek(double& time, std::size_t& type) const {
    if (next == trace.size()) return false;
    time = trace[next].time;
    type = trace[next].task_type;
    return time <= horizon;
  }

  void advance(std::size_t /*type*/, double /*now*/) { ++next; }
};

// What a run leaves for the end-of-run recorder.
struct RunTotals {
  core::RoutingStats routing;
  std::size_t batches = 0;  // arrival admission batches
  std::size_t max_batch = 0;
  std::size_t events = 0;
  std::size_t max_pending = 0;
};

void accumulate(core::RoutingStats& into, const core::RoutingStats& from) {
  into.routed += from.routed;
  into.indexed_routes += from.indexed_routes;
  into.scan_routes += from.scan_routes;
  into.index_pops += from.index_pops;
  into.index_deferred += from.index_deferred;
  into.index_parks += from.index_parks;
  into.index_stale_pops += from.index_stale_pops;
}

// Piecewise-constant power draw integrated over the measured window.
struct EnergyMeter {
  double power_kw = 0.0;
  double kwh = 0.0;
  double last = 0.0;

  void advance_to(double t, double warmup, double horizon) {
    const double a = std::max(last, warmup);
    const double b = std::min(t, horizon);
    if (b > a) kwh += power_kw * (b - a) / 3600.0;
    last = t;
  }
};

// The result finalizer and end-of-run recorder every entry point ends in.
// `result.per_type` holds the run's counters.
void finish_run(SimResult& result, const SimOptions& options,
                double tracking_error, double energy_kwh,
                const RunTotals& totals, const char* run_counter) {
  result.measured_seconds = options.duration_seconds - options.warmup_seconds;
  for (const PerTypeMetrics& m : result.per_type) result.total_reward += m.reward;
  result.reward_rate = result.total_reward / result.measured_seconds;
  result.mean_tracking_error = tracking_error;
  result.energy_kwh = energy_kwh;
  result.reward_per_kwh =
      result.energy_kwh > 0.0 ? result.total_reward / result.energy_kwh : 0.0;

  util::telemetry::Registry* const reg = options.telemetry;
  if (!reg) return;
  reg->count(run_counter);
  reg->count("sim.events_processed", totals.events);
  reg->gauge_max("sim.queue_depth_high_water",
                 static_cast<double>(totals.max_pending));
  std::size_t arrived = 0, assigned = 0, dropped = 0, in_time = 0, late = 0;
  for (const PerTypeMetrics& m : result.per_type) {
    arrived += m.arrived;
    assigned += m.assigned;
    dropped += m.dropped;
    in_time += m.completed_in_time;
    late += m.completed_late;
  }
  reg->count("sim.arrivals", arrived);
  reg->count("scheduler.assigned", assigned);
  reg->count("scheduler.dropped", dropped);
  reg->count("scheduler.completed_in_time", in_time);
  reg->count("scheduler.deadline_misses", late);
  reg->gauge_set("scheduler.final_tracking_error", result.mean_tracking_error);
  reg->gauge_set("sim.reward_rate", result.reward_rate);
  reg->gauge_set("sim.drop_fraction", result.drop_fraction());
  reg->gauge_set("sim.energy_kwh", result.energy_kwh);
  reg->count("scheduler.routes_indexed", totals.routing.indexed_routes);
  reg->count("scheduler.routes_scan", totals.routing.scan_routes);
  reg->count("scheduler.index_pops", totals.routing.index_pops);
  reg->count("scheduler.index_deferred", totals.routing.index_deferred);
  reg->count("scheduler.index_parks", totals.routing.index_parks);
  reg->count("scheduler.index_stale_pops", totals.routing.index_stale_pops);
  reg->count("sim.arrival_batches", totals.batches);
  reg->gauge_max("sim.max_batch_size", static_cast<double>(totals.max_batch));
}

// A task admitted to a core and neither completed nor killed yet.
struct InFlight {
  double deadline;
  double finish;
  // The engine sequence number held for its completion (Engine::hold), or
  // kUntimed when it finishes past the horizon and never completes.
  std::uint64_t seq;
  std::uint32_t type;
  // Admission counted inside the measured window; a kill reclassifies such
  // an admission as a drop so arrived == assigned + dropped always holds.
  bool counted;
};

constexpr std::uint64_t kUntimed = std::numeric_limits<std::uint64_t>::max();

// One FIFO of in-flight tasks per core, threaded through a shared slot pool,
// and the completion cursor over them. Freed slots are reused first, so the
// pool never outgrows the peak number of tasks in flight, and admissions
// keep touching the same few cache lines however many cores the park has.
// That peak is the live backlog: an arrival batch ends at the first
// completion due, its own admissions' included (RunCore::run), so finished
// tasks free their slots between batches and the pool stays small however
// long the run.
//
// A core's finish times never decrease (start = max(now, free time)), so
// its next completion is its FIFO head. The cursor is a min-heap over cores
// keyed by the head's (finish, seq); it holds only timed heads, so every
// core with a completion due by the horizon has exactly one entry.
class InFlightQueues {
 public:
  explicit InFlightQueues(std::size_t cores)
      : head_(cores, kNone), tail_(cores, kNone) {}

  void push(std::size_t k, const InFlight& task) {
    if (free_ == kNone) {
      free_ = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back({task, kNone});
    }
    const std::uint32_t s = free_;
    free_ = slots_[s].next;
    slots_[s] = {task, kNone};
    if (tail_[k] == kNone) {
      head_[k] = s;
      if (task.seq != kUntimed) {
        cursor_.push_back({task.finish, task.seq, static_cast<std::uint32_t>(k)});
        sift_up(cursor_.size() - 1);
      }
    } else {
      slots_[tail_[k]].next = s;
    }
    tail_[k] = s;
  }

  // The earliest timed completion: false when none is due by the horizon.
  bool next(double& finish, std::uint64_t& seq) const {
    if (cursor_.empty()) return false;
    finish = cursor_.front().finish;
    seq = cursor_.front().seq;
    return true;
  }

  // Removes and returns the task of the earliest timed completion; the
  // cursor must not be empty.
  InFlight pop_next() {
    const std::uint32_t k = cursor_.front().core;
    const InFlight task = pop(k);
    const std::uint32_t h = head_[k];
    if (h != kNone && slots_[h].task.seq != kUntimed) {
      cursor_.front() = {slots_[h].task.finish, slots_[h].task.seq, k};
    } else {
      cursor_.front() = cursor_.back();
      cursor_.pop_back();
    }
    if (!cursor_.empty()) sift_down(0);
    return task;
  }

  // Empties core k's FIFO, returning its tasks in admission order.
  std::vector<InFlight> take(std::size_t k) {
    for (std::size_t i = 0; i < cursor_.size(); ++i) {
      if (cursor_[i].core != k) continue;
      cursor_[i] = cursor_.back();
      cursor_.pop_back();
      if (i < cursor_.size()) {
        sift_down(i);
        sift_up(i);
      }
      break;
    }
    std::vector<InFlight> tasks;
    while (head_[k] != kNone) tasks.push_back(pop(k));
    return tasks;
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  struct Slot {
    InFlight task;
    std::uint32_t next;
  };
  struct Head {
    double finish;
    std::uint64_t seq;
    std::uint32_t core;
  };
  static bool earlier(const Head& a, const Head& b) {
    return a.finish < b.finish || (a.finish == b.finish && a.seq < b.seq);
  }

  // Unlinks core k's oldest task; the FIFO must not be empty.
  InFlight pop(std::size_t k) {
    const std::uint32_t s = head_[k];
    head_[k] = slots_[s].next;
    if (head_[k] == kNone) tail_[k] = kNone;
    slots_[s].next = free_;
    free_ = s;
    return slots_[s].task;
  }

  void sift_up(std::size_t i) {
    const Head h = cursor_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(h, cursor_[parent])) break;
      cursor_[i] = cursor_[parent];
      i = parent;
    }
    cursor_[i] = h;
  }

  void sift_down(std::size_t i) {
    const Head h = cursor_[i];
    const std::size_t n = cursor_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(cursor_[child + 1], cursor_[child])) ++child;
      if (!earlier(cursor_[child], h)) break;
      cursor_[i] = cursor_[child];
      i = child;
    }
    cursor_[i] = h;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_ = kNone;
  std::vector<std::uint32_t> head_, tail_;  // per core; kNone when empty
  std::vector<Head> cursor_;                // min-heap under earlier()
};

// The one online run every entry point drives (docs/SCHEDULER.md §3): the
// event calendar, the scheduler routing against per-core backlogs, one FIFO
// of in-flight tasks per core with the completion cursor over them,
// completion-side reward booking, piecewise energy and the telemetry
// samplers. Entry points differ only in the arrival
// source they hand run() and in the events they schedule on engine() first.
class RunCore {
 public:
  RunCore(const dc::DataCenter& dc, const core::Assignment& plan,
          const SimOptions& options)
      : dc_(dc),
        options_(options),
        plan_(&plan),
        core_free_time_(dc.total_cores(), 0.0),
        in_flight_(dc.total_cores()) {
    if (!options_.scheduler.telemetry) {
      options_.scheduler.telemetry = options.telemetry;
    }
    scheduler_ =
        std::make_unique<core::DynamicScheduler>(dc, plan, options_.scheduler);
    energy_.power_kw = plan.total_power_kw();
    result_.per_type.assign(dc.num_task_types(), {});
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      for (std::size_t k = 0; k < dc.total_cores(); ++k) {
        result_.per_type[i].desired_rate += plan.tc(i, k);
      }
    }
  }
  // Calendar events hold `this`.
  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  Engine& engine() { return engine_; }
  const core::Assignment& plan() const { return *plan_; }

  // TC-weighted relative L1 deviation of realized from desired rates at
  // `now` (the SimResult::mean_tracking_error definition, evaluated mid-run
  // by the telemetry sampler and the re-plan check as well as once at the
  // end).
  double tracking_error(double now) const {
    double err_sum = 0.0;
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < dc_.num_task_types(); ++i) {
      for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
        const double tc = plan_->tc(i, k);
        if (tc <= 0.0) continue;
        err_sum += std::fabs(scheduler_->atc(i, k, now) - tc);
        weight_sum += tc;
      }
    }
    return weight_sum > 0.0 ? err_sum / weight_sum : 0.0;
  }

  // Routes a task through the plan in force. A placed task joins its core's
  // FIFO and, when it finishes by the horizon, holds a completion event.
  bool admit(std::size_t type, double now, double deadline, bool counted) {
    const auto decision = scheduler_->route(type, now, core_free_time_);
    if (!decision.assigned) return false;
    const std::size_t k = decision.core;
    const double finish =
        std::max(now, core_free_time_[k]) + decision.exec_seconds;
    core_free_time_[k] = finish;
    const std::uint64_t seq =
        finish <= options_.duration_seconds ? engine_.hold() : kUntimed;
    in_flight_.push(k, {deadline, finish, seq, static_cast<std::uint32_t>(type),
                        counted});
    return true;
  }

  // A measured-window admission that ended up killed or unplaceable.
  void drop_admitted(std::size_t type) {
    --result_.per_type[type].assigned;
    ++result_.per_type[type].dropped;
  }

  // Kills the work queued on core k at `now` and returns it in admission
  // order; the core's held completion events are cancelled.
  std::vector<InFlight> evict(std::size_t k, double now) {
    core_free_time_[k] = now;
    scheduler_->backlog_lowered();  // the route() backlog contract
    std::vector<InFlight> tasks = in_flight_.take(k);
    for (const InFlight& task : tasks) {
      if (task.seq != kUntimed) engine_.cancel_held();
    }
    return tasks;
  }

  // Makes `plan` the plan in force from `now`: energy integrates up to the
  // swap and the scheduler is rebuilt on the new plan. Its ATC tracking
  // state resets on purpose — realized-rate history against a retired plan
  // is meaningless for the new rate matrix — while the retired scheduler's
  // routing-path stats carry into the end-of-run counters.
  void adopt(core::Assignment plan, double now) {
    energy_.advance_to(now, options_.warmup_seconds, options_.duration_seconds);
    energy_.power_kw = plan.total_power_kw();
    accumulate(totals_.routing, scheduler_->stats());
    // The retired plan outlives the scheduler that still references it.
    const auto retired = std::exchange(
        owned_plan_, std::make_unique<core::Assignment>(std::move(plan)));
    plan_ = owned_plan_.get();
    scheduler_ =
        std::make_unique<core::DynamicScheduler>(dc_, *plan_, options_.scheduler);
  }

  // Drives the run to the horizon: admission batches interleaved with
  // calendar events and completions in global time order. An arrival batch
  // runs up to the earlier of the next calendar event and the next
  // completion, and an admission that finishes before that bound lowers it;
  // events come first on exact ties, and a calendar event and a completion
  // at the same time run in engine sequence order.
  template <typename Source>
  void run(Source& arrivals) {
    util::telemetry::Registry* const reg = options_.telemetry;
    const double horizon = options_.duration_seconds;
    // Samplers are pure observers at evenly spaced simulated times: they
    // read state but mutate nothing, so they cannot change the outcome
    // (their own events do count in sim.events_processed).
    if (reg && options_.telemetry_samples > 0) {
      for (std::size_t s = 0; s < options_.telemetry_samples; ++s) {
        const double t = horizon * static_cast<double>(s + 1) /
                         static_cast<double>(options_.telemetry_samples);
        engine_.schedule_at(t, [this, reg, t] {
          reg->sample("scheduler.tracking_error", t, tracking_error(t));
          reg->sample("sim.queue_depth", t,
                      static_cast<double>(engine_.pending()));
          reg->sample("scheduler.backlog", t,
                      backlog_depth(dc_, core_free_time_, t));
          reg->sample("sim.active_power_kw", t, energy_.power_kw);
        });
      }
    }

    double ta = 0.0;
    std::size_t type = 0;
    while (true) {
      const bool have_arrival = arrivals.peek(ta, type);
      const double t_event = engine_.next_time();
      double t_done = kInf;
      std::uint64_t seq = 0;
      const bool have_completion = in_flight_.next(t_done, seq);
      double te = std::min(t_event, t_done);
      if (have_arrival && ta < te) {
        std::size_t batch = 0;
        do {
          arrive(type, ta);
          arrivals.advance(type, ta);
          ++batch;
          if (in_flight_.next(t_done, seq)) te = std::min(te, t_done);
        } while (arrivals.peek(ta, type) && ta < te);
        ++totals_.batches;
        totals_.max_batch = std::max(totals_.max_batch, batch);
      } else if (have_completion &&
                 (t_done < t_event ||
                  (t_done == t_event && seq < engine_.next_seq()))) {
        complete();
      } else if (!engine_.run_one(horizon)) {
        break;
      }
    }
    engine_.run_until(horizon);  // no events left; advances the clock only
    energy_.advance_to(horizon, options_.warmup_seconds, horizon);
  }

  RunTotals totals() const {
    RunTotals totals = totals_;
    accumulate(totals.routing, scheduler_->stats());
    totals.events = engine_.executed();
    totals.max_pending = engine_.max_pending();
    return totals;
  }

  SimResult finish(const char* run_counter) {
    finish_run(result_, options_, tracking_error(options_.duration_seconds),
               energy_.kwh, totals(), run_counter);
    return std::move(result_);
  }

 private:
  // Reward is booked at the completion event, not at admission: booking at
  // admission would credit queued work that never executes inside the
  // measured window, letting deep-queueing policies appear to beat the
  // steady-state LP bound (deadlines of slow task types span minutes).
  void arrive(std::size_t type, double now) {
    PerTypeMetrics& m = result_.per_type[type];
    const bool counted = now >= options_.warmup_seconds;
    const bool placed =
        admit(type, now, now + dc_.task_types[type].relative_deadline, counted);
    if (!counted) return;
    ++m.arrived;
    ++(placed ? m.assigned : m.dropped);
  }

  // Fires the cursor's earliest completion. Timed completions all finish
  // by the horizon, so the run loop fires each one.
  void complete() {
    const InFlight task = in_flight_.pop_next();
    const double finish = task.finish;
    engine_.fire_held(finish);
    if (finish < options_.warmup_seconds) return;
    PerTypeMetrics& m = result_.per_type[task.type];
    if (finish <= task.deadline + 1e-12) {
      ++m.completed_in_time;
      m.reward += dc_.task_types[task.type].reward;
    } else {
      ++m.completed_late;
    }
  }

  const dc::DataCenter& dc_;
  SimOptions options_;
  Engine engine_;
  const core::Assignment* plan_;
  std::unique_ptr<core::Assignment> owned_plan_;  // set once a plan is adopted
  std::unique_ptr<core::DynamicScheduler> scheduler_;
  std::vector<double> core_free_time_;
  InFlightQueues in_flight_;
  EnergyMeter energy_;
  RunTotals totals_;  // routing stats of the schedulers adopt() replaced
  SimResult result_;
};

// The checks every entry point runs before a run starts. The rate trace's
// type count can only be checked against a concrete data center.
util::Status check_run(const dc::DataCenter& dc, const core::Assignment& plan,
                       const SimOptions& options,
                       const Trace* replay = nullptr) {
  if (util::Status s = options.validate(); !s.ok()) return s;
  if (!plan.feasible) {
    return util::Status::FailedPrecondition(
        "cannot simulate an infeasible assignment");
  }
  const RateTrace* trace = options.rate_trace;
  if (trace && trace->num_task_types() != dc.num_task_types()) {
    return util::Status::InvalidArgument(
        "rate trace covers " + std::to_string(trace->num_task_types()) +
        " task types, data center has " + std::to_string(dc.num_task_types()));
  }
  if (!replay) return util::Status::Ok();
  // A replay reads events up to the first one past the horizon; each must
  // name one of the data center's task types and come no earlier than the
  // one before it (the first no earlier than time 0).
  double previous = 0.0;
  for (std::size_t e = 0; e < replay->size(); ++e) {
    const TraceEvent& event = (*replay)[e];
    if (!(event.time >= previous)) {
      return util::Status::InvalidArgument(
          "trace event " + std::to_string(e) + " at t=" +
          std::to_string(event.time) + "s is out of order");
    }
    if (event.time > options.duration_seconds) break;
    if (event.task_type >= dc.num_task_types()) {
      return util::Status::InvalidArgument(
          "trace event " + std::to_string(e) + " has task type " +
          std::to_string(event.task_type) + ", data center has " +
          std::to_string(dc.num_task_types()));
    }
    previous = event.time;
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SimOptions::validate() const {
  if (!std::isfinite(duration_seconds) || duration_seconds <= 0.0) {
    return util::Status::InvalidArgument(
        "sim duration must be positive and finite");
  }
  if (!std::isfinite(warmup_seconds) || warmup_seconds < 0.0) {
    return util::Status::InvalidArgument(
        "sim warm-up must be non-negative and finite");
  }
  if (warmup_seconds >= duration_seconds) {
    return util::Status::InvalidArgument(
        "sim warm-up must end before the horizon (warmup " +
        std::to_string(warmup_seconds) + "s >= duration " +
        std::to_string(duration_seconds) + "s)");
  }
  if (util::Status s = scheduler.validate(); !s.ok()) {
    return s.with_context("scheduler options");
  }
  if (rate_trace != nullptr) {
    if (util::Status s = rate_trace->validate(); !s.ok()) {
      return s.with_context("rate trace");
    }
  }
  return util::Status::Ok();
}

double SimResult::drop_fraction() const {
  std::size_t arrived = 0, dropped = 0;
  for (const PerTypeMetrics& m : per_type) {
    arrived += m.arrived;
    dropped += m.dropped;
  }
  return arrived ? static_cast<double>(dropped) / static_cast<double>(arrived) : 0.0;
}

SimResult simulate(const dc::DataCenter& dc, const core::Assignment& assignment,
                   const SimOptions& options) {
  SimResult rejected;
  rejected.status = check_run(dc, assignment, options);
  if (!rejected.status.ok()) return rejected;
  const util::telemetry::ScopedTimer run_timer(options.telemetry, "sim.run");
  RunCore run(dc, assignment, options);
  ArrivalPump pump(dc.task_types, util::Rng(options.seed),
                   options.duration_seconds, options.rate_trace);
  run.run(pump);
  return run.finish("sim.runs");
}

SimResult simulate_trace(const dc::DataCenter& dc,
                         const core::Assignment& assignment, const Trace& trace,
                         const SimOptions& options) {
  SimResult rejected;
  rejected.status = check_run(dc, assignment, options, &trace);
  if (!rejected.status.ok()) return rejected;
  const util::telemetry::ScopedTimer run_timer(options.telemetry, "sim.replay");
  RunCore run(dc, assignment, options);
  TraceCursor cursor{trace, options.duration_seconds};
  run.run(cursor);
  return run.finish("sim.replays");
}

FaultSimResult simulate_with_faults(dc::DataCenter& dc,
                                    const thermal::HeatFlowModel& model,
                                    const core::Assignment& initial,
                                    const FaultSchedule& schedule,
                                    const FaultSimOptions& options) {
  FaultSimResult out;
  out.status = check_run(dc, initial, options.sim);
  if (!out.status.ok()) return out;
  if (util::Status s = schedule.validate(dc); !s.ok()) {
    out.status = s.with_context("fault schedule");
    return out;
  }
  if (util::Status s = options.recovery.validate(); !s.ok()) {
    out.status = s.with_context("recovery options");
    return out;
  }
  if (options.replan) {
    if (util::Status s = options.replan->validate(); !s.ok()) {
      out.status = s.with_context("replanner options");
      return out;
    }
  }

  util::telemetry::Registry* const reg = options.sim.telemetry;
  const util::telemetry::ScopedTimer run_timer(reg, "sim.fault_run");

  // The run mutates the degraded-mode state and the budget; restore both so
  // the caller's data center comes back exactly as passed.
  const double saved_pconst = dc.p_const_kw;
  const std::vector<std::uint8_t> saved_failed = dc.node_failed_mask;
  const std::vector<double> saved_crac_min = dc.crac_min_outlet_c;

  const double horizon = options.sim.duration_seconds;
  const double tcrac_min = options.recovery.assign.stage1.tcrac_min_c;
  const double tcrac_max = options.recovery.assign.stage1.tcrac_max_c;

  RunCore run(dc, initial, options.sim);
  Engine& engine = run.engine();

  // A newer fault — or a newer horizon step — supersedes any pending re-plan
  // adoption: adoption events capture the generation at scheduling time and
  // fire only if it is still current.
  std::uint64_t plan_generation = 0;
  const auto adopt_later = [&](core::Assignment plan,
                               std::function<void()> on_adopted) {
    engine.schedule_at(
        engine.now() + options.recovery.replan_delay_s,
        [&, gen = plan_generation, plan = std::move(plan),
         on_adopted = std::move(on_adopted)]() mutable {
          if (gen != plan_generation) return;
          run.adopt(std::move(plan), engine.now());
          on_adopted();
        });
  };

  // --- Receding-horizon re-planner state (FaultSimOptions::replan) --------
  std::unique_ptr<core::RollingPlanner> planner;
  core::ReplannerOptions replan_options;
  if (options.replan) {
    replan_options = *options.replan;
    if (!replan_options.telemetry) replan_options.telemetry = reg;
    planner = std::make_unique<core::RollingPlanner>(dc, model, initial,
                                                     replan_options);
  }
  const RateTrace* const trace = options.sim.rate_trace;
  // Arrival rates the planner should track at time t: the trace's curves, or
  // the stationary rates when no trace is loaded.
  const auto lambda_at = [&](double t) {
    std::vector<double> lambda(dc.num_task_types());
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      lambda[i] =
          trace ? trace->rate_at(i, t) : dc.task_types[i].arrival_rate;
    }
    return lambda;
  };
  double last_plan_time = 0.0;        // last trigger fire (any rung)
  double next_attempt_allowed = 0.0;  // bounded-backoff gate
  double recovery_pending_until = -1.0;  // fault re-plan adoption in flight
  double degraded_since = -1.0;       // entering time of the degraded mode

  const auto on_fault = [&](const FaultEvent& ev) {
    const double now = engine.now();
    ++plan_generation;
    FaultRecord record;
    record.event = ev;

    apply_fault(dc, ev, tcrac_min, tcrac_max);
    if (reg) {
      reg->count("fault.events");
      switch (ev.kind) {
        case FaultKind::kNodeFail:
          reg->count("fault.node_failures");
          break;
        case FaultKind::kNodeRepair:
          reg->count("fault.node_repairs");
          break;
        case FaultKind::kCracDerate:
          reg->count("fault.crac_derates");
          break;
        case FaultKind::kCracRepair:
          reg->count("fault.crac_repairs");
          break;
        case FaultKind::kPowerCap:
          reg->count("fault.power_caps");
          break;
      }
    }
    TAPO_TELEM_EVENT(reg, "fault.inject", now,
                     {{"kind", static_cast<double>(ev.kind)},
                      {"target", static_cast<double>(ev.target)},
                      {"value", ev.value}});

    // Kill in-flight and queued work on the lost cores. A killed task whose
    // admission fell inside the measured window has that admission
    // reclassified as a drop (unless it is successfully requeued).
    std::vector<InFlight> orphans;
    if (ev.kind == FaultKind::kNodeFail) {
      const std::size_t begin = dc.core_offset(ev.target);
      const std::size_t n = dc.node_type(ev.target).cores_per_node();
      for (std::size_t k = begin; k < begin + n; ++k) {
        for (const InFlight& task : run.evict(k, now)) {
          ++record.tasks_killed;
          if (options.in_flight == InFlightPolicy::kRequeue) {
            orphans.push_back(task);
          } else if (task.counted) {
            run.drop_admitted(task.type);
          }
        }
      }
    }

    // Two-phase recovery against the plan in force.
    const core::RecoveryController controller(dc, model, options.recovery);
    core::RecoveryOutcome rec = controller.recover(run.plan());
    record.safe = rec.safe;
    record.replan_adopted = rec.replan_adopted;
    record.recovery_status = rec.status;
    record.throttle_reward_rate = rec.throttle_reward_rate;
    record.replan_reward_rate = rec.replan_reward_rate;

    // The safety throttle takes effect at the fault instant. The hardware
    // (and with it the Stage-3 class structure) changed, so the rolling
    // planner — if one is running — must re-anchor on the throttle plan.
    run.adopt(std::move(rec.throttle), now);
    if (planner) {
      planner->rebind(run.plan());
      last_plan_time = now;
    }

    // Orphans re-route through the throttle plan, original deadlines kept
    // (they may well complete late); unplaceable ones count as drops.
    for (const InFlight& task : orphans) {
      if (run.admit(task.type, now, task.deadline, task.counted)) {
        ++record.tasks_requeued;
      } else if (task.counted) {
        run.drop_admitted(task.type);
      }
    }
    if (reg) {
      reg->count("fault.tasks_killed", record.tasks_killed);
      reg->count("fault.tasks_requeued", record.tasks_requeued);
    }

    // The re-plan (computed now, deterministic) activates after the
    // configured delay unless a newer fault supersedes it.
    if (rec.replan_adopted) {
      ++out.replans_adopted;
      recovery_pending_until = now + options.recovery.replan_delay_s;
      adopt_later(std::move(rec.plan), [&] {
        recovery_pending_until = -1.0;
        // The recovery plan's P-states replace the throttle's: rebuild the
        // rolling planner's resident LP around them.
        if (planner) {
          planner->rebind(run.plan());
          last_plan_time = engine.now();
        }
        if (reg) reg->count("recovery.replans_activated");
      });
    }
    out.faults.push_back(std::move(record));
  };

  for (const FaultEvent& ev : schedule.events) {
    if (ev.time_s > horizon) continue;  // never fires; not recorded
    engine.schedule_at(ev.time_s, [&on_fault, ev] { on_fault(ev); });
  }

  // Receding-horizon check chain: a self-rescheduling calendar event every
  // sensor_period_s reads the tracking-error sensor and fires a horizon
  // step on the cadence or on a sensor breach — unless gated by the bounded
  // backoff after a degraded step or by a fault re-plan adoption in flight
  // (the full three-stage recovery plan outranks a rates-only patch).
  std::function<void()> replan_check;
  if (planner) {
    replan_check = [&] {
      const double now = engine.now();
      const bool gated =
          now + 1e-9 < next_attempt_allowed ||
          (recovery_pending_until >= 0.0 && now < recovery_pending_until);
      bool cadence_fire = false;
      bool tracking_fire = false;
      if (!gated) {
        if (now - last_plan_time >= replan_options.cadence_s - 1e-9) {
          cadence_fire = true;
        } else if (replan_options.tracking_error_threshold > 0.0 &&
                   run.tracking_error(now) >
                       replan_options.tracking_error_threshold) {
          tracking_fire = true;
        }
      }
      if (cadence_fire || tracking_fire) {
        if (reg) {
          reg->count(cadence_fire ? "replan.triggers_cadence"
                                  : "replan.triggers_tracking");
        }
        last_plan_time = now;
        core::HorizonStep step = planner->step(lambda_at(now));
        ++out.horizon_steps;
        if (reg) {
          reg->sample("replan.step_times", now,
                      static_cast<double>(out.horizon_steps));
        }
        if (step.adopted()) {
          ++out.horizon_adoptions;
          if (degraded_since >= 0.0) {
            out.horizon_degraded_time_s += now - degraded_since;
            degraded_since = -1.0;
          }
          // Generation-guarded adoption, exactly like fault recovery: a
          // fault (or a newer step) between now and the actuation instant
          // supersedes this plan.
          ++plan_generation;
          adopt_later(std::move(step.plan), [&] {
            if (reg) reg->count("replan.adoptions_activated");
          });
        } else {
          ++out.horizon_degraded;
          if (degraded_since < 0.0) degraded_since = now;
          next_attempt_allowed = now + step.retry_after_s;
          if (step.rung == core::HorizonStep::Rung::kThrottled) {
            ++out.horizon_throttles;
            // The safety action is immediate and supersedes any in-flight
            // adoption — an unverified plan must never outrank it.
            ++plan_generation;
            run.adopt(std::move(step.plan), now);
          }
        }
      }
      const double next = now + replan_options.sensor_period_s;
      if (next <= horizon) engine.schedule_at(next, [&] { replan_check(); });
    };
    if (replan_options.sensor_period_s <= horizon) {
      engine.schedule_at(replan_options.sensor_period_s,
                         [&] { replan_check(); });
    }
  }

  ArrivalPump pump(dc.task_types, util::Rng(options.sim.seed), horizon,
                   options.sim.rate_trace);
  run.run(pump);
  if (degraded_since >= 0.0) {
    out.horizon_degraded_time_s += horizon - degraded_since;
  }
  out.sim = run.finish("sim.fault_runs");
  if (reg) {
    reg->count("recovery.replans_adopted_total", out.replans_adopted);
    if (planner) {
      reg->gauge_set("replan.degraded_time_s", out.horizon_degraded_time_s);
    }
  }

  dc.p_const_kw = saved_pconst;
  dc.node_failed_mask = saved_failed;
  dc.crac_min_outlet_c = saved_crac_min;
  return out;
}

}  // namespace tapo::sim
