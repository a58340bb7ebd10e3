#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "sim/arrivals.h"
#include "util/check.h"
#include "util/text.h"

namespace tapo::sim {

Trace generate_poisson_trace(const std::vector<dc::TaskType>& task_types,
                             double horizon_seconds, util::Rng rng) {
  TAPO_CHECK(horizon_seconds > 0.0);
  // The live simulator's arrival streams: replaying this trace reproduces a
  // live run with the same seed.
  ArrivalProcess arrivals(task_types, std::move(rng));
  Trace trace;
  for (std::size_t i = 0; i < task_types.size(); ++i) {
    for (double t = arrivals.next_arrival_after(i, 0.0); t < horizon_seconds;
         t = arrivals.next_arrival_after(i, t)) {
      trace.push_back({t, i});
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  return trace;
}

Trace generate_mmpp_trace(const std::vector<dc::TaskType>& task_types,
                          double horizon_seconds, const MmppConfig& config,
                          util::Rng rng) {
  TAPO_CHECK(horizon_seconds > 0.0);
  TAPO_CHECK(config.burst_multiplier >= 1.0);
  TAPO_CHECK(config.burst_duty > 0.0 && config.burst_duty < 1.0);
  TAPO_CHECK(config.mean_phase_seconds > 0.0);

  // Phase sojourn rates chosen so the stationary burst fraction equals
  // burst_duty with the requested mean phase length scale.
  const double leave_quiet =
      config.burst_duty / (config.mean_phase_seconds * (1.0 - config.burst_duty));
  const double leave_burst = 1.0 / config.mean_phase_seconds;

  Trace trace;
  for (std::size_t i = 0; i < task_types.size(); ++i) {
    const double lambda = task_types[i].arrival_rate;
    if (lambda <= 0.0) continue;
    const double quiet_rate =
        lambda / ((1.0 - config.burst_duty) +
                  config.burst_multiplier * config.burst_duty);
    const double burst_rate = config.burst_multiplier * quiet_rate;

    util::Rng stream = rng.fork(i);
    bool burst = stream.next_double() < config.burst_duty;  // stationary start
    double t = 0.0;
    double phase_end =
        stream.exponential(burst ? leave_burst : leave_quiet);
    while (t < horizon_seconds) {
      const double rate = burst ? burst_rate : quiet_rate;
      const double next = t + (rate > 0.0
                                   ? stream.exponential(rate)
                                   : horizon_seconds + 1.0);
      if (next < phase_end) {
        t = next;
        if (t < horizon_seconds) trace.push_back({t, i});
      } else {
        t = phase_end;
        burst = !burst;
        phase_end = t + stream.exponential(burst ? leave_burst : leave_quiet);
      }
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  return trace;
}

std::vector<double> trace_rates(const Trace& trace, std::size_t num_task_types,
                                double horizon_seconds) {
  TAPO_CHECK(horizon_seconds > 0.0);
  std::vector<double> rates(num_task_types, 0.0);
  for (const TraceEvent& e : trace) {
    TAPO_CHECK(e.task_type < num_task_types);
    rates[e.task_type] += 1.0;
  }
  for (double& r : rates) r /= horizon_seconds;
  return rates;
}

bool save_trace_csv(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "time,task_type\n";
  char buf[64];
  for (const TraceEvent& e : trace) {
    std::snprintf(buf, sizeof(buf), "%.9f,%zu\n", e.time, e.task_type);
    os << buf;
  }
  return static_cast<bool>(os);
}

namespace {

util::StatusOr<Trace> read_trace_csv(std::istream& is,
                                     std::size_t num_task_types) {
  util::text::LineReader reader(is);
  util::Status error = reader.expect_header("time,task_type");
  Trace trace;
  for (util::text::Line line; error.ok() && reader.next(line);) {
    const std::string& fields = line.tokens[0];
    const std::size_t comma = fields.find(',');
    TraceEvent e;
    if (line.tokens.size() != 1 || comma == std::string::npos ||
        !util::text::parse_number(fields.substr(0, comma), e.time) ||
        !util::text::parse_unsigned(fields.substr(comma + 1), e.task_type)) {
      error = util::text::at_line(line.number, "expected '<time>,<task_type>'");
    } else if (e.time < 0.0) {
      error = util::text::at_line(line.number, "negative time");
    } else if (e.task_type >= num_task_types) {
      error = util::text::at_line(
          line.number, "task type " + std::to_string(e.task_type) +
                           " out of range (have " +
                           std::to_string(num_task_types) + ")");
    } else if (!trace.empty() && e.time < trace.back().time) {
      error = util::text::at_line(line.number, "events out of time order");
    } else {
      trace.push_back(e);
    }
  }
  if (!error.ok()) return error;
  return trace;
}

}  // namespace

util::StatusOr<Trace> load_trace_csv(const std::string& path,
                                     std::size_t num_task_types) {
  return util::text::load_file(path, [&](std::istream& is) {
    return read_trace_csv(is, num_task_types);
  });
}

}  // namespace tapo::sim
