// Trace-driven workloads (extension).
//
// The paper's evaluation draws Poisson arrivals; production arrival streams
// are burstier. This module makes the arrival process a first-class,
// serializable artifact: generate a Poisson or two-state MMPP
// (Markov-modulated Poisson, quiet/burst phases with a preserved mean rate)
// trace, save/load it as CSV, and replay any trace against an assignment
// with the same completion-side accounting as the live simulator - so the
// sensitivity of the first-step plan to burstiness can be measured at equal
// offered load.
#pragma once

#include <string>
#include <vector>

#include "core/assigner.h"
#include "dc/datacenter.h"
#include "sim/des.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapo::sim {

struct TraceEvent {
  double time = 0.0;
  std::size_t task_type = 0;
};

// Chronologically sorted arrival events.
using Trace = std::vector<TraceEvent>;

// A Poisson trace with the task types' configured rates over [0, horizon).
// InvalidArgument when the horizon is not positive and finite.
util::StatusOr<Trace> generate_poisson_trace(
    const std::vector<dc::TaskType>& task_types, double horizon_seconds,
    util::Rng rng);

// Two-state MMPP per task type: exponential quiet/burst phases; the burst
// phase multiplies the rate, and the quiet rate is scaled so the long-run
// mean equals the configured arrival rate:
//   rate_quiet * (1 - duty) + multiplier * rate_quiet * duty = lambda.
struct MmppConfig {
  double burst_multiplier = 4.0;  // burst rate / quiet rate
  double mean_phase_seconds = 20.0;  // mean sojourn per phase visit
  double burst_duty = 0.25;          // long-run fraction of time in burst
};

// InvalidArgument when the horizon is not positive and finite, or the
// config is out of range: burst_multiplier finite and >= 1, burst_duty in
// (0, 1), mean_phase_seconds positive and finite.
util::StatusOr<Trace> generate_mmpp_trace(
    const std::vector<dc::TaskType>& task_types, double horizon_seconds,
    const MmppConfig& config, util::Rng rng);

// Empirical mean arrival rate per task type over the trace span.
std::vector<double> trace_rates(const Trace& trace, std::size_t num_task_types,
                                double horizon_seconds);

// CSV persistence: header "time,task_type", then one "<time>,<task_type>"
// event per line in time order, times as %.17g so a saved trace loads back
// bit for bit, under the shared lexical rules (util/text.h,
// docs/SCENARIOS.md "Lexical rules"). Loading reports the first bad line as
// "<path>: line N: ..." (NOT_FOUND when the file cannot be opened).
bool save_trace_csv(const Trace& trace, const std::string& path);
util::StatusOr<Trace> load_trace_csv(const std::string& path,
                                     std::size_t num_task_types);

// Replays a trace against an assignment on the same event loop as simulate()
// (sim/des.h), with the trace in place of the live arrival streams;
// options.seed is unused. Events past the horizon are ignored. Returns
// InvalidArgument for degenerate options or an event read before the
// horizon whose task type is out of range or whose time is negative, not a
// number or earlier than its predecessor's, and FailedPrecondition for an
// infeasible assignment.
SimResult simulate_trace(const dc::DataCenter& dc,
                         const core::Assignment& assignment, const Trace& trace,
                         const SimOptions& options = {});

}  // namespace tapo::sim
