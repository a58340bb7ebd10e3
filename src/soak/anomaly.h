// Telemetry anomaly detection for soak runs.
//
// Point-in-time asserts catch outright wrong answers; the regressions that
// matter at fleet scale show up as *trends* over a run — a queue that only
// ever grows (the scheduler admits more than the park can execute), a
// tracking error that walks out of its steady-state band mid-run (demand
// drift the plan no longer matches), or a warm-LP fallback rate that spikes
// (the session machinery silently degrading to cold solves). Each detector
// here turns one such trend into a deterministic pass/fail over a recorded
// "tapo-telemetry-v1" series (docs/OBSERVABILITY.md), with thresholds
// (constants in anomaly.cpp) tuned so stationary-but-noisy series stay quiet
// (the unit suite pins both the planted true positives and a bounded
// false-positive rate).
//
// Detectors are pure functions of the sample vector: no clocks, no
// randomness, so a soak report is bit-identical across thread counts and
// cache states.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/telemetry.h"
#include "util/telemetry_read.h"

namespace tapo::soak {

// Rise floors for detect_monotone_ramp. A generic queue series must rise by
// at least kRampMinRise over its early-window mean. The scheduler.backlog
// series is recorded in units of the longest relative deadline (sim/des.cpp),
// and deadline-checked admission caps it at 1.0 by construction, so a rise
// past kBacklogMinRise is only reachable when unguarded admission is stacking
// work the park cannot execute.
inline constexpr double kRampMinRise = 8.0;
inline constexpr double kBacklogMinRise = 1.25;

struct Anomaly {
  std::string detector;  // "ramp" | "drift" | "fallback_spike" |
                         // "ft_budget_pressure" | "replan_storm"
  std::string series;    // series/counter name the finding anchors to
  double value = 0.0;       // observed statistic
  double threshold = 0.0;   // the bound it crossed
  std::string detail;       // human-readable one-liner
};

// Individual detectors, exposed for the unit suite. `series` is the name
// recorded into Anomaly::series; `min_rise` is the ramp's absolute rise floor
// (kRampMinRise, or kBacklogMinRise for scheduler.backlog).
std::optional<Anomaly> detect_monotone_ramp(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples, double min_rise);
std::optional<Anomaly> detect_drift(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples);
std::optional<Anomaly> detect_fallback_spike(std::uint64_t fallbacks,
                                             std::uint64_t solves);
std::optional<Anomaly> detect_ft_budget_pressure(std::uint64_t exhausted,
                                                 std::uint64_t resumes);
std::optional<Anomaly> detect_replan_storm(
    const std::string& series,
    const std::vector<util::telemetry::Sample>& samples);

// The standard wiring the soak runner applies to one scenario's telemetry:
//   * scheduler.backlog          -> monotone ramp (queued work, seconds)
//   * sim.queue_depth            -> monotone ramp (engine pending events)
//   * scheduler.tracking_error   -> rolling-band drift
//   * lp.session.fallbacks/solves -> fallback spike
//   * lp.session.ft_budget_exhausted/resident_resumes -> FT-budget pressure
//   * replan.step_times          -> re-plan storm (sliding-window step count)
// Returned in that fixed order, so reports are deterministic.
std::vector<Anomaly> detect_anomalies(
    const util::telemetry::Registry& registry);
// Same pass over a re-read snapshot (util/telemetry_read.h), so archived
// telemetry files can be regression-checked after the fact.
std::vector<Anomaly> detect_anomalies(
    const util::telemetry::Snapshot& snapshot);

}  // namespace tapo::soak
