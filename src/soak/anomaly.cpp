#include "soak/anomaly.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tapo::soak {

namespace {

using util::telemetry::Sample;

// Monotone ramp (queue depth): fire when at least kRampMinMonotone of
// consecutive steps are non-decreasing AND the final value exceeds the
// early-window mean by the caller's min_rise absolutely AND by a factor of
// kRampRiseFactor relatively (the factor is waived while the early mean is
// below the absolute floor — a queue that starts empty has no baseline).
constexpr std::size_t kRampMinPoints = 8;
constexpr double kRampMinMonotone = 0.85;
constexpr double kRampRiseFactor = 3.0;

// Rolling-band drift (tracking error): the first half of the series sets the
// band (mean + max(kDriftMinBand, kDriftBandSigmas * stddev)); fire when the
// mean of the last quarter leaves it.
constexpr std::size_t kDriftMinPoints = 8;
constexpr double kDriftBandSigmas = 4.0;
constexpr double kDriftMinBand = 0.05;

// Session-fallback spike: fire when lp.session.fallbacks / lp.session.solves
// exceeds kFallbackMaxFraction with at least kFallbackMinSolves solves
// observed (below that the ratio is noise).
constexpr double kFallbackMaxFraction = 0.25;
constexpr std::uint64_t kFallbackMinSolves = 8;

// FT-budget pressure: fire when lp.session.ft_budget_exhausted /
// lp.session.resident_resumes exceeds kFtBudgetMaxFraction (with the same
// min-solves floor). Resumes that exhaust the patch-repair update budget fall
// back to a full refactorization — correct but paying the cost sessions exist
// to amortize; a sustained spike means the patch bursts outgrew
// `ft_max_updates` for this workload.
constexpr double kFtBudgetMaxFraction = 0.5;

// Re-plan storm: fire when more than kReplanStormMaxSteps horizon steps land
// inside any sliding kReplanStormWindowS window of the replan.step_times
// series (one sample per step, recorded at its simulated time). A healthy
// rolling planner fires on its cadence plus the occasional tracking trigger;
// a storm means the trigger logic is flapping — each adopted plan immediately
// re-trips the sensor — and the fleet is paying LP time for churn, not
// reward.
constexpr double kReplanStormWindowS = 30.0;
constexpr std::size_t kReplanStormMaxSteps = 8;

double mean_of(const std::vector<Sample>& samples, std::size_t begin,
               std::size_t end) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += samples[i].value;
  return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

std::optional<Anomaly> detect_monotone_ramp(const std::string& series,
                                            const std::vector<Sample>& samples,
                                            double min_rise) {
  const std::size_t n = samples.size();
  if (n < kRampMinPoints) return std::nullopt;

  std::size_t non_decreasing = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (samples[i].value >= samples[i - 1].value - 1e-12) ++non_decreasing;
  }
  const double monotone_fraction =
      static_cast<double>(non_decreasing) / static_cast<double>(n - 1);
  if (monotone_fraction < kRampMinMonotone) return std::nullopt;

  // Baseline: the first quarter of the window (>= 1 sample).
  const std::size_t head = std::max<std::size_t>(1, n / 4);
  const double baseline = mean_of(samples, 0, head);
  const double last = samples[n - 1].value;
  const double rise = last - baseline;
  if (rise < min_rise) return std::nullopt;
  // Relative growth check only once the baseline itself is meaningful; a
  // queue that starts near empty is judged on the absolute rise alone.
  if (baseline > min_rise && last < kRampRiseFactor * baseline) {
    return std::nullopt;
  }

  Anomaly a;
  a.detector = "ramp";
  a.series = series;
  a.value = rise;
  a.threshold = min_rise;
  a.detail = series + " rose monotonically (" + fmt(monotone_fraction * 100.0) +
             "% non-decreasing steps) from " + fmt(baseline) + " to " +
             fmt(last);
  return a;
}

std::optional<Anomaly> detect_drift(const std::string& series,
                                    const std::vector<Sample>& samples) {
  const std::size_t n = samples.size();
  if (n < kDriftMinPoints) return std::nullopt;

  // Band from the first half: mean + max(min_band, sigmas * stddev).
  const std::size_t half = n / 2;
  const double base_mean = mean_of(samples, 0, half);
  double var = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    const double d = samples[i].value - base_mean;
    var += d * d;
  }
  var /= static_cast<double>(half);
  const double band =
      std::max(kDriftMinBand, kDriftBandSigmas * std::sqrt(var));
  const double limit = base_mean + band;

  // Statistic: the mean of the last quarter, so one noisy sample cannot
  // fire the detector on its own.
  const std::size_t tail = std::max<std::size_t>(1, n / 4);
  const double tail_mean = mean_of(samples, n - tail, n);
  if (tail_mean <= limit) return std::nullopt;

  Anomaly a;
  a.detector = "drift";
  a.series = series;
  a.value = tail_mean;
  a.threshold = limit;
  a.detail = series + " tail mean " + fmt(tail_mean) +
             " left the rolling band (baseline " + fmt(base_mean) +
             " + band " + fmt(band) + ")";
  return a;
}

std::optional<Anomaly> detect_fallback_spike(std::uint64_t fallbacks,
                                             std::uint64_t solves) {
  if (solves < kFallbackMinSolves) return std::nullopt;
  const double fraction =
      static_cast<double>(fallbacks) / static_cast<double>(solves);
  if (fraction <= kFallbackMaxFraction) return std::nullopt;

  Anomaly a;
  a.detector = "fallback_spike";
  a.series = "lp.session.fallbacks";
  a.value = fraction;
  a.threshold = kFallbackMaxFraction;
  a.detail = "lp.session fallbacks hit " + fmt(fraction * 100.0) + "% of " +
             std::to_string(solves) + " session solves";
  return a;
}

std::optional<Anomaly> detect_ft_budget_pressure(std::uint64_t exhausted,
                                                 std::uint64_t resumes) {
  if (resumes < kFallbackMinSolves) return std::nullopt;
  const double fraction =
      static_cast<double>(exhausted) / static_cast<double>(resumes);
  if (fraction <= kFtBudgetMaxFraction) return std::nullopt;

  Anomaly a;
  a.detector = "ft_budget_pressure";
  a.series = "lp.session.ft_budget_exhausted";
  a.value = fraction;
  a.threshold = kFtBudgetMaxFraction;
  a.detail = "FT update budget exhausted on " + fmt(fraction * 100.0) +
             "% of " + std::to_string(resumes) +
             " resident resumes (patch bursts outgrow ft_max_updates)";
  return a;
}

std::optional<Anomaly> detect_replan_storm(const std::string& series,
                                           const std::vector<Sample>& samples) {
  const std::size_t n = samples.size();
  if (n <= kReplanStormMaxSteps) return std::nullopt;

  // One sample per horizon step, stamped with its simulated time; slide a
  // window over the (sorted) step times and find the densest burst. Two
  // pointers, O(n).
  std::size_t worst_count = 0;
  double worst_start = 0.0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < n; ++hi) {
    while (samples[hi].x - samples[lo].x > kReplanStormWindowS) ++lo;
    const std::size_t count = hi - lo + 1;
    if (count > worst_count) {
      worst_count = count;
      worst_start = samples[lo].x;
    }
  }
  if (worst_count <= kReplanStormMaxSteps) return std::nullopt;

  Anomaly a;
  a.detector = "replan_storm";
  a.series = series;
  a.value = static_cast<double>(worst_count);
  a.threshold = static_cast<double>(kReplanStormMaxSteps);
  a.detail = std::to_string(worst_count) + " horizon steps inside " +
             fmt(kReplanStormWindowS) + "s starting at t=" +
             fmt(worst_start) + " (limit " +
             std::to_string(kReplanStormMaxSteps) + ")";
  return a;
}

namespace {

// Shared wiring over any (series, counter) source; keeps the Registry and
// Snapshot entry points byte-identical in behavior.
template <typename SeriesFn, typename CounterFn>
std::vector<Anomaly> run_standard_pass(const SeriesFn& series,
                                       const CounterFn& counter) {
  std::vector<Anomaly> anomalies;
  // scheduler.backlog is the true work queue (deepest core backlog in
  // longest-deadline units); sim.queue_depth is the engine's pending-event
  // count, which structurally drains near the horizon. Both are ramp-checked
  // so a runaway event queue is caught too.
  if (auto a = detect_monotone_ramp("scheduler.backlog",
                                    series("scheduler.backlog"),
                                    kBacklogMinRise)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_monotone_ramp("sim.queue_depth",
                                    series("sim.queue_depth"), kRampMinRise)) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_drift("scheduler.tracking_error",
                            series("scheduler.tracking_error"))) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_fallback_spike(counter("lp.session.fallbacks"),
                                     counter("lp.session.solves"))) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_ft_budget_pressure(
          counter("lp.session.ft_budget_exhausted"),
          counter("lp.session.resident_resumes"))) {
    anomalies.push_back(std::move(*a));
  }
  if (auto a = detect_replan_storm("replan.step_times",
                                   series("replan.step_times"))) {
    anomalies.push_back(std::move(*a));
  }
  return anomalies;
}

}  // namespace

std::vector<Anomaly> detect_anomalies(
    const util::telemetry::Registry& registry) {
  return run_standard_pass(
      [&](const char* name) { return registry.series_values(name); },
      [&](const char* name) { return registry.counter_value(name); });
}

std::vector<Anomaly> detect_anomalies(
    const util::telemetry::Snapshot& snapshot) {
  return run_standard_pass(
      [&](const char* name) {
        const auto* s = snapshot.find_series(name);
        return s ? *s : std::vector<Sample>{};
      },
      [&](const char* name) { return snapshot.counter(name); });
}

}  // namespace tapo::soak
