// Anomaly detectors: planted ramps/drifts/spikes must fire, stationary and
// noisy series must stay quiet (a bounded false-positive pass over seeded
// noise), and the Registry and re-read Snapshot entry points must agree
// after a JSON round-trip.
#include "soak/anomaly.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/telemetry.h"
#include "util/telemetry_read.h"

namespace tapo::soak {
namespace {

using util::telemetry::Sample;

std::vector<Sample> series_of(const std::vector<double>& values) {
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < values.size(); ++i) {
    samples.push_back({static_cast<double>(i), values[i]});
  }
  return samples;
}

std::optional<Anomaly> ramp(const std::vector<double>& values) {
  return detect_monotone_ramp("q", series_of(values), kRampMinRise);
}

TEST(Ramp, FiresOnPlantedMonotoneRamp) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(static_cast<double>(i));
  const auto a = ramp(values);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->detector, "ramp");
  EXPECT_EQ(a->series, "q");
  EXPECT_GT(a->value, 8.0);
}

TEST(Ramp, FiresThroughSmallNoise) {
  util::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    values.push_back(static_cast<double>(i) + rng.uniform(-0.4, 0.4));
  }
  EXPECT_TRUE(ramp(values).has_value());
}

TEST(Ramp, QuietOnStationarySeries) {
  std::vector<double> values(64, 5.0);
  EXPECT_FALSE(ramp(values).has_value());
}

TEST(Ramp, QuietOnRampThatDrainsBack) {
  // Up then down: the fill-and-drain shape a healthy queue traces.
  std::vector<double> values;
  for (int i = 0; i < 32; ++i) values.push_back(static_cast<double>(i));
  for (int i = 32; i > 0; --i) values.push_back(static_cast<double>(i));
  EXPECT_FALSE(ramp(values).has_value());
}

TEST(Ramp, QuietBelowAbsoluteRise) {
  // Perfectly monotone but tiny: a queue settling from 0 to 3 is healthy.
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(i * 3.0 / 63.0);
  EXPECT_FALSE(ramp(values).has_value());
}

TEST(Ramp, QuietOnShortSeries) {
  std::vector<double> values = {0, 10, 20, 30};
  EXPECT_FALSE(ramp(values).has_value());
}

TEST(Ramp, RelativeFactorSuppressesHighBaselineCreep) {
  // From 100 to 120: rise 20 > 8 absolute, but only 1.2x the baseline.
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(100.0 + i * 20.0 / 63.0);
  EXPECT_FALSE(ramp(values).has_value());
}

TEST(Drift, FiresOnPlantedStepDrift) {
  std::vector<double> values(48, 1.0);
  for (int i = 0; i < 16; ++i) values.push_back(2.0);
  const auto a = detect_drift("e", series_of(values));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->detector, "drift");
  EXPECT_GT(a->value, a->threshold);
}

TEST(Drift, QuietOnStationaryNoise) {
  util::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) values.push_back(1.0 + rng.normal(0.0, 0.05));
  EXPECT_FALSE(detect_drift("e", series_of(values)).has_value());
}

TEST(Drift, MinBandAbsorbsNearConstantSeries) {
  // Stddev ~0 would make any wobble fire without the absolute band floor.
  std::vector<double> values(60, 0.5);
  values.push_back(0.52);
  values.push_back(0.52);
  EXPECT_FALSE(detect_drift("e", series_of(values)).has_value());
}

TEST(Spike, FiresOnHighFallbackFraction) {
  const auto a = detect_fallback_spike(5, 10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->detector, "fallback_spike");
  EXPECT_DOUBLE_EQ(a->value, 0.5);
}

TEST(Spike, QuietOnLowFractionOrFewSolves) {
  EXPECT_FALSE(detect_fallback_spike(1, 100).has_value());
  EXPECT_FALSE(detect_fallback_spike(3, 4).has_value());  // under min_solves
  EXPECT_FALSE(detect_fallback_spike(0, 0).has_value());
}

TEST(Spike, FiresOnFtBudgetPressure) {
  const auto a = detect_ft_budget_pressure(6, 10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->detector, "ft_budget_pressure");
  EXPECT_EQ(a->series, "lp.session.ft_budget_exhausted");
  EXPECT_DOUBLE_EQ(a->value, 0.6);
}

TEST(Spike, QuietOnOccasionalFtBudgetExhaustion) {
  // Half the resumes exhausting is the boundary (<=), and a handful of
  // resumes is below the evidence floor regardless of the ratio.
  EXPECT_FALSE(detect_ft_budget_pressure(5, 10).has_value());
  EXPECT_FALSE(detect_ft_budget_pressure(4, 4).has_value());
  EXPECT_FALSE(detect_ft_budget_pressure(0, 0).has_value());
}

TEST(ReplanStorm, FiresOnABurstOfSteps) {
  // 12 horizon steps inside 10 s; the default budget is 8 per 30 s window.
  std::vector<Sample> samples;
  for (int i = 0; i < 12; ++i) {
    samples.push_back({static_cast<double>(i), static_cast<double>(i + 1)});
  }
  const auto a = detect_replan_storm("replan.step_times", samples);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->detector, "replan_storm");
  EXPECT_EQ(a->series, "replan.step_times");
  EXPECT_DOUBLE_EQ(a->value, 12.0);
  EXPECT_DOUBLE_EQ(a->threshold, 8.0);
}

TEST(ReplanStorm, QuietOnHealthyCadence) {
  // 16 steps at a 20 s cadence: at most 2 fall in any 30 s window.
  std::vector<Sample> samples;
  for (int i = 0; i < 16; ++i) {
    samples.push_back({20.0 * i, static_cast<double>(i + 1)});
  }
  EXPECT_FALSE(
      detect_replan_storm("replan.step_times", samples).has_value());
}

TEST(ReplanStorm, QuietAtExactlyTheBudget) {
  // Exactly max_steps in one window is allowed; the detector fires only
  // strictly above the budget.
  std::vector<Sample> samples;
  for (int i = 0; i < 8; ++i) {
    samples.push_back({static_cast<double>(i), static_cast<double>(i + 1)});
  }
  samples.push_back({200.0, 9.0});  // 9th step far outside the window
  EXPECT_FALSE(
      detect_replan_storm("replan.step_times", samples).has_value());
}

TEST(ReplanStorm, QuietOnShortOrEmptySeries) {
  EXPECT_FALSE(detect_replan_storm("replan.step_times", {}).has_value());
  std::vector<Sample> few = {{0.0, 1.0}, {1.0, 2.0}};
  EXPECT_FALSE(detect_replan_storm("replan.step_times", few).has_value());
}

// Bounded false positives: seeded stationary-but-noisy series across many
// draws must never fire either trend detector (the thresholds are sized for
// exactly this). Deterministic seed, so this is a regression pin, not a
// flaky statistical test.
TEST(Detectors, NoFalsePositivesOnStationaryNoise) {
  util::Rng rng(20260808);
  std::size_t fired = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const double level = rng.uniform(0.0, 50.0);
    const double sigma = rng.uniform(0.01, 0.2) * (level + 1.0);
    std::vector<double> values;
    for (int i = 0; i < 64; ++i) values.push_back(level + rng.normal(0.0, sigma));
    const auto samples = series_of(values);
    if (detect_monotone_ramp("q", samples, kRampMinRise).has_value()) ++fired;
    if (detect_drift("e", samples).has_value()) ++fired;
  }
  EXPECT_EQ(fired, 0u);
}

TEST(Detectors, RegistryWiringReportsInFixedOrder) {
  util::telemetry::Registry reg;
  for (int i = 0; i < 64; ++i) {
    const double t = static_cast<double>(i);
    reg.sample("scheduler.backlog", t, 0.5 + t * 3.0 / 63.0);  // past 1.25 rise
    reg.sample("sim.queue_depth", t, t * 2.0);                 // event ramp
    reg.sample("scheduler.tracking_error", t, i < 48 ? 0.1 : 2.0);
  }
  reg.count("lp.session.fallbacks", 9);
  reg.count("lp.session.solves", 10);
  const std::vector<Anomaly> anomalies = detect_anomalies(reg);
  ASSERT_EQ(anomalies.size(), 4u);
  EXPECT_EQ(anomalies[0].series, "scheduler.backlog");
  EXPECT_EQ(anomalies[1].series, "sim.queue_depth");
  EXPECT_EQ(anomalies[2].series, "scheduler.tracking_error");
  EXPECT_EQ(anomalies[3].series, "lp.session.fallbacks");
}

TEST(Detectors, SnapshotAgreesWithRegistryAfterJsonRoundTrip) {
  util::Rng rng(11);
  util::telemetry::Registry reg;
  for (int i = 0; i < 64; ++i) {
    const double t = static_cast<double>(i);
    reg.sample("scheduler.backlog", t, t * 0.05);  // grows to 3.2: fires
    reg.sample("scheduler.tracking_error", t, 0.2 + rng.normal(0.0, 0.01));
  }
  reg.count("lp.session.fallbacks", 2);
  reg.count("lp.session.solves", 40);

  const std::string json = reg.to_json_string();
  util::StatusOr<util::telemetry::Snapshot> snapshot =
      util::telemetry::parse_snapshot(json);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();

  const std::vector<Anomaly> from_registry = detect_anomalies(reg);
  const std::vector<Anomaly> from_snapshot = detect_anomalies(*snapshot);
  ASSERT_EQ(from_registry.size(), from_snapshot.size());
  ASSERT_EQ(from_registry.size(), 1u);
  for (std::size_t i = 0; i < from_registry.size(); ++i) {
    EXPECT_EQ(from_registry[i].detector, from_snapshot[i].detector);
    EXPECT_EQ(from_registry[i].series, from_snapshot[i].series);
    EXPECT_EQ(from_registry[i].value, from_snapshot[i].value);
    EXPECT_EQ(from_registry[i].threshold, from_snapshot[i].threshold);
    EXPECT_EQ(from_registry[i].detail, from_snapshot[i].detail);
  }
}

TEST(SnapshotReader, RejectsMalformedDocuments) {
  EXPECT_FALSE(util::telemetry::parse_snapshot("").ok());
  EXPECT_FALSE(util::telemetry::parse_snapshot("[1,2]").ok());
  EXPECT_FALSE(util::telemetry::parse_snapshot("{\"schema\":\"nope\"}").ok());
  EXPECT_FALSE(
      util::telemetry::parse_snapshot("{\"schema\":\"tapo-telemetry-v1\"")
          .ok());
  // Errors carry a line number like every tapo text-format reader.
  const auto bad = util::telemetry::parse_snapshot(
      "{\"schema\":\"tapo-telemetry-v1\",\n\"counters\":[]}");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tapo::soak
