#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/assigner.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::sim {
namespace {

std::vector<dc::TaskType> two_types(double r1, double r2) {
  dc::TaskType a, b;
  a.arrival_rate = r1;
  b.arrival_rate = r2;
  return {a, b};
}

TEST(Trace, PoissonMeanRateMatches) {
  const auto trace = generate_poisson_trace(two_types(5.0, 0.5), 2000.0,
                                            util::Rng(1));
  const auto rates = trace_rates(trace, 2, 2000.0);
  EXPECT_NEAR(rates[0], 5.0, 0.2);
  EXPECT_NEAR(rates[1], 0.5, 0.07);
}

TEST(Trace, PoissonIsSortedAndInRange) {
  const auto trace = generate_poisson_trace(two_types(3.0, 3.0), 100.0,
                                            util::Rng(2));
  for (std::size_t e = 1; e < trace.size(); ++e) {
    EXPECT_GE(trace[e].time, trace[e - 1].time);
  }
  for (const auto& e : trace) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, 100.0);
    EXPECT_LT(e.task_type, 2u);
  }
}

TEST(Trace, ZeroRateTypeNeverAppears) {
  const auto trace = generate_poisson_trace(two_types(0.0, 2.0), 200.0,
                                            util::Rng(3));
  for (const auto& e : trace) EXPECT_EQ(e.task_type, 1u);
}

TEST(Trace, MmppPreservesMeanRate) {
  MmppConfig config;
  config.burst_multiplier = 6.0;
  const auto trace = generate_mmpp_trace(two_types(5.0, 1.0), 5000.0, config,
                                         util::Rng(4));
  const auto rates = trace_rates(trace, 2, 5000.0);
  EXPECT_NEAR(rates[0], 5.0, 0.4);
  EXPECT_NEAR(rates[1], 1.0, 0.15);
}

TEST(Trace, MmppIsBurstierThanPoisson) {
  // Compare the variance of per-window counts at equal mean rate; the MMPP
  // index of dispersion must exceed Poisson's (which is ~1).
  const auto count_dispersion = [](const Trace& trace, double horizon) {
    const double window = 5.0;
    const int windows = static_cast<int>(horizon / window);
    std::vector<int> counts(windows, 0);
    for (const auto& e : trace) {
      const int w = static_cast<int>(e.time / window);
      if (w < windows) ++counts[w];
    }
    double mean = 0.0, sq = 0.0;
    for (int c : counts) {
      mean += c;
      sq += static_cast<double>(c) * c;
    }
    mean /= windows;
    const double var = sq / windows - mean * mean;
    return var / mean;
  };
  const auto types = two_types(8.0, 0.0);
  const auto poisson = generate_poisson_trace(types, 3000.0, util::Rng(5));
  MmppConfig config;
  config.burst_multiplier = 8.0;
  const auto mmpp = generate_mmpp_trace(types, 3000.0, config, util::Rng(5));
  EXPECT_NEAR(count_dispersion(poisson, 3000.0), 1.0, 0.3);
  EXPECT_GT(count_dispersion(mmpp, 3000.0), 2.0);
}

TEST(Trace, MmppWithUnitMultiplierIsPoissonLike) {
  MmppConfig config;
  config.burst_multiplier = 1.0;
  const auto trace = generate_mmpp_trace(two_types(4.0, 0.0), 2000.0, config,
                                         util::Rng(6));
  const auto rates = trace_rates(trace, 2, 2000.0);
  EXPECT_NEAR(rates[0], 4.0, 0.25);
}

TEST(Trace, CsvRoundTrip) {
  const auto trace = generate_poisson_trace(two_types(2.0, 1.0), 50.0,
                                            util::Rng(7));
  const std::string path = "/tmp/tapo_trace_test.csv";
  ASSERT_TRUE(save_trace_csv(trace, path));
  const auto loaded = load_trace_csv(path, 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t e = 0; e < trace.size(); ++e) {
    EXPECT_NEAR((*loaded)[e].time, trace[e].time, 1e-8);
    EXPECT_EQ((*loaded)[e].task_type, trace[e].task_type);
  }
  std::remove(path.c_str());
}

TEST(Trace, CsvRejectsBadHeaderAndOutOfRangeTypes) {
  const std::string path = "/tmp/tapo_trace_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("wrong,header\n1.0,0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_trace_csv(path, 2).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("time,task_type\n1.0,9\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_trace_csv(path, 2).ok());
  std::remove(path.c_str());
}

TEST(Trace, CsvRejectsMalformedFieldsNamingTheLine) {
  const std::string path = "/tmp/tapo_trace_junk.csv";
  const auto load = [&](const char* text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
    return load_trace_csv(path, 2);
  };
  // sscanf("%lf,%lu") used to read "1abc" as type 1.
  const auto junk = load("time,task_type\n0.5,1abc\n");
  ASSERT_FALSE(junk.ok());
  EXPECT_EQ(junk.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(junk.status().message().find("line 2"), std::string::npos)
      << junk.status().to_string();
  EXPECT_FALSE(load("time,task_type\n0.5,-1\n").ok());
  EXPECT_FALSE(load("time,task_type\nnan,0\n").ok());
  const auto unsorted = load("time,task_type\n2,0\n1,1\n");
  ASSERT_FALSE(unsorted.ok());
  EXPECT_NE(unsorted.status().message().find("line 3"), std::string::npos);
  // CRLF endings and comments follow the shared lexical rules.
  const auto crlf = load("# arrivals\r\ntime,task_type\r\n0.5,1\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().to_string();
  ASSERT_EQ(crlf->size(), 1u);
  EXPECT_EQ((*crlf)[0].task_type, 1u);
  std::remove(path.c_str());
}

struct TraceSimFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(601, 8, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

TEST_F(TraceSimFixture, PoissonTraceReplayMatchesLiveSimulator) {
  // simulate() and simulate_trace() share the accounting; with the same
  // arrival sample path (same per-type substreams) results must agree.
  SimOptions options;
  options.duration_seconds = 100.0;
  options.seed = 33;
  const auto live = simulate(scenario->dc, assignment, options);
  const auto trace = generate_poisson_trace(scenario->dc.task_types, 100.0,
                                            util::Rng(33));
  const auto replay = simulate_trace(scenario->dc, assignment, trace, options);
  test::expect_identical(replay, live);
}

TEST_F(TraceSimFixture, BurstinessDoesNotRaiseReward) {
  // At equal offered load, burstier arrivals can only hurt a deadline-based
  // admission policy (idle valleys cannot be banked).
  SimOptions options;
  options.duration_seconds = 400.0;
  options.warmup_seconds = 50.0;
  const auto poisson = generate_poisson_trace(scenario->dc.task_types, 400.0,
                                              util::Rng(8));
  MmppConfig config;
  config.burst_multiplier = 8.0;
  const auto bursty = generate_mmpp_trace(scenario->dc.task_types, 400.0,
                                          config, util::Rng(8));
  const auto smooth = simulate_trace(scenario->dc, assignment, poisson, options);
  const auto rough = simulate_trace(scenario->dc, assignment, bursty, options);
  EXPECT_LE(rough.reward_rate, smooth.reward_rate * 1.05);
}

TEST_F(TraceSimFixture, EmptyTraceYieldsNothing) {
  SimOptions options;
  options.duration_seconds = 10.0;
  const auto result = simulate_trace(scenario->dc, assignment, {}, options);
  EXPECT_DOUBLE_EQ(result.total_reward, 0.0);
  EXPECT_DOUBLE_EQ(result.drop_fraction(), 0.0);
}

TEST_F(TraceSimFixture, TelemetryDoesNotChangeTheReplay) {
  SimOptions options;
  options.duration_seconds = 60.0;
  options.warmup_seconds = 5.0;
  const auto trace = generate_poisson_trace(scenario->dc.task_types, 60.0,
                                            util::Rng(21));
  const SimResult without =
      simulate_trace(scenario->dc, assignment, trace, options);
  util::telemetry::Registry registry;
  options.telemetry = &registry;
  const SimResult with = simulate_trace(scenario->dc, assignment, trace, options);
  test::expect_identical(with, without);

  // Replays go through the same end-of-run recorder as live runs.
  EXPECT_EQ(registry.counter_value("sim.replays"), 1u);
  EXPECT_EQ(registry.timer_stats("sim.replay").count, 1u);
  EXPECT_GT(registry.counter_value("sim.events_processed"), 0u);
  EXPECT_GT(registry.counter_value("sim.arrival_batches"), 0u);
  EXPECT_EQ(registry.counter_value("scheduler.routes_indexed") +
                registry.counter_value("scheduler.routes_scan"),
            trace.size());
  EXPECT_EQ(registry.gauge_value("sim.energy_kwh"), with.energy_kwh);
  EXPECT_EQ(registry.series_values("scheduler.tracking_error").size(),
            options.telemetry_samples);
}

// Operator input never aborts a replay: each rejected input comes back as
// SimResult::status with every metric zero.
TEST_F(TraceSimFixture, InfeasiblePlanIsRejected) {
  core::Assignment infeasible = assignment;
  infeasible.feasible = false;
  const auto trace = generate_poisson_trace(scenario->dc.task_types, 10.0,
                                            util::Rng(1));
  SimOptions options;
  options.duration_seconds = 10.0;
  const SimResult r = simulate_trace(scenario->dc, infeasible, trace, options);
  EXPECT_EQ(r.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.total_reward, 0.0);
}

TEST_F(TraceSimFixture, DegenerateDurationIsRejected) {
  SimOptions options;
  options.duration_seconds = 0.0;
  const SimResult r = simulate_trace(scenario->dc, assignment, {}, options);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
}

TEST_F(TraceSimFixture, DegenerateWarmupIsRejected) {
  SimOptions options;
  options.duration_seconds = 10.0;
  options.warmup_seconds = 10.0;
  const SimResult r = simulate_trace(scenario->dc, assignment, {}, options);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
}

TEST_F(TraceSimFixture, OutOfRangeTaskTypeIsRejected) {
  const Trace trace = {{1.0, 0}, {2.0, scenario->dc.num_task_types()}};
  SimOptions options;
  options.duration_seconds = 10.0;
  const SimResult r = simulate_trace(scenario->dc, assignment, trace, options);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("task type"), std::string::npos);
  EXPECT_TRUE(r.per_type.empty());
}

TEST_F(TraceSimFixture, OutOfOrderEventIsRejected) {
  SimOptions options;
  options.duration_seconds = 10.0;
  for (const Trace& trace : {Trace{{3.0, 0}, {2.0, 0}}, Trace{{-1.0, 0}},
                             Trace{{std::nan(""), 0}}}) {
    const SimResult r = simulate_trace(scenario->dc, assignment, trace, options);
    EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status.message().find("out of order"), std::string::npos);
  }
}

}  // namespace
}  // namespace tapo::sim
