// Differential tests for the online routing paths (docs/SCHEDULER.md):
// scan vs indexed selection and the three DES entry points must produce
// bit-identical SimResults — same decisions, same counters, same doubles —
// across seeds, policies, fault scenarios and rate traces.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/assigner.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "sim/faults.h"
#include "sim/trace.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/telemetry.h"

namespace tapo::sim {
namespace {

using test::expect_identical;

struct RoutingFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(211, 10, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }

  SimOptions options(core::RouteMode mode, std::uint64_t seed) const {
    SimOptions o;
    o.duration_seconds = 120.0;
    o.warmup_seconds = 10.0;
    o.seed = seed;
    o.scheduler.route_mode = mode;
    return o;
  }

  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

TEST_F(RoutingFixture, IndexedSimulationMatchesScanAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 17u, 424242u}) {
    const SimResult scan =
        simulate(scenario->dc, assignment, options(core::RouteMode::kScan, seed));
    const SimResult indexed = simulate(scenario->dc, assignment,
                                       options(core::RouteMode::kIndexed, seed));
    expect_identical(scan, indexed);
  }
}

TEST_F(RoutingFixture, DisjointCandidateBlocksShardAndStayIdentical) {
  // A genuinely multi-component candidate structure: strip the TC matrix to
  // disjoint per-type core blocks so every type owns its own candidate
  // cores, and the scan and the index must still agree bit for bit.
  core::Assignment blocks = assignment;
  const std::size_t t = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t k = 0; k < scenario->dc.total_cores(); ++k) {
      if (k % t != i) blocks.tc(i, k) = 0.0;
    }
  }
  for (const std::uint64_t seed : {13u, 31u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SimResult scan =
        simulate(scenario->dc, blocks, options(core::RouteMode::kScan, seed));
    const SimResult indexed =
        simulate(scenario->dc, blocks, options(core::RouteMode::kIndexed, seed));
    expect_identical(scan, indexed);
  }
}

TEST_F(RoutingFixture, IndexedSimulationMatchesScanForAblationPolicies) {
  for (const auto policy :
       {core::SchedulerPolicy::EarliestFinish, core::SchedulerPolicy::Random}) {
    SimOptions scan = options(core::RouteMode::kScan, 5);
    scan.scheduler.policy = policy;
    SimOptions indexed = options(core::RouteMode::kIndexed, 5);
    indexed.scheduler.policy = policy;
    expect_identical(simulate(scenario->dc, assignment, scan),
                     simulate(scenario->dc, assignment, indexed));
  }
}

TEST_F(RoutingFixture, ValidatedIndexSurvivesFullSimulation) {
  SimOptions o = options(core::RouteMode::kIndexed, 99);
  o.scheduler.validate_index = true;  // aborts internally on any divergence
  const SimResult r = simulate(scenario->dc, assignment, o);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.total_reward, 0.0);
}

TEST_F(RoutingFixture, SimulateRecordsEndOfRunTelemetry) {
  util::telemetry::Registry registry;
  SimOptions o = options(core::RouteMode::kIndexed, 7);
  o.telemetry = &registry;
  const SimResult with = simulate(scenario->dc, assignment, o);
  o.telemetry = nullptr;
  const SimResult without = simulate(scenario->dc, assignment, o);
  expect_identical(with, without);  // observers never change the run
  EXPECT_GT(registry.counter_value("sim.arrival_batches"), 0u);
  EXPECT_GT(registry.counter_value("scheduler.routes_indexed"), 0u);
  EXPECT_EQ(registry.counter_value("scheduler.index_stale_pops"), 0u);
}

TEST_F(RoutingFixture, InvalidSchedulerOptionsSurfaceThroughSimulate) {
  SimOptions o = options(core::RouteMode::kIndexed, 1);
  o.scheduler.warmup_seconds = 0.0;  // 0/0 ATC at the first arrival
  const SimResult r = simulate(scenario->dc, assignment, o);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.total_reward, 0.0);
}

TEST_F(RoutingFixture, IndexedSimulationMatchesScanUnderOverload) {
  // Arrivals at twice the planned demand: most routes end with whole cohort
  // buckets deadline-blocked, so the index parks them on their finish floors
  // instead of re-walking their members on every route.
  for (dc::TaskType& t : scenario->dc.task_types) t.arrival_rate *= 2.0;
  for (const std::uint64_t seed : {2u, 23u, 5150u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SimResult scan =
        simulate(scenario->dc, assignment, options(core::RouteMode::kScan, seed));
    util::telemetry::Registry registry;
    SimOptions o = options(core::RouteMode::kIndexed, seed);
    o.scheduler.validate_index = true;
    o.telemetry = &registry;
    expect_identical(scan, simulate(scenario->dc, assignment, o));
    EXPECT_GT(registry.counter_value("scheduler.index_parks"), 0u);
  }
}

TEST_F(RoutingFixture, InFlightPoolStaysAtTheLiveBacklog) {
  // Telemetry on with no samplers leaves the calendar empty, as in an
  // untraced storm run, so nothing but completions can end an arrival
  // batch. A batch ends at the first completion due, its own admissions'
  // included, so the pending high-water mark (calendar events plus live
  // timed completions) stays at the live backlog instead of growing to
  // every admission of the run. Batching never changes the result.
  for (dc::TaskType& t : scenario->dc.task_types) t.arrival_rate *= 2.0;
  SimOptions o = options(core::RouteMode::kIndexed, 3);
  o.duration_seconds = 600.0;
  util::telemetry::Registry registry;
  o.telemetry = &registry;
  o.telemetry_samples = 0;
  const SimResult storm = simulate(scenario->dc, assignment, o);
  ASSERT_TRUE(storm.status.ok()) << storm.status.to_string();
  const double assigned =
      static_cast<double>(registry.counter_value("scheduler.assigned"));
  ASSERT_GT(assigned, 10000.0);
  EXPECT_LT(registry.gauge_value("sim.queue_depth_high_water"),
            0.1 * assigned);
  o.telemetry = nullptr;
  expect_identical(storm, simulate(scenario->dc, assignment, o));
}

// ---- Fault path -----------------------------------------------------------

TEST_F(RoutingFixture, FaultSimulationIdenticalAcrossRouteModes) {
  FaultSchedule schedule;
  schedule.events.push_back({30.0, FaultKind::kNodeFail, 1, 0.0});
  schedule.events.push_back({60.0, FaultKind::kCracDerate, 0, 0.7});

  FaultSimResult runs[2];
  const core::RouteMode modes[2] = {core::RouteMode::kScan,
                                    core::RouteMode::kIndexed};
  for (int m = 0; m < 2; ++m) {
    FaultSimOptions o;
    o.sim = options(modes[m], 9);
    o.recovery.replan_delay_s = 5.0;
    runs[m] =
        simulate_with_faults(scenario->dc, *model, assignment, schedule, o);
    ASSERT_TRUE(runs[m].status.ok()) << runs[m].status.to_string();
  }
  expect_identical(runs[0].sim, runs[1].sim);
  ASSERT_EQ(runs[0].faults.size(), runs[1].faults.size());
  for (std::size_t i = 0; i < runs[0].faults.size(); ++i) {
    EXPECT_EQ(runs[0].faults[i].tasks_killed, runs[1].faults[i].tasks_killed);
    EXPECT_EQ(runs[0].faults[i].tasks_requeued,
              runs[1].faults[i].tasks_requeued);
    EXPECT_EQ(runs[0].faults[i].replan_adopted,
              runs[1].faults[i].replan_adopted);
  }
  EXPECT_EQ(runs[0].replans_adopted, runs[1].replans_adopted);
}

TEST_F(RoutingFixture, FaultAndCompletionAtOneInstantRunInSequenceOrder) {
  // Fault events are scheduled before the run starts, so a fault holds a
  // lower engine sequence number than any completion: on an exact time tie
  // it fires first and kills the finishing task. The run's first task is
  // routed on an idle park, so its core and finish time can be computed
  // outside the run from the same arrival streams and a fresh scheduler.
  const SimOptions o = options(core::RouteMode::kIndexed, 5);
  ArrivalProcess arrivals(scenario->dc.task_types, util::Rng(o.seed));
  double first = std::numeric_limits<double>::infinity();
  std::size_t type = 0;
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    const double t = arrivals.next_arrival_after(i, 0.0);
    if (t < first) {
      first = t;
      type = i;
    }
  }
  core::DynamicScheduler scheduler(scenario->dc, assignment, o.scheduler);
  const std::vector<double> idle(scenario->dc.total_cores(), 0.0);
  const auto d = scheduler.route(type, first, idle);
  ASSERT_TRUE(d.assigned);
  const double finish = first + d.exec_seconds;
  ASSERT_LT(finish, o.duration_seconds);
  const std::size_t node = scenario->dc.core_node(d.core);

  const auto killed_by_failure_at = [&](double t) {
    FaultSchedule schedule;
    schedule.events.push_back({t, FaultKind::kNodeFail, node, 0.0});
    FaultSimOptions fo;
    fo.sim = o;
    fo.in_flight = InFlightPolicy::kDrop;
    const FaultSimResult r =
        simulate_with_faults(scenario->dc, *model, assignment, schedule, fo);
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return r.faults.empty() ? std::size_t{0} : r.faults.front().tasks_killed;
  };
  const std::size_t at = killed_by_failure_at(finish);
  const std::size_t after = killed_by_failure_at(
      std::nextafter(finish, std::numeric_limits<double>::infinity()));
  EXPECT_EQ(at, after + 1) << "the first task completed before the fault "
                              "that shares its instant";
}

TEST_F(RoutingFixture, ValidatedIndexSurvivesNodeFailuresUnderOverload) {
  // Node failures kill queued work and lower the failed cores' backlogs
  // (RunCore::evict), the one place the DES lowers a free time; evict calls
  // backlog_lowered() before the orphans re-route. validate_index aborts on
  // any divergence from the scan.
  for (dc::TaskType& t : scenario->dc.task_types) t.arrival_rate *= 2.0;
  FaultSchedule schedule;
  schedule.events.push_back({25.0, FaultKind::kNodeFail, 0, 0.0});
  schedule.events.push_back({50.0, FaultKind::kNodeFail, 1, 0.0});
  schedule.events.push_back({80.0, FaultKind::kNodeFail, 2, 0.0});

  FaultSimResult runs[2];
  const core::RouteMode modes[2] = {core::RouteMode::kScan,
                                    core::RouteMode::kIndexed};
  for (int m = 0; m < 2; ++m) {
    FaultSimOptions o;
    o.sim = options(modes[m], 4);
    o.sim.scheduler.validate_index = modes[m] == core::RouteMode::kIndexed;
    o.recovery.replan_delay_s = 5.0;
    runs[m] =
        simulate_with_faults(scenario->dc, *model, assignment, schedule, o);
    ASSERT_TRUE(runs[m].status.ok()) << runs[m].status.to_string();
  }
  expect_identical(runs[0].sim, runs[1].sim);
  std::size_t killed = 0;
  for (const FaultRecord& f : runs[1].faults) killed += f.tasks_killed;
  EXPECT_GT(killed, 0u);  // evict ran with work queued
}

// ---- Entry-point differential ---------------------------------------------
//
// simulate, simulate_with_faults with an empty schedule and simulate_trace
// over the same Poisson sample path run one event loop with different
// arrival sources and extras, so every pair must agree bit for bit over
// policies, route modes, seeds and warm-ups.

struct EntryPointDifferential : RoutingFixture {
  struct Case {
    core::SchedulerPolicy policy;
    core::RouteMode mode;
    std::uint64_t seed;
    double warmup;
  };

  static std::vector<Case> cases() {
    std::vector<Case> out;
    for (const auto policy : {core::SchedulerPolicy::MinAtcTcRatio,
                              core::SchedulerPolicy::EarliestFinish,
                              core::SchedulerPolicy::Random}) {
      for (const auto mode : {core::RouteMode::kScan, core::RouteMode::kIndexed}) {
        for (const std::uint64_t seed : {3u, 58u, 9001u}) {
          for (const double warmup : {0.0, 10.0}) {
            out.push_back({policy, mode, seed, warmup});
          }
        }
      }
    }
    return out;
  }

  SimOptions options(const Case& c) const {
    SimOptions o = RoutingFixture::options(c.mode, c.seed);
    o.warmup_seconds = c.warmup;
    o.scheduler.policy = c.policy;
    return o;
  }

  static std::string describe(const Case& c) {
    return "policy " + std::to_string(static_cast<int>(c.policy)) + " mode " +
           std::to_string(static_cast<int>(c.mode)) + " seed " +
           std::to_string(c.seed) + " warmup " + std::to_string(c.warmup);
  }

  SimResult with_faults(const SimOptions& o) {
    FaultSimOptions fo;
    fo.sim = o;
    const FaultSimResult r = simulate_with_faults(scenario->dc, *model,
                                                  assignment, FaultSchedule{}, fo);
    EXPECT_TRUE(r.faults.empty());
    EXPECT_EQ(r.replans_adopted, 0u);
    return r.sim;
  }
};

TEST_F(EntryPointDifferential, FaultAndReplayRunsMatchSimulate) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(describe(c));
    const SimOptions o = options(c);
    const SimResult plain = simulate(scenario->dc, assignment, o);
    expect_identical(plain, with_faults(o));
    const Trace trace = generate_poisson_trace(
        scenario->dc.task_types, o.duration_seconds, util::Rng(c.seed)).value();
    expect_identical(plain, simulate_trace(scenario->dc, assignment, trace, o));
  }
}

TEST_F(EntryPointDifferential, FaultRunsMatchSimulateUnderRateTrace) {
  // Time-varying arrivals have no recorded-trace counterpart, so the replay
  // sits this one out.
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kDiurnal;
  config.horizon_s = 120.0;
  config.seed = 12;
  const RateTrace rates = generate_rate_trace(scenario->dc.task_types, config);
  for (const std::uint64_t seed : {3u, 58u, 9001u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimOptions o = RoutingFixture::options(core::RouteMode::kIndexed, seed);
    o.rate_trace = &rates;
    const SimResult plain = simulate(scenario->dc, assignment, o);
    expect_identical(plain, with_faults(o));
  }
}

}  // namespace
}  // namespace tapo::sim
