#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/assigner.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/check.h"

namespace tapo::core {
namespace {

struct SchedulerFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(test::make_small_scenario(111, 6, 1));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  Assignment assignment;
};

TEST_F(SchedulerFixture, CandidatesMatchPositiveTc) {
  DynamicScheduler scheduler(scenario->dc, assignment);
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    for (std::size_t k : scheduler.candidates(i)) {
      EXPECT_GT(assignment.tc(i, k), 0.0);
    }
  }
}

TEST_F(SchedulerFixture, RoutesToCandidateCore) {
  DynamicScheduler scheduler(scenario->dc, assignment);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  // Find a task type with candidates.
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (scheduler.candidates(i).empty()) continue;
    const auto d = scheduler.route(i, 0.0, free_time);
    ASSERT_TRUE(d.assigned);
    EXPECT_GT(assignment.tc(i, d.core), 0.0);
    EXPECT_GT(d.exec_seconds, 0.0);
    EXPECT_EQ(scheduler.assigned_count(i), 1u);
    return;
  }
  FAIL() << "no task type had candidate cores";
}

TEST_F(SchedulerFixture, DropsWhenDeadlineUnreachable) {
  DynamicScheduler scheduler(scenario->dc, assignment);
  // Every core busy far beyond any deadline.
  std::vector<double> free_time(scenario->dc.total_cores(), 1e9);
  const auto d = scheduler.route(0, 0.0, free_time);
  EXPECT_FALSE(d.assigned);
  EXPECT_EQ(scheduler.dropped_count(0), 1u);
}

TEST_F(SchedulerFixture, DeadlineCheckCanBeDisabled) {
  SchedulerOptions options;
  options.deadline_check = false;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::vector<double> free_time(scenario->dc.total_cores(), 1e9);
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (scheduler.candidates(i).empty()) continue;
    EXPECT_TRUE(scheduler.route(i, 0.0, free_time).assigned);
    return;
  }
}

TEST_F(SchedulerFixture, BalancesAcrossCores) {
  // Repeated arrivals of one type spread across candidate cores: with the
  // min-ratio rule no single core should hog all the work.
  DynamicScheduler scheduler(scenario->dc, assignment);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  std::size_t type = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (scheduler.candidates(i).size() >= 4) {
      type = i;
      break;
    }
  }
  if (type == scenario->dc.num_task_types()) GTEST_SKIP() << "no wide type";
  std::map<std::size_t, int> hits;
  for (int n = 0; n < 40; ++n) {
    const auto d = scheduler.route(type, 0.1 * n, free_time);
    if (d.assigned) ++hits[d.core];
  }
  EXPECT_GE(hits.size(), 2u);
}

TEST_F(SchedulerFixture, AtcRatioGrowsWithAssignments) {
  DynamicScheduler scheduler(scenario->dc, assignment);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  std::size_t type = 0;
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (!scheduler.candidates(i).empty()) {
      type = i;
      break;
    }
  }
  const auto d = scheduler.route(type, 0.0, free_time);
  ASSERT_TRUE(d.assigned);
  EXPECT_GT(scheduler.atc(type, d.core, 1.0), 0.0);
  EXPECT_GT(scheduler.atc_tc_ratio(type, d.core, 1.0), 0.0);
}

TEST_F(SchedulerFixture, RatioIsZeroForZeroTc) {
  DynamicScheduler scheduler(scenario->dc, assignment);
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    for (std::size_t k = 0; k < scenario->dc.total_cores(); ++k) {
      if (assignment.tc(i, k) == 0.0) {
        EXPECT_DOUBLE_EQ(scheduler.atc_tc_ratio(i, k, 10.0), 0.0);
        return;
      }
    }
  }
}

TEST_F(SchedulerFixture, SaturatedCoresAreSkipped) {
  // Flood a single type until every candidate core exceeds ratio 1 within
  // the warm-up window; further arrivals must be dropped.
  SchedulerOptions options;
  options.warmup_seconds = 1.0;
  options.deadline_check = false;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  std::size_t type = 0;
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (!scheduler.candidates(i).empty()) {
      type = i;
      break;
    }
  }
  double desired = 0.0;
  for (std::size_t k : scheduler.candidates(type)) desired += assignment.tc(type, k);
  // At t=0 (elapsed floored to 1 s) each candidate core saturates after
  // floor(TC)+1 assignments, so ~desired + #candidates admissions suffice to
  // push every ratio past 1; flood well beyond that.
  const int flood = static_cast<int>(desired) +
                    2 * static_cast<int>(scheduler.candidates(type).size()) + 10;
  int dropped = 0;
  for (int n = 0; n < flood; ++n) {
    if (!scheduler.route(type, 0.0, free_time).assigned) ++dropped;
  }
  EXPECT_GT(dropped, 0);
}

TEST_F(SchedulerFixture, EarliestFinishUsesAllActiveCores) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::EarliestFinish;
  DynamicScheduler ef(scenario->dc, assignment, options);
  DynamicScheduler plan(scenario->dc, assignment);
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    // The ablation candidate set is a superset of the plan-based one.
    EXPECT_GE(ef.candidates(i).size(), plan.candidates(i).size());
    for (std::size_t k : ef.candidates(i)) {
      const std::size_t type = scenario->dc.core_type(k);
      EXPECT_NE(assignment.core_pstate[k],
                scenario->dc.node_types[type].off_state());
    }
  }
}

TEST_F(SchedulerFixture, EarliestFinishPicksIdleCoreOverBusy) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::EarliestFinish;
  options.deadline_check = false;  // isolate the min-finish rule
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::size_t type = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (scheduler.candidates(i).size() >= 2) {
      type = i;
      break;
    }
  }
  if (type == scenario->dc.num_task_types()) GTEST_SKIP();
  // Everyone else is busy far longer than any execution time, so the idle
  // core finishes first regardless of per-core ECS differences.
  std::vector<double> free_time(scenario->dc.total_cores(), 1e9);
  const std::size_t idle = scheduler.candidates(type).back();
  free_time[idle] = 0.0;
  const auto d = scheduler.route(type, 0.0, free_time);
  ASSERT_TRUE(d.assigned);
  EXPECT_EQ(d.core, idle);
}

TEST_F(SchedulerFixture, RandomPolicyIsSeededDeterministic) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::Random;
  options.random_seed = 99;
  DynamicScheduler a(scenario->dc, assignment, options);
  DynamicScheduler b(scenario->dc, assignment, options);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  for (int n = 0; n < 20; ++n) {
    const auto da = a.route(0, 0.1 * n, free_time);
    const auto db = b.route(0, 0.1 * n, free_time);
    EXPECT_EQ(da.assigned, db.assigned);
    if (da.assigned) {
      EXPECT_EQ(da.core, db.core);
    }
  }
}

TEST_F(SchedulerFixture, RandomPolicySpreadsAcrossCores) {
  SchedulerOptions options;
  options.policy = SchedulerPolicy::Random;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::size_t type = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (scheduler.candidates(i).size() >= 4) {
      type = i;
      break;
    }
  }
  if (type == scenario->dc.num_task_types()) GTEST_SKIP();
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  std::map<std::size_t, int> hits;
  for (int n = 0; n < 60; ++n) {
    const auto d = scheduler.route(type, 0.1 * n, free_time);
    if (d.assigned) ++hits[d.core];
  }
  EXPECT_GE(hits.size(), 3u);
}

// --- Candidate-index differential and property tests ----------------------
//
// The indexed routing path promises *bit-identical* decisions to the
// reference scan (docs/SCHEDULER.md §2). These tests drive both paths
// through the same randomized arrival sequences and compare every decision.

// Drives `steps` randomized routes through two schedulers that must agree
// on every decision. Core backlog follows the first scheduler's decisions
// (both must pick the same core anyway, and the EXPECTs catch divergence
// before the backlogs could drift apart).
void expect_identical_decisions(const dc::DataCenter& dc, DynamicScheduler& a,
                                DynamicScheduler& b, std::uint64_t seed,
                                int steps) {
  util::Rng rng(seed);
  std::vector<double> free_a(dc.total_cores(), 0.0);
  std::vector<double> free_b(dc.total_cores(), 0.0);
  double now = 0.0;
  for (int n = 0; n < steps; ++n) {
    now += rng.exponential(40.0);
    const auto type =
        static_cast<std::size_t>(rng.uniform_int(0, dc.num_task_types() - 1));
    const auto da = a.route(type, now, free_a);
    const auto db = b.route(type, now, free_b);
    ASSERT_EQ(da.assigned, db.assigned) << "step " << n << " type " << type;
    if (da.assigned) {
      ASSERT_EQ(da.core, db.core) << "step " << n << " type " << type;
      ASSERT_EQ(da.exec_seconds, db.exec_seconds);
      const double start = std::max(now, free_a[da.core]);
      free_a[da.core] = start + da.exec_seconds;
      free_b[db.core] = free_a[da.core];
    }
    // Occasionally let some cores drain completely so the busy/idle mix and
    // the deadline filter both get exercised.
    if (n % 97 == 96) {
      for (std::size_t k = 0; k < dc.total_cores(); k += 3) {
        free_a[k] = free_b[k] = now;
      }
      a.backlog_lowered();  // the route() backlog contract
      b.backlog_lowered();
    }
  }
  ASSERT_GT(a.stats().routed, 0u);
}

TEST_F(SchedulerFixture, IndexedMatchesScanBitForBit) {
  for (const std::uint64_t seed : {7u, 19u, 23u}) {
    SchedulerOptions scan;
    scan.route_mode = RouteMode::kScan;
    SchedulerOptions indexed;
    indexed.route_mode = RouteMode::kIndexed;
    DynamicScheduler a(scenario->dc, assignment, scan);
    DynamicScheduler b(scenario->dc, assignment, indexed);
    ASSERT_FALSE(a.routes_with_index());
    ASSERT_TRUE(b.routes_with_index());
    expect_identical_decisions(scenario->dc, a, b, seed, 3000);
    EXPECT_EQ(a.stats().routed, b.stats().routed);
    EXPECT_EQ(b.stats().indexed_routes, b.stats().routed);
    EXPECT_EQ(b.stats().index_stale_pops, 0u);  // invariant: never stale
  }
}

TEST_F(SchedulerFixture, IndexedMatchesScanWithoutDeadlineCheck) {
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  scan.deadline_check = false;
  SchedulerOptions indexed = scan;
  indexed.route_mode = RouteMode::kIndexed;
  DynamicScheduler a(scenario->dc, assignment, scan);
  DynamicScheduler b(scenario->dc, assignment, indexed);
  expect_identical_decisions(scenario->dc, a, b, 5, 2000);
}

TEST_F(SchedulerFixture, IndexedMatchesScanAcrossWarmups) {
  for (const double warmup : {0.25, 1.0, 30.0}) {
    SchedulerOptions scan;
    scan.route_mode = RouteMode::kScan;
    scan.warmup_seconds = warmup;
    SchedulerOptions indexed = scan;
    indexed.route_mode = RouteMode::kIndexed;
    DynamicScheduler a(scenario->dc, assignment, scan);
    DynamicScheduler b(scenario->dc, assignment, indexed);
    expect_identical_decisions(scenario->dc, a, b, 11, 1500);
  }
}

TEST_F(SchedulerFixture, AblationPoliciesFallBackToScanUnderTheDefaultMode) {
  // The default kIndexed routes MinAtcTcRatio through the index and the
  // ablation policies, which have no index key, through the scan.
  EXPECT_EQ(SchedulerOptions{}.route_mode, RouteMode::kIndexed);
  for (const auto policy :
       {SchedulerPolicy::EarliestFinish, SchedulerPolicy::Random}) {
    SchedulerOptions options;
    options.policy = policy;
    const DynamicScheduler scheduler(scenario->dc, assignment, options);
    EXPECT_FALSE(scheduler.routes_with_index());
  }
  const DynamicScheduler scheduler(scenario->dc, assignment, SchedulerOptions{});
  EXPECT_TRUE(scheduler.routes_with_index());
}

TEST_F(SchedulerFixture, ValidateIndexCrossCheckPasses) {
  // validate_index re-runs the reference scan after every indexed decision
  // and aborts on divergence; surviving a long randomized sequence is the
  // self-checking form of the differential test.
  SchedulerOptions options;
  options.route_mode = RouteMode::kIndexed;
  options.validate_index = true;
  DynamicScheduler a(scenario->dc, assignment, options);
  DynamicScheduler b(scenario->dc, assignment, options);
  expect_identical_decisions(scenario->dc, a, b, 31, 2000);
}

// Copy of the fixture assignment with every positive TC entry of a row
// replaced by the row mean — the shape real LP output takes, where whole
// candidate sets share one desired rate and min-ratio routing pins them at
// bitwise-equal index keys.
Assignment uniform_tc_assignment(const dc::DataCenter& dc,
                                 const Assignment& assignment) {
  Assignment uniform = assignment;
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    double rate = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < dc.total_cores(); ++k) {
      if (uniform.tc(i, k) > 0.0) {
        rate += uniform.tc(i, k);
        ++n;
      }
    }
    for (std::size_t k = 0; k < dc.total_cores() && n > 0; ++k) {
      if (uniform.tc(i, k) > 0.0) {
        uniform.tc(i, k) = rate / static_cast<double>(n);
      }
    }
  }
  return uniform;
}

TEST_F(SchedulerFixture, UniformTcCohortsMatchScanUnderSaturation) {
  // Saturating arrivals against uniform desired rates: the ratio filter
  // blocks the whole frontier cohort on most routes — the regime where a
  // per-candidate index would re-examine every equal-key member each time.
  // The bucketed index must stay bit-identical while touching only one
  // entry per cohort bucket.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  util::Rng rng(13);
  std::vector<double> free_a(scenario->dc.total_cores(), 0.0);
  std::vector<double> free_b(scenario->dc.total_cores(), 0.0);
  double now = 0.0;
  std::size_t drops = 0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.exponential(320.0);  // ~8x the differential driver's rate
    const auto type = static_cast<std::size_t>(
        rng.uniform_int(0, scenario->dc.num_task_types() - 1));
    const auto da = a.route(type, now, free_a);
    const auto db = b.route(type, now, free_b);
    ASSERT_EQ(da.assigned, db.assigned) << "step " << step;
    if (da.assigned) {
      ASSERT_EQ(da.core, db.core) << "step " << step;
      free_a[da.core] = std::max(now, free_a[da.core]) + da.exec_seconds;
      free_b[db.core] = free_a[da.core];
    } else {
      ++drops;
    }
  }
  b.check_index_invariants();
  EXPECT_GT(drops, 0u);  // the drive reached saturation
  // One entry per cohort bucket keeps examinations within a small constant
  // of the route count even with the whole frontier saturated.
  EXPECT_LT(b.stats().index_pops, 8 * b.stats().routed);
}

TEST_F(SchedulerFixture, CohortDeadlineSubstitutionMatchesScan) {
  // Members of a cohort bucket share the ratio but not the queue: when the
  // bucket's lowest-position member is deadline-blocked, the scan admits
  // the next member in position order, and the index must substitute the
  // same member (and keep its bookkeeping consistent afterwards).
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  std::size_t type = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (a.candidates(i).size() >= 3) {
      type = i;
      break;
    }
  }
  ASSERT_LT(type, scenario->dc.num_task_types()) << "need a 3+ candidate type";
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  // Block the first half of the candidate list far beyond any deadline so
  // substitution happens inside the zero-count cohort, then alternate the
  // blocked half to exercise re-derived tie-breaks across arrivals.
  const auto& cands = a.candidates(type);
  double now = 0.0;
  for (int step = 0; step < 64; ++step) {
    now += 0.05;
    for (std::size_t p = 0; p < cands.size(); ++p) {
      const bool block = (step % 2 == 0) ? (p < cands.size() / 2)
                                         : (p % 3 == static_cast<std::size_t>(step) % 3);
      free_time[cands[p]] = block ? now + 1e9 : 0.0;
    }
    a.backlog_lowered();  // unblocked members' free times drop to 0
    b.backlog_lowered();
    const auto da = a.route(type, now, free_time);
    const auto db = b.route(type, now, free_time);
    ASSERT_EQ(da.assigned, db.assigned) << "step " << step;
    if (da.assigned) {
      ASSERT_EQ(da.core, db.core) << "step " << step;
    }
    b.check_index_invariants();
  }
  EXPECT_GT(b.stats().routed, 0u);
}

// --- Parked deadline-blocked cohort buckets ---------------------------------
//
// A bucket whose member walk found every member deadline-blocked is parked
// on a lower bound of its members' finish times; it returns to the ratio
// heap once a route's deadline reaches that floor, or when a winner joins
// it. Exact only under the backlog contract (no free time lowered without
// backlog_lowered()).

TEST_F(SchedulerFixture, FinishFloorSkipsMatchScanUnderMonotoneSaturation) {
  // Arrivals far above the desired rates with backlogs that only grow: most
  // routes end with whole cohorts deadline-blocked, the regime parking
  // exists for. validate_index re-checks every decision against the scan.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  util::Rng rng(29);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  double now = 0.0;
  std::size_t drops = 0;
  for (int step = 0; step < 6000; ++step) {
    now += rng.exponential(2000.0);
    const auto type = static_cast<std::size_t>(
        rng.uniform_int(0, scenario->dc.num_task_types() - 1));
    const auto da = a.route(type, now, free_time);
    const auto db = b.route(type, now, free_time);
    ASSERT_EQ(da.assigned, db.assigned) << "step " << step;
    if (da.assigned) {
      ASSERT_EQ(da.core, db.core) << "step " << step;
      ASSERT_EQ(da.exec_seconds, db.exec_seconds);
      free_time[da.core] = std::max(now, free_time[da.core]) + da.exec_seconds;
    } else {
      ++drops;
    }
  }
  b.check_index_invariants();
  EXPECT_GT(drops, 0u);
  EXPECT_GT(b.stats().index_parks, 0u);
  EXPECT_LE(b.stats().index_parks, b.stats().index_pops);
}

TEST_F(SchedulerFixture, WinnerJoiningBlockedBucketLowersItsFloor) {
  // One cohort (uniform rates) and a warm-up long enough that no ratio
  // reaches 1, so only deadlines block. Free times only ever grow.
  //   A: c0 wins the count-0 bucket and opens the count-1 bucket.
  //   B: every core is busy past the deadline; both buckets get a floor,
  //      the count-1 bucket's far above the deadline of step D.
  //   C: the rest drain; c1 wins the count-0 bucket and joins count 1.
  //   D: only c1 can still meet the deadline. Unless joining lowered the
  //      count-1 floor to c1's finish, the index skips c1 and drops.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  scan.warmup_seconds = 1e9;
  SchedulerOptions indexed = scan;
  indexed.route_mode = RouteMode::kIndexed;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  std::size_t type = scenario->dc.num_task_types();
  for (std::size_t i = 0; i < scenario->dc.num_task_types(); ++i) {
    if (a.candidates(i).size() >= 3) {
      type = i;
      break;
    }
  }
  ASSERT_LT(type, scenario->dc.num_task_types()) << "need a 3+ candidate type";
  const auto& cands = a.candidates(type);
  const double d = scenario->dc.task_types[type].relative_deadline;
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  const auto route_both = [&](double now) {
    const auto da = a.route(type, now, free_time);
    const auto db = b.route(type, now, free_time);
    EXPECT_EQ(da.assigned, db.assigned) << "at " << now;
    if (da.assigned) {
      EXPECT_EQ(da.core, db.core) << "at " << now;
      free_time[da.core] = std::max(now, free_time[da.core]) + da.exec_seconds;
    }
    return da;
  };
  ASSERT_EQ(route_both(0.0).core, cands[0]);  // A
  for (std::size_t p = 0; p < cands.size(); ++p) {
    free_time[cands[p]] = p == 0 ? 100.0 * d : 10.0 * d;
  }
  ASSERT_FALSE(route_both(d).assigned);  // B
  const auto c = route_both(10.0 * d);   // C
  ASSERT_TRUE(c.assigned);
  ASSERT_EQ(c.core, cands[1]);
  for (std::size_t p = 2; p < cands.size(); ++p) free_time[cands[p]] = 100.0 * d;
  const auto last = route_both(10.0 * d + c.exec_seconds);  // D
  EXPECT_TRUE(last.assigned);
  EXPECT_EQ(last.core, cands[1]);
}

// A type with at least three candidates, or num_task_types() when none has.
std::size_t wide_type(const dc::DataCenter& dc, const DynamicScheduler& s) {
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    if (s.candidates(i).size() >= 3) return i;
  }
  return dc.num_task_types();
}

TEST_F(SchedulerFixture, ParkedBucketReturnsExactlyWhenDeadlineReachesFloor) {
  // One cohort (uniform rates), a warm-up long enough that no ratio reaches
  // 1, and every core busy until B: the first route parks the count-0
  // bucket on floor = B + min exec. A route whose deadline misses the floor
  // by 1e-9 must drop without examining any bucket; a route whose deadline
  // equals the floor must release the bucket and admit the member that
  // sets the floor, as the scan does.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  scan.warmup_seconds = 1e9;
  SchedulerOptions indexed = scan;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  const std::size_t type = wide_type(scenario->dc, a);
  ASSERT_LT(type, scenario->dc.num_task_types()) << "need a 3+ candidate type";
  const auto& cands = a.candidates(type);
  const double d = scenario->dc.task_types[type].relative_deadline;
  const double busy = 50.0 * d;
  std::vector<double> free_time(scenario->dc.total_cores(), busy);
  const auto route_both = [&](double now) {
    const auto da = a.route(type, now, free_time);
    const auto db = b.route(type, now, free_time);
    EXPECT_EQ(da.assigned, db.assigned) << "at " << now;
    if (da.assigned) {
      EXPECT_EQ(da.core, db.core) << "at " << now;
    }
    b.check_index_invariants();
    return db;
  };

  ASSERT_FALSE(route_both(0.0).assigned);
  ASSERT_EQ(b.stats().index_parks, 1u);
  double floor = std::numeric_limits<double>::infinity();
  std::size_t floor_core = 0;
  for (std::size_t p = 0; p < cands.size(); ++p) {
    const double finish = busy + scenario->dc.ecs.etc_seconds(
        type, scenario->dc.core_type(cands[p]), uniform.core_pstate[cands[p]]);
    if (finish < floor) {
      floor = finish;
      floor_core = cands[p];
    }
  }
  // The release threshold is the deadline test's own: the bucket stays
  // parked while floor > now + d + 1e-12.
  const double at = floor - d;
  ASSERT_FALSE(floor > at + d + 1e-12);
  const double before = at - 1e-9;
  ASSERT_TRUE(floor > before + d + 1e-12);

  const std::size_t pops = b.stats().index_pops;
  EXPECT_FALSE(route_both(before).assigned);
  EXPECT_EQ(b.stats().index_pops, pops) << "a parked bucket was examined";
  EXPECT_EQ(b.stats().index_parks, 1u);

  const auto last = route_both(at);
  ASSERT_TRUE(last.assigned);
  EXPECT_EQ(last.core, floor_core);
  EXPECT_EQ(b.stats().index_pops, pops + 1);
}

TEST_F(SchedulerFixture, WinnerJoiningParkedBucketReleasesIt) {
  // One cohort, no ratio above 1, free times that only grow.
  //   A: c0 wins the count-0 bucket and opens the count-1 bucket.
  //   B: every core is busy past the deadline, c0 far longer than the
  //      rest: both buckets park, count 1 on a floor far above step D's
  //      deadline.
  //   C: the count-0 bucket's floor comes due; c1 wins it and joins the
  //      parked count-1 bucket, which must release it.
  //   D: only c1 can meet the deadline. A count-1 bucket still parked on
  //      c0's floor would drop the task the scan admits to c1.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  scan.warmup_seconds = 1e9;
  SchedulerOptions indexed = scan;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler a(scenario->dc, uniform, scan);
  DynamicScheduler b(scenario->dc, uniform, indexed);
  const std::size_t type = wide_type(scenario->dc, a);
  ASSERT_LT(type, scenario->dc.num_task_types()) << "need a 3+ candidate type";
  const auto& cands = a.candidates(type);
  const double d = scenario->dc.task_types[type].relative_deadline;
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  const auto route_both = [&](double now) {
    const auto da = a.route(type, now, free_time);
    const auto db = b.route(type, now, free_time);
    EXPECT_EQ(da.assigned, db.assigned) << "at " << now;
    if (da.assigned) {
      EXPECT_EQ(da.core, db.core) << "at " << now;
      free_time[da.core] = std::max(now, free_time[da.core]) + da.exec_seconds;
    }
    b.check_index_invariants();
    return db;
  };
  ASSERT_EQ(route_both(0.0).core, cands[0]);  // A
  for (std::size_t p = 0; p < cands.size(); ++p) {
    free_time[cands[p]] = p == 0 ? 100.0 * d : 10.0 * d;
  }
  ASSERT_FALSE(route_both(d).assigned);  // B
  ASSERT_EQ(b.stats().index_parks, 2u);
  const auto c = route_both(10.0 * d);  // C
  ASSERT_TRUE(c.assigned);
  ASSERT_EQ(c.core, cands[1]);
  for (std::size_t p = 2; p < cands.size(); ++p) free_time[cands[p]] = 100.0 * d;
  const auto last = route_both(10.0 * d + c.exec_seconds);  // D
  EXPECT_TRUE(last.assigned);
  EXPECT_EQ(last.core, cands[1]);
}

// Routes `type` once against fully blocked cores (setting the floors of its
// buckets), then frees every core without calling the hook.
struct BlockedThenFreed {
  std::size_t type;
  std::vector<double> free_time;
};

BlockedThenFreed block_then_free(const dc::DataCenter& dc,
                                 DynamicScheduler& indexed) {
  BlockedThenFreed out{dc.num_task_types(), {}};
  for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
    if (!indexed.candidates(i).empty()) {
      out.type = i;
      break;
    }
  }
  TAPO_CHECK(out.type < dc.num_task_types());
  out.free_time.assign(dc.total_cores(), 1e9);
  TAPO_CHECK(!indexed.route(out.type, 1.0, out.free_time).assigned);
  TAPO_CHECK(indexed.stats().index_parks > 0);
  std::fill(out.free_time.begin(), out.free_time.end(), 0.0);
  return out;
}

TEST_F(SchedulerFixture, LoweredBacklogWithoutHookTripsValidateIndex) {
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  EXPECT_DEATH(
      {
        DynamicScheduler b(scenario->dc, uniform, indexed);
        const BlockedThenFreed s = block_then_free(scenario->dc, b);
        b.route(s.type, 2.0, s.free_time);  // stale floors skip free cores
      },
      "diverged");
}

TEST_F(SchedulerFixture, LoweredBacklogWithHookMatchesScan) {
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions scan;
  scan.route_mode = RouteMode::kScan;
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler b(scenario->dc, uniform, indexed);
  const BlockedThenFreed s = block_then_free(scenario->dc, b);
  b.backlog_lowered();
  DynamicScheduler a(scenario->dc, uniform, scan);
  const auto da = a.route(s.type, 2.0, s.free_time);
  const auto db = b.route(s.type, 2.0, s.free_time);
  ASSERT_TRUE(da.assigned);
  ASSERT_TRUE(db.assigned);
  EXPECT_EQ(da.core, db.core);
  b.check_index_invariants();
}

TEST_F(SchedulerFixture, ClockGoingBackwardsClearsFloors) {
  // route() keeps the contract's `now` half itself: an earlier `now` than
  // the previous call clears the floors, so a rewound drive stays exact.
  const Assignment uniform = uniform_tc_assignment(scenario->dc, assignment);
  SchedulerOptions indexed;
  indexed.route_mode = RouteMode::kIndexed;
  indexed.validate_index = true;
  DynamicScheduler b(scenario->dc, uniform, indexed);
  const BlockedThenFreed s = block_then_free(scenario->dc, b);
  EXPECT_TRUE(b.route(s.type, 0.5, s.free_time).assigned);
  b.check_index_invariants();
}

TEST_F(SchedulerFixture, IndexInvariantsHoldAfterRandomizedUpdates) {
  SchedulerOptions options;
  options.route_mode = RouteMode::kIndexed;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  util::Rng rng(17);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  double now = 0.0;
  for (int n = 0; n < 500; ++n) {
    now += rng.exponential(20.0);
    const auto type = static_cast<std::size_t>(
        rng.uniform_int(0, scenario->dc.num_task_types() - 1));
    const auto d = scheduler.route(type, now, free_time);
    if (d.assigned) {
      free_time[d.core] = std::max(now, free_time[d.core]) + d.exec_seconds;
    }
    if (n % 50 == 49) scheduler.check_index_invariants();
  }
  scheduler.check_index_invariants();
}

// --- ATC warm-up edge and options validation -------------------------------

TEST_F(SchedulerFixture, FirstArrivalAtStartTimeUsesWarmupFloor) {
  // The first routed arrival starts the ATC clock, so at that arrival the
  // elapsed time is exactly the warm-up floor and ATC = count /
  // warmup_seconds. With a zero floor this would be 0/0 — the reason
  // validate() rejects it.
  SchedulerOptions options;
  options.warmup_seconds = 4.0;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  const auto d = scheduler.route(0, 10.0, free_time);
  ASSERT_TRUE(d.assigned);
  EXPECT_DOUBLE_EQ(scheduler.atc(0, d.core, 10.0), 1.0 / 4.0);
  // Before the floor expires the denominator stays pinned...
  EXPECT_DOUBLE_EQ(scheduler.atc(0, d.core, 12.0), 1.0 / 4.0);
  // ...and past it the true elapsed time takes over.
  EXPECT_DOUBLE_EQ(scheduler.atc(0, d.core, 18.0), 1.0 / 8.0);
}

TEST_F(SchedulerFixture, NanStartTimeStartsClockAtFirstRoute) {
  SchedulerOptions options;
  options.warmup_seconds = 2.0;
  DynamicScheduler scheduler(scenario->dc, assignment, options);
  std::vector<double> free_time(scenario->dc.total_cores(), 0.0);
  const auto d = scheduler.route(0, 7.5, free_time);
  ASSERT_TRUE(d.assigned);
  EXPECT_DOUBLE_EQ(scheduler.atc(0, d.core, 7.5), 0.5);  // 1 / warmup floor
}

TEST(SchedulerOptionsTest, ValidateRejectsDegenerateWarmup) {
  SchedulerOptions options;
  EXPECT_TRUE(options.validate().ok());
  options.warmup_seconds = 0.0;
  EXPECT_FALSE(options.validate().ok());
  options.warmup_seconds = -1.0;
  EXPECT_FALSE(options.validate().ok());
  options.warmup_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(options.validate().ok());
  options.warmup_seconds = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(options.validate().ok());
  options.warmup_seconds = 0.5;
  EXPECT_TRUE(options.validate().ok());
}

}  // namespace
}  // namespace tapo::core
