// "tapo-traces v1" piecewise-constant rate traces: validation, exact
// serialize/parse round-trips, line-numbered parse errors, seeded shape
// generators, trace-driven arrival sampling (including the mid-trace
// rate->0 regression), and trace-driven simulate() end to end. The mutation
// fuzz runs under the ASan+UBSan CI job via this suite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/assigner.h"
#include "sim/arrivals.h"
#include "sim/des.h"
#include "testutil.h"
#include "thermal/heatflow.h"
#include "util/rng.h"

namespace tapo::sim {
namespace {

std::vector<dc::TaskType> two_types(double r1, double r2) {
  dc::TaskType a, b;
  a.arrival_rate = r1;
  b.arrival_rate = r2;
  return {a, b};
}

RateTrace two_type_trace() {
  RateTrace trace;
  trace.per_type = {
      {{0.0, 2.0}, {10.0, 6.0}, {30.0, 2.0}},
      {{0.0, 1.0}, {20.0, 0.0}},
  };
  return trace;
}

TEST(RateTrace, ValidateAcceptsAndRejects) {
  EXPECT_TRUE(two_type_trace().validate().ok());

  RateTrace empty;
  EXPECT_FALSE(empty.validate().ok());

  RateTrace no_segments;
  no_segments.per_type = {{}};
  EXPECT_FALSE(no_segments.validate().ok());

  RateTrace late_start = two_type_trace();
  late_start.per_type[0][0].start_s = 1.0;
  EXPECT_FALSE(late_start.validate().ok());

  RateTrace unordered = two_type_trace();
  unordered.per_type[0][2].start_s = 10.0;  // equals the previous start
  EXPECT_FALSE(unordered.validate().ok());

  RateTrace negative = two_type_trace();
  negative.per_type[1][1].rate = -0.5;
  EXPECT_FALSE(negative.validate().ok());

  RateTrace inf_rate = two_type_trace();
  inf_rate.per_type[0][1].rate = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(inf_rate.validate().ok());
}

TEST(RateTrace, RateAtFollowsSegments) {
  const RateTrace trace = two_type_trace();
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 9.999), 2.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 10.0), 6.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 29.0), 6.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 1e9), 2.0);  // last segment extends
  EXPECT_DOUBLE_EQ(trace.rate_at(1, 19.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(1, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(trace.peak_rate(0), 6.0);
  EXPECT_DOUBLE_EQ(trace.peak_rate(1), 1.0);
}

TEST(RateTrace, SerializeParseRoundTripIsExact) {
  RateTrace trace = two_type_trace();
  trace.per_type[0][1].rate = 0.1 + 0.2;  // 0.30000000000000004
  trace.per_type[1][0].rate = 1.0 / 3.0;
  const std::string text = serialize_rate_trace(trace);
  util::StatusOr<RateTrace> parsed = parse_rate_trace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, trace);
  EXPECT_EQ(serialize_rate_trace(*parsed), text);
}

TEST(RateTrace, ParserErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* line;
  };
  const Case cases[] = {
      {"tapo-traces v2\ntypes 1\nseg 0 0 1\nend\n", "line 1"},
      {"tapo-traces v1\nseg 0 0 1\nend\n", "line 2"},  // seg before types
      {"tapo-traces v1\ntypes 1\nseg 0 0 banana\nend\n", "line 3"},
      {"tapo-traces v1\ntypes 1\nseg 1 0 1\nend\n", "line 3"},  // bad index
      {"tapo-traces v1\ntypes 2\nseg 1 0 1\nseg 0 0 1\nend\n",
       "line 4"},  // types out of order
      {"tapo-traces v1\ntypes 1\nseg 0 0 1\nwat\nend\n", "line 4"},
      {"tapo-traces v1\ntypes 1\nseg 0 0 1\nend\nseg 0 1 1\n", "line 5"},
  };
  for (const Case& c : cases) {
    util::StatusOr<RateTrace> parsed = parse_rate_trace(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(c.line), std::string::npos)
        << "wanted '" << c.line << "' in: " << parsed.status().to_string();
  }
  // Structural failures caught by the post-parse validation pass (no line
  // number, but still a clean InvalidArgument).
  const char* const invalid_docs[] = {
      "tapo-traces v1\ntypes 1\nseg 0 0 1\nseg 0 0 2\nend\n",  // equal starts
      "tapo-traces v1\ntypes 1\nseg 0 5 1\nend\n",             // start != 0
      "tapo-traces v1\ntypes 1\nseg 0 0 1\n",                  // missing end
      "tapo-traces v1\ntypes 2\nseg 0 0 1\nend\n",             // type 1 empty
  };
  for (const char* doc : invalid_docs) {
    util::StatusOr<RateTrace> parsed = parse_rate_trace(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(RateTrace, TypeCountIsNotTrustedForAllocation) {
  // 'types' sized the per-type table up front: 2^60 threw from inside the
  // loader. The table now grows with the segments the document holds.
  const auto huge =
      parse_rate_trace("tapo-traces v1\ntypes 1152921504606846976\n"
                       "seg 0 0 1\nend\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().message(), "trace type 1: no segments");
  const auto gap = parse_rate_trace(
      "tapo-traces v1\ntypes 3\nseg 0 0 1\nseg 2 0 1\nend\n");
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().message(), "trace type 1: no segments");
  const auto crlf = parse_rate_trace(
      "tapo-traces v1\r\ntypes 2\r\nseg 0 0 1\r\nseg 1 0 2\r\nend\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().to_string();
  EXPECT_EQ(crlf->rate_at(1, 5.0), 2.0);
}

TEST(RateTrace, CommentsAndBlankLinesAreSkipped) {
  const std::string text =
      "# leading comment\n"
      "\n"
      "tapo-traces v1\n"
      "types 1\n"
      "# interior\n"
      "seg 0 0 2.5\n"
      "\n"
      "end\n";
  util::StatusOr<RateTrace> parsed = parse_rate_trace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_DOUBLE_EQ(parsed->rate_at(0, 1.0), 2.5);
}

// Seed-driven mutation fuzz mirroring the scenario-profile suite: every
// mutation must produce a line-numbered InvalidArgument or a trace that
// revalidates — never a crash or a silently-accepted corrupt document.
TEST(RateTrace, MutationFuzzNeverCrashesOrSilentlyAccepts) {
  const std::string base = serialize_rate_trace(two_type_trace());
  util::Rng rng(20260808);
  const auto pick = [&rng](std::size_t n) -> std::size_t {
    if (n == 0) return 0;
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = base;
    switch (pick(5)) {
      case 0:
        text.resize(pick(text.size() + 1));
        break;
      case 1: {  // delete one line
        std::vector<std::string> lines;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= text.size(); ++i) {
          if (i == text.size() || text[i] == '\n') {
            lines.push_back(text.substr(start, i - start));
            start = i + 1;
          }
        }
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(pick(lines.size())));
        text.clear();
        for (const std::string& l : lines) text += l + "\n";
        break;
      }
      case 2: {  // garble one byte
        if (!text.empty()) {
          text[pick(text.size())] = static_cast<char>('!' + pick(94));
        }
        break;
      }
      case 3: {  // splice a hostile line after the header
        const char* const splices[] = {"seg 9 0 1\n",   "seg 0 -1 1\n",
                                       "seg 0 0 -2\n",  "seg 0 nan 1\n",
                                       "types 0\n",     "seg 0 inf 1\n"};
        text.insert(text.find('\n') + 1, splices[pick(6)]);
        break;
      }
      default:  // move the header somewhere else
        text = text.substr(14) + text.substr(0, 14);
        break;
    }
    util::StatusOr<RateTrace> parsed = parse_rate_trace(text);
    if (parsed.ok()) {
      ++accepted;
      EXPECT_TRUE(parsed->validate().ok()) << text;
    } else {
      ++rejected;
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
          << parsed.status().to_string();
    }
  }
  EXPECT_GT(rejected, 1500u);
  EXPECT_GT(accepted, 0u);
}

TEST(RateTrace, GeneratorsAreDeterministicAndValid) {
  const std::vector<dc::TaskType> types = two_types(4.0, 1.5);
  for (const auto kind :
       {RateTraceGenConfig::Kind::kDiurnal, RateTraceGenConfig::Kind::kFlashCrowd,
        RateTraceGenConfig::Kind::kDecayingBurst}) {
    RateTraceGenConfig config;
    config.kind = kind;
    config.seed = 42;
    const RateTrace a = generate_rate_trace(types, config);
    const RateTrace b = generate_rate_trace(types, config);
    EXPECT_TRUE(a.validate().ok());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.num_task_types(), types.size());
    config.seed = 43;
    const RateTrace c = generate_rate_trace(types, config);
    EXPECT_TRUE(c.validate().ok());
  }
}

TEST(RateTrace, GeneratorConfigValidationRejectsDegenerateFields) {
  EXPECT_TRUE(RateTraceGenConfig{}.validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    RateTraceGenConfig c;
    c.start_s = -1.0;  // < 0 draws the onset from the seed
    EXPECT_TRUE(c.validate().ok());
  }
  const auto rejects = [](auto mutate) {
    RateTraceGenConfig c;
    mutate(c);
    return !c.validate().ok();
  };
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.start_s = nan; }));
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.start_s = inf; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.start_s = c.horizon_s; }));
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.horizon_s = nan; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.horizon_s = 0.0; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.segments = 0; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.amplitude = 1.5; }));
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.amplitude = nan; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.magnitude = 0.5; }));
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.magnitude = inf; }));
  EXPECT_TRUE(rejects([](RateTraceGenConfig& c) { c.duration_s = 0.0; }));
  EXPECT_TRUE(rejects([&](RateTraceGenConfig& c) { c.duration_s = nan; }));
}

TEST(RateTrace, FlashCrowdPeaksAtMagnitude) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kFlashCrowd;
  config.start_s = 30.0;
  config.magnitude = 4.0;
  config.duration_s = 15.0;
  const RateTrace trace = generate_rate_trace(two_types(2.0, 1.0), config);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 35.0), 8.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(trace.peak_rate(1), 4.0);
}

TEST(RateTrace, DecayingBurstDecaysTowardBase) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kDecayingBurst;
  config.start_s = 20.0;
  config.magnitude = 5.0;
  config.duration_s = 10.0;  // half-life
  const RateTrace trace = generate_rate_trace(two_types(2.0, 1.0), config);
  const double at_onset = trace.rate_at(0, 20.0 + 1e-9);
  const double later = trace.rate_at(0, 45.0);
  const double base = trace.rate_at(0, 5.0);
  EXPECT_DOUBLE_EQ(base, 2.0);
  EXPECT_GT(at_onset, later);
  EXPECT_GT(later, base - 1e-12);
  // The post-onset rates never increase.
  double prev = at_onset;
  for (double t = 21.0; t < 90.0; t += 1.0) {
    const double r = trace.rate_at(0, t);
    EXPECT_LE(r, prev + 1e-12) << "t=" << t;
    prev = r;
  }
}

TEST(RateTrace, DiurnalSwingsAroundBase) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kDiurnal;
  config.amplitude = 0.5;
  config.segments = 32;
  const RateTrace trace = generate_rate_trace(two_types(4.0, 1.0), config);
  double lo = 1e300, hi = 0.0;
  for (double t = 0.0; t < 100.0; t += 1.0) {
    const double r = trace.rate_at(0, t);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_LT(lo, 4.0);
  EXPECT_GT(hi, 4.0);
  EXPECT_GE(lo, 4.0 * 0.5 - 1e-9);
  EXPECT_LE(hi, 4.0 * 1.5 + 1e-9);
}

// --- Trace-driven arrival sampling ----------------------------------------

TEST(TraceArrivals, WithoutTraceMatchesInterarrivalPath) {
  // next_arrival_after with no trace must reproduce now + next_interarrival
  // bit-identically (the DES relies on this for seed stability).
  ArrivalProcess a(two_types(2.0, 3.0), util::Rng(5));
  ArrivalProcess b(two_types(2.0, 3.0), util::Rng(5));
  double now_a = 0.0, now_b = 0.0;
  for (int i = 0; i < 50; ++i) {
    now_a = a.next_arrival_after(0, now_a);
    now_b += b.next_interarrival(0);
    ASSERT_DOUBLE_EQ(now_a, now_b);
  }
}

TEST(TraceArrivals, SegmentRatesAreRealized) {
  // Count arrivals inside each segment of a two-segment trace; the empirical
  // rates must match the segment rates.
  RateTrace trace;
  trace.per_type = {{{0.0, 2.0}, {100.0, 8.0}}};
  dc::TaskType t;
  t.arrival_rate = 2.0;
  std::vector<dc::TaskType> types = {t};
  std::size_t in_first = 0, in_second = 0;
  for (int rep = 0; rep < 200; ++rep) {
    ArrivalProcess arrivals(types, util::Rng(1000 + rep), &trace);
    double now = 0.0;
    while (true) {
      now = arrivals.next_arrival_after(0, now);
      if (now >= 200.0) break;
      ++(now < 100.0 ? in_first : in_second);
    }
  }
  const double first_rate = static_cast<double>(in_first) / (200.0 * 100.0);
  const double second_rate = static_cast<double>(in_second) / (200.0 * 100.0);
  EXPECT_NEAR(first_rate, 2.0, 0.05);
  EXPECT_NEAR(second_rate, 8.0, 0.1);
}

TEST(TraceArrivals, MidTraceRateDropToZeroSilencesTheType) {
  // Regression for the stale-pre-drawn-arrival bug class: a rate that drops
  // to 0 at t=10 must produce no arrivals at or after 10, even though draws
  // made before the boundary could have landed past it.
  RateTrace trace;
  trace.per_type = {{{0.0, 5.0}, {10.0, 0.0}}};
  dc::TaskType t;
  t.arrival_rate = 5.0;
  for (int rep = 0; rep < 100; ++rep) {
    ArrivalProcess arrivals(std::vector<dc::TaskType>{t},
                            util::Rng(7000 + rep), &trace);
    double now = 0.0;
    while (true) {
      now = arrivals.next_arrival_after(0, now);
      if (std::isinf(now)) break;
      EXPECT_LT(now, 10.0);
    }
    EXPECT_TRUE(std::isinf(now));
  }
}

TEST(TraceArrivals, ZeroRateGapIsSkippedWithoutConsumingRandomness) {
  // rate 0 on [0, 50), then 3.0: the first arrival lands after 50, and the
  // stream state at the gap's end is as if the process started there.
  RateTrace gap;
  gap.per_type = {{{0.0, 0.0}, {50.0, 3.0}}};
  RateTrace immediate;
  immediate.per_type = {{{0.0, 3.0}}};
  dc::TaskType t;
  t.arrival_rate = 3.0;
  ArrivalProcess a(std::vector<dc::TaskType>{t}, util::Rng(11), &gap);
  ArrivalProcess b(std::vector<dc::TaskType>{t}, util::Rng(11), &immediate);
  const double first_a = a.next_arrival_after(0, 0.0);
  const double first_b = b.next_arrival_after(0, 0.0);
  EXPECT_DOUBLE_EQ(first_a, 50.0 + first_b);
}

// --- Trace-driven simulate() ----------------------------------------------

struct RateTraceSimFixture : ::testing::Test {
  void SetUp() override {
    scenario = std::make_unique<scenario::Scenario>(
        test::make_small_scenario(131, 8, 2));
    model = std::make_unique<thermal::HeatFlowModel>(scenario->dc);
    const core::ThreeStageAssigner assigner(scenario->dc, *model);
    assignment = assigner.assign();
    ASSERT_TRUE(assignment.feasible);
  }
  std::unique_ptr<scenario::Scenario> scenario;
  std::unique_ptr<thermal::HeatFlowModel> model;
  core::Assignment assignment;
};

TEST_F(RateTraceSimFixture, SimulateUnderTraceKeepsAccountingConsistent) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kFlashCrowd;
  config.start_s = 10.0;
  config.magnitude = 3.0;
  config.duration_s = 10.0;
  config.horizon_s = 40.0;
  const RateTrace trace =
      generate_rate_trace(scenario->dc.task_types, config);
  SimOptions options;
  options.duration_seconds = 40.0;
  options.rate_trace = &trace;
  const SimResult result = simulate(scenario->dc, assignment, options);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  std::size_t arrived = 0;
  for (const auto& m : result.per_type) {
    EXPECT_EQ(m.arrived, m.assigned + m.dropped);
    arrived += m.arrived;
  }
  EXPECT_GT(arrived, 0u);
}

TEST_F(RateTraceSimFixture, FlashCrowdRaisesArrivalsAboveStationary) {
  RateTraceGenConfig config;
  config.kind = RateTraceGenConfig::Kind::kFlashCrowd;
  config.start_s = 5.0;
  config.magnitude = 4.0;
  config.duration_s = 30.0;
  config.horizon_s = 40.0;
  const RateTrace trace =
      generate_rate_trace(scenario->dc.task_types, config);
  SimOptions options;
  options.duration_seconds = 40.0;
  const SimResult stationary = simulate(scenario->dc, assignment, options);
  options.rate_trace = &trace;
  const SimResult surged = simulate(scenario->dc, assignment, options);
  std::size_t base = 0, flash = 0;
  for (const auto& m : stationary.per_type) base += m.arrived;
  for (const auto& m : surged.per_type) flash += m.arrived;
  EXPECT_GT(flash, base + base / 2);
}

TEST_F(RateTraceSimFixture, TraceTypeCountMismatchIsRejected) {
  RateTrace trace;
  trace.per_type = {{{0.0, 1.0}}};  // one type; the scenario has more
  SimOptions options;
  options.duration_seconds = 10.0;
  options.rate_trace = &trace;
  const SimResult result = simulate(scenario->dc, assignment, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), util::StatusCode::kInvalidArgument);
}

TEST_F(RateTraceSimFixture, InvalidTraceIsRejectedByValidate) {
  RateTrace trace;
  trace.per_type = {{{5.0, 1.0}}};  // first segment must start at 0
  SimOptions options;
  options.rate_trace = &trace;
  EXPECT_FALSE(options.validate().ok());
}

}  // namespace
}  // namespace tapo::sim
