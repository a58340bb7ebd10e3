// "tapo-scenarios v1" schema: validator units, serialize/parse round-trips,
// and a seed-driven mutation fuzz over the parser. The fuzz cases run under
// the ASan+UBSan CI job via this suite: every mutation must produce a
// line-numbered InvalidArgument or a profile that revalidates — never a
// crash or a silently-accepted corrupt document.
#include "scenario/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tapo::scenario {
namespace {

// Index in [0, n); n == 0 yields 0 (callers guard emptiness themselves).
std::size_t pick(util::Rng& rng, std::size_t n) {
  if (n == 0) return 0;
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

ScenarioProfile valid_profile() {
  ScenarioProfile p;
  p.name = "unit-profile";
  return p;
}

ScenarioProfile busy_profile() {
  // Every optional section present, so mutations can reach all keys.
  ScenarioProfile p;
  p.name = "busy profile \xf0\x9f\x8c\xa1";  // decoded name may hold anything
  p.nodes = 64;
  p.cracs = 3;
  p.task_types = 12;
  p.seed = 99;
  p.static_fraction = 0.42;
  p.v_ecs = 0.2;
  p.v_prop = 0.35;
  p.v_arrival = 0.15;
  p.pconst_factor = 0.65;
  p.node_mix = {0.25, 0.75};
  p.redline_node_c = 27.5;
  p.redline_crac_c = 42.0;
  p.psi = 25.0;
  p.deadline_check = false;
  p.policy = ScenarioProfile::Policy::kEarliestFinish;
  p.arrival.kind = ArrivalOverlay::Kind::kMmpp;
  p.arrival.burst_multiplier = 5.0;
  p.arrival.mean_phase_s = 17.0;
  p.arrival.burst_duty = 0.3;
  FaultStorm storm;
  storm.seed = 7;
  storm.horizon_s = 90.0;
  storm.node_failures = 5;
  storm.node_repair_after_s = 25.0;
  storm.crac_derates = 1;
  storm.crac_capacity_fraction = 0.55;
  storm.crac_repair_after_s = 30.0;
  storm.power_cap_fraction = 0.85;
  p.faults = storm;
  p.sim.duration_s = 75.0;
  p.sim.warmup_s = 10.0;
  p.sim.seed = 11;
  p.sim.samples = 48;
  ReplanSection replan;
  replan.cadence_s = 18.0;
  replan.tracking_threshold = 0.35;
  replan.max_lp_iterations = 250;
  p.replan = replan;
  return p;
}

// Second rich document: trace overlay present (busy_profile cannot carry one
// because its mmpp arrival conflicts), so the fuzz reaches the trace keys.
ScenarioProfile drift_profile() {
  ScenarioProfile p;
  p.name = "drift-profile";
  p.nodes = 48;
  p.arrival.kind = ArrivalOverlay::Kind::kScale;
  p.arrival.scale = 1.5;
  p.trace.kind = TraceOverlay::Kind::kBurst;
  p.trace.start_s = 22.0;
  p.trace.magnitude = 4.0;
  p.trace.duration_s = 12.0;
  p.trace.segments = 10;
  FaultStorm storm;
  storm.node_failures = 2;
  p.faults = storm;
  ReplanSection replan;
  replan.cadence_s = 20.0;
  replan.tracking_threshold = 0.0;
  p.replan = replan;
  return p;
}

TEST(Profile, DefaultsValidate) {
  EXPECT_TRUE(valid_profile().validate().ok());
  EXPECT_TRUE(busy_profile().validate().ok());
  EXPECT_TRUE(drift_profile().validate().ok());
}

TEST(Profile, ValidationNamesTheField) {
  struct Case {
    void (*mutate)(ScenarioProfile&);
    const char* fragment;
  };
  const Case cases[] = {
      {[](ScenarioProfile& p) { p.name.clear(); }, "name"},
      {[](ScenarioProfile& p) { p.nodes = 0; }, "nodes"},
      {[](ScenarioProfile& p) { p.cracs = 11; }, "cracs"},
      {[](ScenarioProfile& p) { p.task_types = 65; }, "task_types"},
      {[](ScenarioProfile& p) { p.static_fraction = 1.0; }, "static_fraction"},
      {[](ScenarioProfile& p) { p.v_ecs = -0.1; }, "v_ecs"},
      {[](ScenarioProfile& p) { p.v_prop = 2.0; }, "v_prop"},
      {[](ScenarioProfile& p) { p.v_arrival = 1.0; }, "v_arrival"},
      {[](ScenarioProfile& p) { p.pconst_factor = 1.5; }, "pconst_factor"},
      {[](ScenarioProfile& p) { p.node_mix = {1.0}; }, "node_mix"},
      {[](ScenarioProfile& p) { p.node_mix = {0.0, 0.0}; }, "node_mix"},
      {[](ScenarioProfile& p) { p.redline_node_c = 0.0; }, "redline"},
      {[](ScenarioProfile& p) { p.psi = 0.0; }, "psi"},
      {[](ScenarioProfile& p) { p.psi = 101.0; }, "psi"},
      {[](ScenarioProfile& p) {
         p.arrival.kind = ArrivalOverlay::Kind::kScale;
         p.arrival.scale = 0.0;
       },
       "scale"},
      {[](ScenarioProfile& p) {
         p.arrival.kind = ArrivalOverlay::Kind::kMmpp;
         p.arrival.burst_duty = 1.0;
       },
       "duty"},
      {[](ScenarioProfile& p) {
         FaultStorm f;
         f.node_failures = p.nodes + 1;
         p.faults = f;
       },
       "node_failures"},
      {[](ScenarioProfile& p) {
         FaultStorm f;
         f.power_cap_fraction = 0.0;
         p.faults = f;
       },
       "power_cap"},
      {[](ScenarioProfile& p) { p.sim.duration_s = 0.0; }, "duration"},
      {[](ScenarioProfile& p) { p.sim.warmup_s = p.sim.duration_s; },
       "warmup"},
      {[](ScenarioProfile& p) { p.sim.samples = 1; }, "samples"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kDiurnal;
         p.trace.amplitude = 1.5;
       },
       "amplitude"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kDiurnal;
         p.trace.segments = 1;
       },
       "segments"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kFlash;
         p.trace.magnitude = 0.5;
       },
       "magnitude"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kFlash;
         p.trace.start_s = -1.0;
       },
       "start"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kBurst;
         p.trace.duration_s = 0.0;
       },
       "duration"},
      {[](ScenarioProfile& p) {
         p.trace.kind = TraceOverlay::Kind::kDiurnal;
         p.arrival.kind = ArrivalOverlay::Kind::kMmpp;
       },
       "mmpp"},
      {[](ScenarioProfile& p) {
         ReplanSection r;
         r.cadence_s = 0.0;
         p.replan = r;
       },
       "cadence"},
      {[](ScenarioProfile& p) {
         ReplanSection r;
         r.tracking_threshold =
             std::numeric_limits<double>::quiet_NaN();
         p.replan = r;
       },
       "tracking"},
  };
  for (const Case& c : cases) {
    ScenarioProfile p = valid_profile();
    c.mutate(p);
    const util::Status s = p.validate();
    EXPECT_FALSE(s.ok()) << "expected rejection mentioning " << c.fragment;
    EXPECT_NE(s.message().find(c.fragment), std::string::npos)
        << "got: " << s.message();
  }
}

TEST(Profile, SerializeParseRoundTripIsExact) {
  for (const ScenarioProfile& original :
       {valid_profile(), busy_profile(), drift_profile()}) {
    const std::string text = serialize_profile(original);
    util::StatusOr<ScenarioProfile> parsed = parse_profile(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(*parsed, original);
    // Bit-exact: re-serializing the parse reproduces the document.
    EXPECT_EQ(serialize_profile(*parsed), text);
  }
}

TEST(Profile, AwkwardDoublesSurviveRoundTrip) {
  ScenarioProfile p = valid_profile();
  p.static_fraction = 0.1 + 0.2;  // classic 0.30000000000000004
  p.v_prop = 1.0 / 3.0;
  p.psi = 99.999999999999986;
  util::StatusOr<ScenarioProfile> parsed =
      parse_profile(serialize_profile(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->static_fraction, p.static_fraction);
  EXPECT_EQ(parsed->v_prop, p.v_prop);
  EXPECT_EQ(parsed->psi, p.psi);
}

TEST(Profile, CommentsAndBlankLinesAreSkipped) {
  const std::string text =
      "# leading comment\n"
      "\n"
      "tapo-scenarios v1\n"
      "# interior comment\n"
      "name commented\n"
      "\n"
      "end\n";
  util::StatusOr<ScenarioProfile> parsed = parse_profile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->name, "commented");
}

TEST(Profile, ParserErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* line;  // "line N" expected in the message
  };
  const Case cases[] = {
      {"tapo-scenarios v2\nname x\nend\n", "line 1"},
      {"tapo-scenarios v1\nname x\nnodes banana\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nnodes 4\nnodes 5\nend\n", "line 4"},
      {"tapo-scenarios v1\nname x\nwat 3\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nend\nname y\n", "line 4"},
      {"tapo-scenarios v1\nname x\npsi\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nseed -3\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\narrival warp 2\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\ntrace square 2 3\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\ntrace diurnal 0.5\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nreplan 20 0.5\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nreplan 20 0.5 -1\nend\n", "line 3"},
      {"tapo-scenarios v1\nname x\nnodes 4\n", "line 3"},  // missing end
  };
  for (const Case& c : cases) {
    util::StatusOr<ScenarioProfile> parsed = parse_profile(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(c.line), std::string::npos)
        << "wanted '" << c.line << "' in: " << parsed.status().to_string();
  }
}

// Seed-driven mutation fuzz: truncations, line deletions, token swaps, digit
// garbling, and duplicated lines over a rich valid document. The parser must
// return InvalidArgument (line-numbered) or a profile that passes
// validate() — and must never crash, which ASan/UBSan turns into a hard
// failure in CI.
TEST(Profile, IntegersFollowTheSharedLexicalRules) {
  // strtoull clamped an overflowing seed to 18446744073709551615 and
  // strtoll accepted a sign on counts.
  const char* const bad[] = {
      "seed 99999999999999999999", "seed 18446744073709551616",
      "nodes +5",                  "nodes -0",
      "sim 120 12 2 +64",          "psi 1e999",
      "psi inf",
  };
  for (const char* line : bad) {
    const auto parsed = parse_profile(std::string("tapo-scenarios v1\nname x\n") +
                                      line + "\nend\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
        << parsed.status().to_string();
  }
  const auto max_seed = parse_profile(
      "tapo-scenarios v1\r\nname x\r\nseed 18446744073709551615\r\nend\r\n");
  ASSERT_TRUE(max_seed.ok()) << max_seed.status().to_string();
  EXPECT_EQ(max_seed->seed, 18446744073709551615ULL);
}

TEST(Profile, MutationFuzzNeverCrashesOrSilentlyAccepts) {
  const std::string bases[] = {serialize_profile(busy_profile()),
                               serialize_profile(drift_profile())};
  util::Rng rng(20260807);
  std::size_t rejected = 0, accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = bases[iter % 2];
    const std::size_t kind = pick(rng, 6);
    switch (kind) {
      case 0:  // truncate at a random byte
        text.resize(pick(rng, text.size() + 1));
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
                    static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
        text.clear();
        for (const std::string& l : lines) text += l + "\n";
        break;
      }
      case 2: {  // garble one byte
        if (!text.empty()) {
          const std::size_t at = pick(rng, text.size());
          text[at] = static_cast<char>('!' + pick(rng, 94));
        }
        break;
      }
      case 3: {  // duplicate a random line at the end (before nothing)
        const std::size_t cut = pick(rng, text.size());
        const std::size_t nl = text.find('\n', cut);
        const std::size_t begin = text.rfind('\n', cut);
        const std::string line = text.substr(
            begin == std::string::npos ? 0 : begin + 1,
            (nl == std::string::npos ? text.size() : nl) -
                (begin == std::string::npos ? 0 : begin + 1));
        text += line + "\n";
        break;
      }
      case 4: {  // out-of-range numeric splice
        const char* const splices[] = {"nodes 0\n", "cracs 99\n",
                                       "psi 1e300\n", "psi nan\n",
                                       "static_fraction -1\n",
                                       "sim 10 20 1 4\n"};
        text.insert(text.find("name"), splices[pick(rng, 6)]);
        break;
      }
      default: {  // shuffle: move the header somewhere else
        text = text.substr(18) + text.substr(0, 18);
        break;
      }
    }
    util::StatusOr<ScenarioProfile> parsed = parse_profile(text);
    if (parsed.ok()) {
      ++accepted;
      // Anything the parser accepts must satisfy the validator; a corrupt
      // document that parses clean is a silent acceptance bug.
      EXPECT_TRUE(parsed->validate().ok()) << text;
    } else {
      ++rejected;
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
          << parsed.status().to_string();
    }
  }
  // The mutations are aggressive: most must be rejected, and a few benign
  // ones (e.g. garbling a digit into another digit) may survive.
  EXPECT_GT(rejected, 2000u);
  EXPECT_GT(accepted, 0u);
}

TEST(Profile, HashIsStableAndSemantic) {
  const ScenarioProfile a = busy_profile();
  ScenarioProfile b = a;
  EXPECT_EQ(profile_hash(a), profile_hash(b));
  b.seed += 1;
  EXPECT_NE(profile_hash(a), profile_hash(b));
  // The hash covers the canonical serialization, so a re-parsed profile
  // hashes identically (cosmetic formatting cannot invalidate a cache).
  util::StatusOr<ScenarioProfile> reparsed =
      parse_profile("# cosmetic\n" + serialize_profile(a) + "\n\n");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(profile_hash(*reparsed), profile_hash(a));
}

TEST(Profile, GeneratorEmitsValidUniqueProfiles) {
  ProfileGenConfig config;
  config.seed = 5;
  config.count = 24;
  const std::vector<ScenarioProfile> profiles =
      generate_random_profiles(config);
  ASSERT_EQ(profiles.size(), config.count);
  std::vector<std::string> names;
  for (const ScenarioProfile& p : profiles) {
    EXPECT_TRUE(p.validate().ok()) << p.name;
    EXPECT_LE(p.nodes, config.max_nodes);
    // Feasible by construction: below ~6 nodes per CRAC the Eq.-17 power
    // bounds go infeasible, and random draws carry no `expect infeasible`.
    EXPECT_LE(p.cracs, std::max<std::size_t>(1, p.nodes / 6)) << p.name;
    names.push_back(p.name);
    // Same format as the committed library: round-trips exactly.
    util::StatusOr<ScenarioProfile> parsed =
        parse_profile(serialize_profile(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  // Deterministic in the seed.
  const std::vector<ScenarioProfile> again = generate_random_profiles(config);
  ASSERT_EQ(again.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(again[i], profiles[i]);
  }
}

}  // namespace
}  // namespace tapo::scenario
