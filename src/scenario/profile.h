// Declarative scenario profiles ("tapo-scenarios v1").
//
// A profile is the versioned, validated recipe behind a benchmark or soak
// scenario: instead of archiving the raw matrices of one generated instance
// (scenario/io.h does that), it records the *generator inputs* — layout
// scale, CRAC count, node-type skew, the ψ/Vprop/static-share corner, an
// optional time-varying arrival overlay and an optional fault-storm layer —
// so the whole configuration space becomes a first-class, diffable artifact.
// The committed library under scenarios/ spans paper-scale shapes to
// 600-node stress layouts; `tapo_soak` executes a directory of profiles as a
// fleet and `generate_random_profiles` emits seeded random profiles into the
// same format for coverage beyond the hand-named corners.
//
// The text format is line-oriented (`key value...`, one key per line,
// closed by `end`); tokens, numbers, counts, comments and CRLF follow the
// shared lexical rules (util/text.h, docs/SCENARIOS.md "Lexical rules").
// Parsing is strict: unknown keys, duplicate keys, missing sections,
// out-of-range values and trailing junk all produce a line-numbered
// util::Status::InvalidArgument — never a crash, never silent acceptance
// (the fuzz suite in tests/scenario pins this).
// serialize→parse round-trips bit-identically: doubles are written with 17
// significant digits and names percent-encoded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scenario/generator.h"
#include "util/status.h"

namespace tapo::scenario {

// Optional time-varying arrival overlay. kScale multiplies every task type's
// arrival rate after generation (the oversubscription / demand-variation
// knob); kMmpp replays a two-state Markov-modulated trace (sim/trace.h) with
// the profile's burst shape instead of stationary Poisson arrivals.
struct ArrivalOverlay {
  enum class Kind { kNone, kScale, kMmpp };
  Kind kind = Kind::kNone;
  double scale = 1.0;             // kScale: rate multiplier
  double burst_multiplier = 4.0;  // kMmpp: burst rate / quiet rate
  double mean_phase_s = 20.0;     // kMmpp: mean sojourn per phase
  double burst_duty = 0.25;       // kMmpp: long-run burst fraction
};

// Optional piecewise-rate trace overlay ("tapo-traces v1", sim/arrivals.h):
// the soak runner generates the trace over the profile's sim window from the
// generated task types and the profile's sim seed, so the same profile
// always drives the same demand curves. Mutually exclusive with the mmpp
// arrival overlay (both would redefine the arrival process).
struct TraceOverlay {
  enum class Kind { kNone, kDiurnal, kFlash, kBurst };
  Kind kind = Kind::kNone;
  double amplitude = 0.5;     // diurnal swing, [0, 1]
  double magnitude = 3.0;     // flash/burst peak multiplier, [1, 100]
  double start_s = 20.0;      // flash/burst onset (seconds into the run)
  double duration_s = 20.0;   // flash width / burst half-life, > 0
  std::size_t segments = 16;  // diurnal/burst discretization, [2, 256]
};

// Optional receding-horizon re-planner layer; mirrors core::ReplannerOptions
// (the soak runner maps the fields across) without making the scenario layer
// depend on the planner. max_lp_iterations > 0 plants a solve deadline on
// the horizon steps — the committed degraded-step scenarios use it to force
// the docs/RESILIENCE.md ladder without aborting the run.
struct ReplanSection {
  double cadence_s = 20.0;
  double tracking_threshold = 0.5;      // <= 0 disables the sensor trigger
  std::uint64_t max_lp_iterations = 0;  // 0 = no deadline
};

// Optional fault-storm layer; mirrors sim::FaultInjectionConfig (the soak
// runner maps the fields across) without making the scenario layer depend on
// the simulator.
struct FaultStorm {
  std::uint64_t seed = 1;
  double horizon_s = 100.0;
  std::size_t node_failures = 1;
  double node_repair_after_s = 0.0;
  std::size_t crac_derates = 0;
  double crac_capacity_fraction = 0.5;
  double crac_repair_after_s = 0.0;
  double power_cap_fraction = 1.0;  // < 1 inserts one power_cap step
};

// Online-simulation window for the soak run of this profile.
struct SimSection {
  double duration_s = 120.0;
  double warmup_s = 12.0;
  std::uint64_t seed = 2;
  std::size_t samples = 64;  // telemetry series samples over the window
};

struct ScenarioProfile {
  std::string name;  // required; unique within a suite directory

  // Generator inputs (scenario/generator.h).
  std::size_t nodes = 40;
  std::size_t cracs = 2;
  std::size_t task_types = 8;
  std::uint64_t seed = 1;
  double static_fraction = 0.30;
  double v_ecs = 0.1;
  double v_prop = 0.1;
  double v_arrival = 0.3;
  double pconst_factor = 0.5;
  // Node-type mix weights (one per Table-I type); empty = uniform draw.
  std::vector<double> node_mix;
  // Thermal redlines (°C): node inlet and CRAC outlet ceilings. Tightening
  // the node redline below what the CRACs can deliver is the schema's
  // legitimate route to an infeasible-by-design profile.
  double redline_node_c = 25.0;
  double redline_crac_c = 40.0;

  // Planner / simulation knobs.
  double psi = 50.0;
  bool deadline_check = true;  // scheduler admission check (off = queues grow)
  // Online routing policy (core/scheduler.h): the paper's min-ATC/TC rule or
  // one of the ablation baselines. The baselines have no desired-rate guard,
  // so `policy earliest` + `deadline_check off` under oversubscription is
  // the canonical planted-regression recipe (the backlog only ever grows).
  enum class Policy { kMinAtcTc, kEarliestFinish, kRandom };
  Policy policy = Policy::kMinAtcTc;
  ArrivalOverlay arrival;
  TraceOverlay trace;
  std::optional<FaultStorm> faults;
  std::optional<ReplanSection> replan;
  SimSection sim;

  // `expect infeasible` tags budget corners that are infeasible by design;
  // the soak runner then passes the profile iff no plan exists.
  bool expect_infeasible = false;

  // Range/consistency checks (also run by load_profile). Errors name the
  // offending field; callers stack file/line context on top.
  util::Status validate() const;

  // Generator configuration for this profile (arrival overlay excluded: the
  // runner applies it to the generated instance).
  ScenarioConfig to_config() const;
};

bool operator==(const ScenarioProfile& a, const ScenarioProfile& b);
inline bool operator!=(const ScenarioProfile& a, const ScenarioProfile& b) {
  return !(a == b);
}

// Canonical serialization: fixed key order, %.17g doubles (so every double
// survives strtod round-trip exactly), percent-encoded names, closed by
// `end`. parse(serialize(p)) == p for every valid profile.
void save_profile(const ScenarioProfile& profile, std::ostream& os);
std::string serialize_profile(const ScenarioProfile& profile);
bool save_profile_file(const ScenarioProfile& profile, const std::string& path);

// Strict parse + validate. Every failure is an InvalidArgument carrying the
// line number ("line N: ..."); the file wrapper prefixes the path.
util::StatusOr<ScenarioProfile> load_profile(std::istream& is);
util::StatusOr<ScenarioProfile> parse_profile(const std::string& text);
util::StatusOr<ScenarioProfile> load_profile_file(const std::string& path);

// Loads every "*.tapo" file under `dir` (sorted by filename, so suite order
// is stable across platforms). Duplicate profile names across the directory
// are an InvalidArgument — names key the soak cache.
util::StatusOr<std::vector<ScenarioProfile>> load_profile_dir(
    const std::string& dir);

// Content hash of the canonical serialization (FNV-1a 64), salted with the
// runner format version: any change to a profile's semantics — or a bump of
// kProfileHashSalt when runner semantics change — invalidates soak cache
// entries. Equal profiles always hash equal (hash is a pure function of
// serialize_profile). docs/SCENARIOS.md documents the invalidation rules.
extern const char kProfileHashSalt[];
std::uint64_t profile_hash(const ScenarioProfile& profile);

// Seeded random profile generation: `count` profiles named
// "<prefix>-<seed>-<index>" drawn across the configuration space (node
// scale, CRAC count 1-10 capped at nodes/6 so the Eq.-17 power bounds stay
// feasible, skewed mixes, ψ/Vprop/static-share corners, arrival overlays,
// fault storms). Deterministic in (seed, count, prefix); every emitted
// profile passes validate().
struct ProfileGenConfig {
  std::uint64_t seed = 1;
  std::size_t count = 10;
  std::size_t max_nodes = 600;
  std::string prefix = "gen";
};
std::vector<ScenarioProfile> generate_random_profiles(
    const ProfileGenConfig& config);

}  // namespace tapo::scenario
