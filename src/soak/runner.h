// Fleet soak harness: executes a suite of declarative scenario profiles
// (scenario/profile.h) end to end — generate, plan, simulate, anomaly-check —
// in parallel across scenarios, with a content-hash result cache so re-runs
// skip unchanged entries.
//
// Determinism contract: a scenario's report is a pure function of its
// profile. Planning runs with Stage-1 threads pinned to 1 (the suite is the
// parallel axis; Stage-1 results are thread-count-invariant anyway), the DES
// is seeded by the profile, and the anomaly detectors are pure — so the
// per-scenario report JSON is bit-identical for any --jobs value and for
// warm-vs-cold cache (tests/soak/test_runner.cpp pins this). Wall-clock
// timers live only in the separate telemetry artifact, never in the report.
//
// Cache invalidation: the key is profile_hash() — FNV-1a over the canonical
// profile serialization salted with kProfileHashSalt. Any semantic change to
// the profile re-runs it; cosmetic re-serialization (comments, key order,
// float spelling that parses equal) does not; runner-behavior changes
// invalidate everything via a salt bump. docs/SCENARIOS.md documents the
// rules.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/profile.h"
#include "soak/anomaly.h"
#include "util/status.h"

namespace tapo::soak {

struct SoakOptions {
  // Worker threads across scenarios (0 = all hardware, 1 = serial).
  std::size_t threads = 0;
  // Directory for per-scenario telemetry JSON artifacts ("tapo-telemetry-v1",
  // one file per executed scenario). Empty disables artifacts. Cache hits do
  // not rewrite artifacts (the run they describe was skipped).
  std::string out_dir;
  // Report cache directory; empty disables caching. Entries are
  // "<name>-<hash>.{pass,fail}.json" holding the exact report JSON.
  std::string cache_dir;
  // Skip the DES phase (plan-only): used by the library differential test
  // and by --plan-only sweeps where only feasibility is under test.
  bool run_sim = true;
};

struct ScenarioOutcome {
  std::string name;
  std::uint64_t hash = 0;
  bool from_cache = false;
  bool pass = false;
  // Canonical per-scenario report ("tapo-soak-report-v1"): deterministic,
  // byte-identical across thread counts and cache states.
  std::string report_json;
  // Fresh runs carry the structured findings; cache hits carry them inside
  // report_json only (the summary fields above are recovered from the name).
  std::vector<Anomaly> anomalies;
};

struct SoakResult {
  // Non-ok when the suite itself could not run (unreadable cache/out dirs);
  // individual scenario failures are reported per outcome, not here.
  util::Status status;
  std::vector<ScenarioOutcome> outcomes;  // profile order
  std::size_t executed = 0;
  std::size_t cached = 0;
  std::size_t failed = 0;  // outcomes with pass == false

  bool pass() const { return status.ok() && failed == 0; }
};

// Runs one scenario end to end (no cache, no parallelism); the unit of work
// behind run_suite, exposed for tests and the planted-regression fixture.
ScenarioOutcome run_scenario(const scenario::ScenarioProfile& profile,
                             const SoakOptions& options = {});

// Runs the whole suite: cache lookups, parallel execution of the misses,
// cache fill, per-scenario artifacts. Outcome order follows profile order
// regardless of completion order.
SoakResult run_suite(const std::vector<scenario::ScenarioProfile>& profiles,
                     const SoakOptions& options = {});

// Aggregate "tapo-soak-suite-v1" JSON over a finished run: per-scenario
// reports embedded verbatim plus executed/cached/failed totals.
void write_suite_report(const SoakResult& result, std::ostream& os);

}  // namespace tapo::soak
