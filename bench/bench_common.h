// Shared helpers for the benchmark/reproduction binaries.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "util/telemetry.h"

namespace tapo::bench {

// Every TAPO_* knob the readers below have resolved, in first-read order:
// (name, "value" plus "(default)" when unset or a note when the value was
// rejected). print_config lists them in a harness header.
inline std::vector<std::pair<std::string, std::string>>& knobs_read() {
  static std::vector<std::pair<std::string, std::string>> knobs;
  return knobs;
}

// Records knob `name` as resolved to `value`; `raw` is the environment
// string (null when unset) and `accepted` whether it was used. A knob read
// again keeps its first slot.
inline void note_knob(const char* name, const char* raw, bool accepted,
                      std::string value) {
  if (!raw) {
    value += " (default)";
  } else if (!accepted) {
    value += " (default; '" + std::string(raw) + "' rejected)";
  }
  for (auto& knob : knobs_read()) {
    if (knob.first == name) {
      knob.second = std::move(value);
      return;
    }
  }
  knobs_read().emplace_back(name, std::move(value));
}

// Prints the knobs read so far as one "config:" line and a blank line.
// Harnesses call it right after their header, having read every knob first.
inline void print_config() {
  std::printf("config:");
  if (knobs_read().empty()) std::printf(" no TAPO_* knobs read");
  for (const auto& [name, value] : knobs_read()) {
    std::printf(" %s=%s", name.c_str(), value.c_str());
  }
  std::printf("\n\n");
}

// Reads a positive integer from the environment; returns fallback when the
// variable is unset, warns and returns fallback when it is not a positive
// integer (trailing junk included). Used to scale the heavy harnesses down
// (e.g. TAPO_RUNS=3 TAPO_NODES=40 ./bench_fig6_improvement).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (!value) {
    note_knob(name, nullptr, false, std::to_string(fallback));
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed <= 0) {
    std::fprintf(stderr, "%s: '%s' is not a positive integer, keeping %zu\n",
                 name, value, fallback);
    note_knob(name, value, false, std::to_string(fallback));
    return fallback;
  }
  note_knob(name, value, true, std::to_string(parsed));
  return static_cast<std::size_t>(parsed);
}

// Reads a 0/1 flag from the environment; returns fallback when unset, warns
// and returns fallback when not "0"/"1". Used to A/B solver paths without a
// rebuild (e.g. TAPO_NO_WARM=1 ./bench_recovery_latency re-plans without the
// pre-fault warm seed).
inline bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  bool out = fallback;
  const bool accepted = value && (std::strcmp(value, "0") == 0 ||
                                  std::strcmp(value, "1") == 0);
  if (accepted) {
    out = value[0] == '1';
  } else if (value) {
    std::fprintf(stderr, "%s: '%s' is not 0 or 1, keeping %d\n", name, value,
                 fallback ? 1 : 0);
  }
  note_knob(name, value, accepted, out ? "1" : "0");
  return out;
}

// Reads an LP engine ("revised" | "dense") from the environment; returns
// fallback when unset, warns and returns fallback on an unknown name. The
// no-rebuild engine A/B knob (e.g. TAPO_LP_ENGINE=dense
// ./bench_recovery_latency).
inline solver::LpEngine env_lp_engine(const char* name,
                                      solver::LpEngine fallback) {
  const char* value = std::getenv(name);
  solver::LpEngine out = fallback;
  bool accepted = false;
  if (value && std::strcmp(value, "revised") == 0) {
    out = solver::LpEngine::Revised;
    accepted = true;
  } else if (value && std::strcmp(value, "dense") == 0) {
    out = solver::LpEngine::Dense;
    accepted = true;
  } else if (value) {
    std::fprintf(stderr, "%s: unknown engine '%s', keeping %s\n", name, value,
                 fallback == solver::LpEngine::Dense ? "dense" : "revised");
  }
  note_knob(name, value, accepted,
            out == solver::LpEngine::Dense ? "dense" : "revised");
  return out;
}

// Telemetry sink for bench binaries, sharing the runtime registry and JSON
// shape ("tapo-telemetry-v1", docs/OBSERVABILITY.md) so bench results and
// tapo_cli --telemetry-out files are directly comparable artifacts.
//
// Returns the process-wide registry when TAPO_TELEMETRY_OUT names an output
// file, else null — so harness code can pass the result straight into
// Stage1Options / SimOptions and record its own bench.* gauges behind a
// null check, exactly like library call sites.
inline util::telemetry::Registry* telemetry_sink() {
  static util::telemetry::Registry registry;
  const char* path = std::getenv("TAPO_TELEMETRY_OUT");
  note_knob("TAPO_TELEMETRY_OUT", path, true, path ? path : "off");
  return path ? &registry : nullptr;
}

// Serializes the sink to $TAPO_TELEMETRY_OUT (no-op when unset). Call once
// at the end of main, after the last run that records into the sink.
inline void write_telemetry() {
  const char* path = std::getenv("TAPO_TELEMETRY_OUT");
  util::telemetry::Registry* registry = telemetry_sink();
  if (!path || !registry) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write telemetry to '%s'\n", path);
    return;
  }
  registry->to_json(out);
  std::fprintf(stderr, "wrote telemetry to %s\n", path);
}

}  // namespace tapo::bench
