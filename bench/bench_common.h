// Shared helpers for the benchmark/reproduction binaries.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "solver/lp.h"
#include "util/telemetry.h"

namespace tapo::bench {

// Reads a positive integer from the environment; returns fallback when the
// variable is unset, warns and returns fallback when it is not a positive
// integer (trailing junk included). Used to scale the heavy harnesses down
// (e.g. TAPO_RUNS=3 TAPO_NODES=40 ./bench_fig6_improvement).
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed <= 0) {
    std::fprintf(stderr, "%s: '%s' is not a positive integer, keeping %zu\n",
                 name, value, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

// Reads a 0/1 flag from the environment; returns fallback when unset, warns
// and returns fallback when not "0"/"1". Used to A/B solver paths without a
// rebuild (e.g. TAPO_NO_WARM=1 ./bench_recovery_latency re-plans without the
// pre-fault warm seed).
inline bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  if (std::strcmp(value, "0") == 0) return false;
  if (std::strcmp(value, "1") == 0) return true;
  std::fprintf(stderr, "%s: '%s' is not 0 or 1, keeping %d\n", name, value,
               fallback ? 1 : 0);
  return fallback;
}

// Reads a revised-engine pricing rule ("dantzig" | "partial_devex")
// from the environment; returns fallback when unset, warns and returns
// fallback on an unknown name. The no-rebuild pricing A/B knob
// (e.g. TAPO_LP_PRICING=dantzig ./bench_solver_perf).
inline solver::LpPricing env_lp_pricing(const char* name,
                                        solver::LpPricing fallback) {
  solver::LpPricing out = fallback;
  if (const char* value = std::getenv(name)) {
    if (!solver::parse_lp_pricing(value, &out)) {
      std::fprintf(stderr, "%s: unknown pricing '%s', keeping %s\n", name,
                   value, solver::to_string(fallback));
    }
  }
  return out;
}

// Reads an LP engine ("revised" | "dense") from the environment; returns
// fallback when unset, warns and returns fallback on an unknown name. The
// no-rebuild engine A/B knob (e.g. TAPO_LP_ENGINE=dense
// ./bench_recovery_latency).
inline solver::LpEngine env_lp_engine(const char* name,
                                      solver::LpEngine fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  if (std::strcmp(value, "revised") == 0) return solver::LpEngine::Revised;
  if (std::strcmp(value, "dense") == 0) return solver::LpEngine::Dense;
  std::fprintf(stderr, "%s: unknown engine '%s', keeping %s\n", name, value,
               fallback == solver::LpEngine::Dense ? "dense" : "revised");
  return fallback;
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
  return std::getenv("TAPO_TELEMETRY_OUT") ? &registry : nullptr;
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
