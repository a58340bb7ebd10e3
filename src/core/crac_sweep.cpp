#include "core/crac_sweep.h"

#include <algorithm>
#include <cmath>

namespace tapo::core {

util::Status CracSweepOptions::check(const char* prefix,
                                     std::size_t threads) const {
  const auto invalid = [prefix](const std::string& what) {
    return util::Status::InvalidArgument(std::string(prefix) + ": " + what);
  };
  if (!std::isfinite(tcrac_min_c) || !std::isfinite(tcrac_max_c) ||
      tcrac_min_c > tcrac_max_c) {
    return invalid("CRAC setpoint range must be finite with min <= max (got [" +
                   std::to_string(tcrac_min_c) + ", " +
                   std::to_string(tcrac_max_c) + "])");
  }
  if (grid.coarse_samples < 1) {
    return invalid("grid coarse_samples must be >= 1");
  }
  if (!(grid.min_resolution > 0.0)) {
    return invalid("grid min_resolution must be > 0");
  }
  if (threads > kMaxThreads) {
    return invalid("threads must be at most " + std::to_string(kMaxThreads) +
                   " (got " + std::to_string(threads) + ")");
  }
  return util::Status::Ok();
}

namespace detail {

CracSweepCore::CracSweepCore(const dc::DataCenter& dc,
                             const CracSweepOptions& options,
                             const char* prefix, std::size_t threads,
                             util::telemetry::Registry* telemetry)
    : options(options),
      prefix(prefix),
      threads(threads),
      telemetry(telemetry),
      lo(dc.num_cracs()),
      hi(dc.num_cracs(), options.tcrac_max_c),
      sessions(options.lp.engine == solver::LpEngine::Revised),
      lp(options.lp),
      lp_timer(std::string(prefix) + ".lp") {
  for (std::size_t c = 0; c < lo.size(); ++c) {
    lo[c] = std::min(dc.crac_min_outlet(c, options.tcrac_min_c),
                     options.tcrac_max_c);
  }
  lp.telemetry = telemetry;
  dense_lp = lp;
  dense_lp.engine = solver::LpEngine::Dense;
}

void CracSweepCore::count_failure(solver::LpStatus status) {
  infeasible.fetch_add(1, std::memory_order_relaxed);
  if (status == solver::LpStatus::IterLimit) {
    iter_limited.fetch_add(1, std::memory_order_relaxed);
  }
}

solver::GridSearchResult CracSweepCore::search(
    const solver::GridChainObjective& objective,
    const solver::GridBound& bound,
    const std::function<void(const solver::GridSearchResult&)>&
        between_rounds) {
  util::telemetry::Registry* const reg = telemetry;
  solver::GridSearchOptions grid = options.grid;
  grid.threads = threads;
  grid.on_round = [&](std::size_t round,
                      const solver::GridSearchResult& running) {
    if (reg) {
      reg->count(prefix + ".sweep_rounds");
      if (running.found) {
        reg->sample(prefix + ".best_objective_by_round",
                    static_cast<double>(round), running.best_value);
      }
    }
    if (options.grid.on_round) options.grid.on_round(round, running);
    between_rounds(running);
  };
  const solver::GridSearchResult search =
      options.full_grid
          ? solver::grid_search_maximize(lo, hi, objective, grid, bound)
          : solver::uniform_then_coordinate_maximize(lo, hi, objective, grid,
                                                     bound);
  // From here on lp_solves counts the accepted solves only.
  lp_solves.fetch_sub(search.speculative_discards, std::memory_order_relaxed);
  if (reg) {
    reg->count(prefix + ".lp_solves",
               lp_solves.load(std::memory_order_relaxed));
    reg->count(prefix + ".bound_prunes", search.bound_prunes);
    reg->count(prefix + ".speculative_discards", search.speculative_discards);
    reg->count(prefix + ".infeasible_candidates",
               infeasible.load(std::memory_order_relaxed));
    reg->count(prefix + ".grid_evaluations", search.evaluations);
  }
  return search;
}

util::Status CracSweepCore::no_feasible_point() const {
  return iter_limited.load(std::memory_order_relaxed) > 0
             ? util::Status::ResourceExhausted(
                   prefix +
                   ": no feasible setpoint found and at least one candidate "
                   "LP hit the iteration cap")
             : util::Status::Infeasible(
                   prefix +
                   ": no CRAC setpoint vector admits a feasible LP "
                   "(redlines, power budget or reward floor unsatisfiable)");
}

util::Status CracSweepCore::failed_resolve(solver::LpStatus status) const {
  return status == solver::LpStatus::IterLimit
             ? util::Status::ResourceExhausted(
                   prefix +
                   ": LP iteration cap hit re-solving the selected setpoints")
             : util::Status::Internal(
                   prefix + ": best grid point infeasible on re-solve");
}

}  // namespace detail
}  // namespace tapo::core
