// Coarse-to-fine discretized search over a small number of continuous
// dimensions.
//
// With the CRAC outlet temperatures fixed, every optimization problem in the
// paper becomes an LP; the outlet temperatures themselves have ~1 degC
// granularity, so the paper proposes a multi-step discretized search: a
// coarse sweep over the full range, then progressively finer sweeps around
// the best point (Section V.B.2). This module implements that driver plus a
// cheaper "uniform value then coordinate descent" strategy that exploits the
// homogeneity of the CRAC units.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace tapo::solver {

struct GridSearchResult;

struct GridSearchOptions {
  // Number of samples per dimension in the initial coarse sweep.
  std::size_t coarse_samples = 4;
  // Number of refinement rounds after the coarse sweep.
  std::size_t refine_rounds = 2;
  // Samples per dimension in each refinement round (centered on the best).
  std::size_t refine_samples = 3;
  // Stop refining once the step size drops below this resolution.
  double min_resolution = 0.5;
  // Worker threads used to evaluate each sweep round as one batch
  // (1 = serial, 0 = all hardware threads). Every value produces an
  // identical GridSearchResult, speculative_discards aside: batch results
  // are reduced in submission order and exact value ties go to the
  // lexicographically smallest point, so the outcome never depends on
  // thread completion order. With a pool (more than one thread) the
  // coordinate passes of uniform_then_coordinate_maximize also speculate:
  // the ±step pairs of every remaining coordinate around the incumbent go
  // out as one batch, each pair its own two-point chain, and results are
  // accepted in coordinate order; the pairs after the first strict
  // improvement are discarded and resubmitted from the new incumbent. Every
  // accepted value thus comes from the same point and chain position as in
  // the serial pass. With threads != 1 the objective is invoked
  // concurrently and must be safe to call from multiple threads at once.
  std::size_t threads = 1;
  // Optional progress hook, invoked after each sweep round (coarse sweep,
  // refinement rounds, coordinate-descent passes) with the running result.
  // Always called from the driving thread after the round's batch has been
  // reduced, so observations are deterministic for any thread count. Used by
  // Stage 1 / powermin to record the best-objective trajectory.
  std::function<void(std::size_t round, const GridSearchResult& result)>
      on_round;
};

struct GridSearchResult {
  std::vector<double> best_point;
  double best_value = 0.0;
  // Accepted evaluations: the same count for every thread count.
  std::size_t evaluations = 0;
  bool found = false;  // false when every evaluation was infeasible
  // What the chained objective kept for the evaluation that produced
  // best_value (see GridChainObjective); null for plain objectives.
  std::shared_ptr<const void> best_state;
  // Speculative evaluations that the coordinate passes solved and then
  // discarded (see GridSearchOptions::threads); not in `evaluations`. Zero
  // without a pool.
  std::size_t speculative_discards = 0;
  // Accepted evaluations that a GridBound proved could not win, so the
  // objective never ran there (see GridBound); they count in `evaluations`
  // as infeasible points would. The same for every thread count.
  std::size_t bound_prunes = 0;
};

// Objective: returns the value at a point, or nullopt when infeasible.
using GridObjective =
    std::function<std::optional<double>(const std::vector<double>&)>;

// Chained objective for warm-started evaluation: chain_state is carried
// between the consecutive points of one chain (null at each chain head) and
// is owned by the objective — typically a persistent LP session or the
// previous point's optimal basis, so neighboring CRAC setpoints re-solve in
// a few pivots. `kept` (null on entry) may be set to any state of this one
// evaluation; the driver hands the kept state of the incumbent's
// evaluation back as GridSearchResult::best_state (the CRAC sweep keeps
// each solve's optimal basis there to seed the next round).
// The driver guarantees a chain runs serially on one thread; distinct chains
// may run concurrently, each with its own state.
using GridChainObjective = std::function<std::optional<double>(
    const std::vector<double>&, std::shared_ptr<void>& chain_state,
    std::shared_ptr<const void>& kept)>;

// Optional upper bound for a chained objective: bound(kept, point) is a value
// that the objective at `point` cannot exceed, computed from the non-null
// state `kept` that one earlier evaluation set (+inf proves nothing). A chain
// bounds its points from the incumbent's kept state at submission and from
// its own earlier evaluations, and beats them against the incumbent's value
// at submission raised by the chain's own earlier values. It stops at point
// i once every point i..end bounds below that value by a relative margin
// of 1e-7 * max(1, |value|): only a chain suffix is skipped, so every point
// still evaluated has the same chain predecessors, and exact ties are never
// skipped. Each decision reads only the chain's own data and data fixed at
// submission, so the skipped set is the same for every thread count.
using GridBound = std::function<double(const void* kept,
                                       const std::vector<double>& point)>;

// Full Cartesian coarse-to-fine maximization over [lo_d, hi_d] per dimension.
// Cost grows exponentially with dimension; intended for <= 4 dimensions.
GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridObjective& objective,
                                      const GridSearchOptions& options = {});

// Cheaper two-phase strategy: (1) sweep a single shared value across all
// dimensions (coarse + refinement), then (2) cyclic coordinate descent around
// the best uniform point. Matches the paper's observation that homogeneous
// CRAC units sit near a common outlet temperature while still allowing
// per-unit deviation.
GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridObjective& objective, const GridSearchOptions& options = {});

// Chained-objective variants: identical drivers (same sweeps, same
// deterministic lex reduction), but each batch is evaluated in warm-start
// chains of 8 consecutive points (see GridChainObjective). A chain — not a
// point — is the parallel work unit, and the points of one chain evaluate
// serially sharing one chain_state. The partition is a pure function of the
// point sequence, so results stay bit-identical across thread counts. A
// non-empty `bound` skips chain suffixes that cannot win (see GridBound);
// the search then returns the same best point, value and trajectory.
GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridChainObjective& objective,
                                      const GridSearchOptions& options = {},
                                      const GridBound& bound = {});
GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridChainObjective& objective, const GridSearchOptions& options = {},
    const GridBound& bound = {});

}  // namespace tapo::solver
