#include "solver/gridsearch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "util/check.h"
#include "util/threadpool.h"

namespace tapo::solver {

namespace {

// Points per warm-start chain in the chained-objective overloads.
constexpr std::size_t kWarmChain = 8;
// A point is pruned only when its bound is below the value to beat by this
// much, relative to max(1, |value|): bounds and LP values carry rounding
// and solver tolerances, and exact ties must reach the lex tie-break.
constexpr double kBoundMargin = 1e-7;
constexpr double kInf = std::numeric_limits<double>::infinity();

bool lex_less(const std::vector<double>& a, const std::vector<double>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Evaluates batches of candidate points — serially or on a thread pool — and
// folds them into the incumbent in submission order, so the result is
// bit-identical for every thread count. Points are evaluated in warm-start
// chains of `chain` consecutive points; a chain is the parallel work unit
// and its points run serially sharing one chain_state (null at the head).
// The chain partition depends only on the submitted point sequence, never
// on the thread count. With a bound, a chain stops early once its remaining
// points provably cannot win (see GridBound); those points are pruned.
class BatchEvaluator {
 public:
  BatchEvaluator(const GridChainObjective& objective, const GridBound& bound,
                 std::size_t threads, std::size_t chain)
      : objective_(objective),
        bound_(bound),
        chain_(std::max<std::size_t>(1, chain)) {
    const std::size_t n =
        threads == 0 ? util::ThreadPool::hardware_threads() : threads;
    if (n > 1) pool_ = std::make_unique<util::ThreadPool>(n);
  }

  bool pooled() const { return pool_ != nullptr; }
  std::size_t chain() const { return chain_; }

  // Evaluates every point in chains of `chain`, pruning against
  // `incumbent` as it stands now; the returned values are aligned with
  // `points` (nullopt where infeasible or pruned) and remain valid until
  // the next evaluate() call.
  const std::vector<std::optional<double>>& evaluate(
      const std::vector<std::vector<double>>& points, std::size_t chain,
      const GridSearchResult& incumbent) {
    values_.assign(points.size(), std::nullopt);
    kept_.assign(points.size(), nullptr);
    pruned_.assign(points.size(), 0);
    const std::size_t n_chains = (points.size() + chain - 1) / chain;
    const auto eval_chain = [&](std::size_t c) {
      std::shared_ptr<void> state;  // reset at every chain head
      const std::size_t begin = c * chain;
      const std::size_t end = std::min(points.size(), begin + chain);
      ChainBounds bounds(*this, points, begin, end, incumbent);
      for (std::size_t i = begin; i < end; ++i) {
        if (bounds.suffix_cannot_win(i)) {
          std::fill(pruned_.begin() + i, pruned_.begin() + end, 1);
          break;
        }
        values_[i] = objective_(points[i], state, kept_[i]);
        bounds.solved(i);
      }
    };
    if (pool_ && n_chains > 1) {
      pool_->parallel_for(n_chains, eval_chain);
    } else {
      for (std::size_t c = 0; c < n_chains; ++c) eval_chain(c);
    }
    return values_;
  }

  // Whether point i of the last batch was pruned rather than evaluated.
  bool pruned(std::size_t i) const { return pruned_[i] != 0; }

  // Evaluates every point and updates the incumbent: a higher value wins,
  // and an exact value tie goes to the lexicographically smallest point.
  void sweep(const std::vector<std::vector<double>>& points,
             GridSearchResult& result) {
    const auto& values = evaluate(points, chain_, result);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++result.evaluations;
      if (pruned(i)) ++result.bound_prunes;
      if (!values[i]) continue;
      const double value = *values[i];
      if (!result.found || value > result.best_value ||
          (value == result.best_value &&
           lex_less(points[i], result.best_point))) {
        accept(i, points[i], result);
      }
    }
  }

  // Makes evaluation i of the last batch, at `point`, the incumbent.
  void accept(std::size_t i, const std::vector<double>& point,
              GridSearchResult& result) {
    result.found = true;
    result.best_value = *values_[i];
    result.best_point = point;
    result.best_state = std::move(kept_[i]);
  }

 private:
  // One chain's pruning state: the value its points must beat (the
  // incumbent's at submission, raised by the chain's own values) and, per
  // point, the lowest bound from the sources seen so far (the incumbent's
  // kept state, then each earlier point's). Bounds are computed lazily,
  // last point first, since only a whole suffix can be pruned.
  class ChainBounds {
   public:
    ChainBounds(const BatchEvaluator& owner,
                const std::vector<std::vector<double>>& points,
                std::size_t begin, std::size_t end,
                const GridSearchResult& incumbent)
        : owner_(owner), points_(points), begin_(begin), end_(end) {
      if (!owner_.bound_) return;
      if (incumbent.found) beat_ = incumbent.best_value;
      if (incumbent.best_state) sources_.push_back(incumbent.best_state.get());
      upper_.assign(end - begin, kInf);
      applied_.assign(end - begin, 0);
    }

    // Records point i's evaluation: its value raises the bar, its kept
    // state becomes a source.
    void solved(std::size_t i) {
      if (!owner_.bound_) return;
      if (owner_.values_[i]) beat_ = std::max(beat_, *owner_.values_[i]);
      if (owner_.kept_[i]) sources_.push_back(owner_.kept_[i].get());
    }

    // True when every point i..end bounds below the value to beat.
    bool suffix_cannot_win(std::size_t i) {
      if (!owner_.bound_ || sources_.empty() || beat_ == -kInf) return false;
      const double bar = beat_ - kBoundMargin * std::max(1.0, std::abs(beat_));
      for (std::size_t j = end_; j-- > i;) {
        const std::size_t k = j - begin_;
        for (; applied_[k] < sources_.size(); ++applied_[k]) {
          upper_[k] = std::min(
              upper_[k], owner_.bound_(sources_[applied_[k]], points_[j]));
        }
        if (!(upper_[k] < bar)) return false;
      }
      return true;
    }

   private:
    const BatchEvaluator& owner_;
    const std::vector<std::vector<double>>& points_;
    std::size_t begin_, end_;
    double beat_ = -kInf;
    std::vector<const void*> sources_;
    std::vector<double> upper_;
    std::vector<std::size_t> applied_;
  };

  const GridChainObjective& objective_;
  const GridBound& bound_;
  std::size_t chain_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::optional<double>> values_;
  std::vector<std::shared_ptr<const void>> kept_;
  std::vector<char> pruned_;
};

// All points of the Cartesian grid defined by per-dimension sample lists,
// in odometer order (dimension 0 fastest).
std::vector<std::vector<double>> cartesian_points(
    const std::vector<std::vector<double>>& samples) {
  const std::size_t dims = samples.size();
  std::size_t total = 1;
  for (const auto& s : samples) total *= s.size();
  std::vector<std::vector<double>> points;
  points.reserve(total);
  std::vector<std::size_t> idx(dims, 0);
  std::vector<double> point(dims);
  while (true) {
    for (std::size_t d = 0; d < dims; ++d) point[d] = samples[d][idx[d]];
    points.push_back(point);
    // Odometer increment.
    std::size_t d = 0;
    while (d < dims) {
      if (++idx[d] < samples[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == dims) break;
  }
  return points;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  TAPO_CHECK(n >= 1);
  if (n == 1 || hi <= lo) return {0.5 * (lo + hi)};
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return v;
}

GridSearchResult grid_search_impl(const std::vector<double>& lo,
                                  const std::vector<double>& hi,
                                  const GridChainObjective& objective,
                                  const GridBound& bound,
                                  const GridSearchOptions& options,
                                  std::size_t chain) {
  TAPO_CHECK(lo.size() == hi.size() && !lo.empty());
  const std::size_t dims = lo.size();

  GridSearchResult result;
  std::size_t rounds = 0;
  const auto round_done = [&] {
    if (options.on_round) options.on_round(rounds, result);
    ++rounds;
  };
  BatchEvaluator evaluator(objective, bound, options.threads, chain);
  std::vector<std::vector<double>> samples(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    samples[d] = linspace(lo[d], hi[d], options.coarse_samples);
  }
  evaluator.sweep(cartesian_points(samples), result);
  round_done();
  if (!result.found) return result;

  std::vector<double> step(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    step[d] = (hi[d] - lo[d]) /
              static_cast<double>(std::max<std::size_t>(options.coarse_samples - 1, 1));
  }
  for (std::size_t round = 0; round < options.refine_rounds; ++round) {
    bool any = false;
    for (std::size_t d = 0; d < dims; ++d) {
      step[d] *= 2.0 / static_cast<double>(std::max<std::size_t>(options.refine_samples, 2));
      if (step[d] >= options.min_resolution) any = true;
      const double center = result.best_point[d];
      samples[d] = linspace(std::max(lo[d], center - step[d] * 1.5),
                            std::min(hi[d], center + step[d] * 1.5),
                            options.refine_samples);
    }
    if (!any) break;
    evaluator.sweep(cartesian_points(samples), result);
    round_done();
  }
  return result;
}

GridSearchResult uniform_then_coordinate_impl(const std::vector<double>& lo,
                                              const std::vector<double>& hi,
                                              const GridChainObjective& objective,
                                              const GridBound& bound,
                                              const GridSearchOptions& options,
                                              std::size_t chain) {
  TAPO_CHECK(lo.size() == hi.size() && !lo.empty());
  const std::size_t dims = lo.size();

  GridSearchResult result;
  std::size_t rounds = 0;
  const auto round_done = [&] {
    if (options.on_round) options.on_round(rounds, result);
    ++rounds;
  };
  BatchEvaluator evaluator(objective, bound, options.threads, chain);

  // Phase 1: all dimensions share one value; coarse sweep + one refinement.
  const double ulo = *std::max_element(lo.begin(), lo.end());
  const double uhi = *std::min_element(hi.begin(), hi.end());
  const auto uniform_points = [dims](const std::vector<double>& us) {
    std::vector<std::vector<double>> points;
    points.reserve(us.size());
    for (double u : us) points.emplace_back(dims, u);
    return points;
  };
  const std::size_t coarse = std::max<std::size_t>(options.coarse_samples * 2, 6);
  evaluator.sweep(uniform_points(linspace(ulo, uhi, coarse)), result);
  round_done();
  if (!result.found) {
    // Fall back to the full grid: a uniform value may be infeasible while a
    // non-uniform point is feasible. Shift the fallback's round numbering so
    // a progress hook sees one monotone sequence.
    GridSearchOptions fallback = options;
    if (options.on_round) {
      fallback.on_round = [&options, rounds](std::size_t round,
                                             const GridSearchResult& r) {
        options.on_round(rounds + round, r);
      };
    }
    return grid_search_impl(lo, hi, objective, bound, fallback, chain);
  }
  double step = (uhi - ulo) / static_cast<double>(std::max<std::size_t>(coarse - 1, 1));
  for (std::size_t round = 0; round < options.refine_rounds; ++round) {
    step *= 0.5;
    if (step < options.min_resolution * 0.5) break;
    const double center = result.best_point[0];
    std::vector<double> us;
    for (double u : {center - step, center + step}) {
      if (u >= ulo && u <= uhi) us.push_back(u);
    }
    evaluator.sweep(uniform_points(us), result);
    round_done();
  }

  // Phase 2: cyclic coordinate descent around the best uniform point. Both
  // deltas of a coordinate are evaluated from the same incumbent, as one
  // two-point chain, and reduced deterministically; the incumbent moves only
  // on a strict improvement. With a pool the pass speculates: the pairs of
  // coordinates d..dims-1 go out as one batch around the incumbent and are
  // accepted in coordinate order up to the first improvement, after which
  // the later pairs are stale and resubmitted from the new incumbent (their
  // solved points count as speculative discards). An accepted pair was thus
  // evaluated at the serial pass's points, in the serial pass's chain and
  // against the serial pass's incumbent, so the pass — prunes included — is
  // the same for every thread count.
  const std::size_t pair_chain = std::min<std::size_t>(evaluator.chain(), 2);
  double cstep = std::max(step, options.min_resolution);
  for (std::size_t round = 0; round < options.refine_rounds + 1; ++round) {
    bool improved = false;
    for (std::size_t d = 0; d < dims;) {
      const std::size_t end = evaluator.pooled() ? dims : d + 1;
      std::vector<std::vector<double>> pairs;
      pairs.reserve(2 * (end - d));
      for (std::size_t e = d; e < end; ++e) {
        for (double delta : {-cstep, cstep}) {
          std::vector<double> point = result.best_point;
          point[e] = std::clamp(point[e] + delta, lo[e], hi[e]);
          pairs.push_back(std::move(point));
        }
      }
      const auto& values = evaluator.evaluate(pairs, pair_chain, result);
      std::size_t next = end;
      for (std::size_t e = d; e < end && next == end; ++e) {
        const std::size_t i0 = 2 * (e - d);
        result.evaluations += 2;
        result.bound_prunes += evaluator.pruned(i0) + evaluator.pruned(i0 + 1);
        std::size_t pick = i0 + 2;
        for (std::size_t i = i0; i < i0 + 2; ++i) {
          if (!values[i]) continue;
          if (pick == i0 + 2 || *values[i] > *values[pick] ||
              (*values[i] == *values[pick] && lex_less(pairs[i], pairs[pick]))) {
            pick = i;
          }
        }
        if (pick < i0 + 2 && *values[pick] > result.best_value + 1e-12) {
          evaluator.accept(pick, pairs[pick], result);
          improved = true;
          next = e + 1;
        }
      }
      for (std::size_t i = 2 * (next - d); i < pairs.size(); ++i) {
        result.speculative_discards += !evaluator.pruned(i);
      }
      d = next;
    }
    round_done();
    if (!improved) {
      cstep *= 0.5;
      if (cstep < options.min_resolution * 0.5) break;
    }
  }
  return result;
}

// Adapts a plain objective to the chained signature (chain length 1, state
// ignored), preserving the original per-point parallel granularity.
GridChainObjective ignore_chain(const GridObjective& objective) {
  return [&objective](const std::vector<double>& point,
                      std::shared_ptr<void>& /*chain_state*/,
                      std::shared_ptr<const void>& /*kept*/) {
    return objective(point);
  };
}

}  // namespace

GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridObjective& objective,
                                      const GridSearchOptions& options) {
  return grid_search_impl(lo, hi, ignore_chain(objective), {}, options, 1);
}

GridSearchResult grid_search_maximize(const std::vector<double>& lo,
                                      const std::vector<double>& hi,
                                      const GridChainObjective& objective,
                                      const GridSearchOptions& options,
                                      const GridBound& bound) {
  return grid_search_impl(lo, hi, objective, bound, options, kWarmChain);
}

GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridObjective& objective, const GridSearchOptions& options) {
  return uniform_then_coordinate_impl(lo, hi, ignore_chain(objective), {},
                                      options, 1);
}

GridSearchResult uniform_then_coordinate_maximize(
    const std::vector<double>& lo, const std::vector<double>& hi,
    const GridChainObjective& objective, const GridSearchOptions& options,
    const GridBound& bound) {
  return uniform_then_coordinate_impl(lo, hi, objective, bound, options,
                                      kWarmChain);
}

}  // namespace tapo::solver
