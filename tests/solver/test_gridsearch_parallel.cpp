// Differential tests for the parallel grid-search path: for seeded random
// objectives — smooth, plateau-heavy (exact value ties), partially and fully
// infeasible — the GridSearchResult at threads = {2, 8} must be *exactly*
// equal to the serial threads = 1 result: same best point, same best value
// bit-for-bit, same evaluation count. This is the determinism contract the
// Stage-1 setpoint sweep relies on.
#include "solver/gridsearch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tapo::solver {
namespace {

// A deterministic pseudo-random objective built once from a seed and then
// shared (read-only) across evaluation threads. Mixes shifted quadratics and
// sinusoids; optional quantization forces exact value ties; an optional
// infeasibility band on coordinate 0 exercises nullopt handling.
class RandomObjective {
 public:
  RandomObjective(std::uint64_t seed, std::size_t dims, bool quantize,
                  bool with_infeasible_band) {
    util::Rng rng(seed);
    center_.resize(dims);
    weight_.resize(dims);
    freq_.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      center_[d] = rng.uniform(0.0, 10.0);
      weight_[d] = rng.uniform(0.2, 2.0);
      freq_[d] = rng.uniform(0.3, 2.0);
    }
    quantum_ = quantize ? rng.uniform(0.5, 2.0) : 0.0;
    if (with_infeasible_band) {
      band_lo_ = rng.uniform(0.0, 8.0);
      band_hi_ = band_lo_ + rng.uniform(0.5, 2.0);
    }
  }

  std::optional<double> operator()(const std::vector<double>& x) const {
    if (band_hi_ > band_lo_ && x[0] >= band_lo_ && x[0] <= band_hi_) {
      return std::nullopt;
    }
    double v = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d) {
      v -= weight_[d] * (x[d] - center_[d]) * (x[d] - center_[d]);
      v += std::sin(freq_[d] * x[d]);
    }
    if (quantum_ > 0.0) v = quantum_ * std::floor(v / quantum_);
    return v;
  }

 private:
  std::vector<double> center_, weight_, freq_;
  double quantum_ = 0.0;
  double band_lo_ = 0.0, band_hi_ = -1.0;
};

void expect_identical(const GridSearchResult& serial,
                      const GridSearchResult& parallel) {
  EXPECT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.best_value, parallel.best_value);  // exact, not NEAR
  EXPECT_EQ(serial.best_point, parallel.best_point);
}

GridSearchOptions options_for(std::uint64_t seed, std::size_t threads) {
  GridSearchOptions opt;
  opt.coarse_samples = 3 + static_cast<std::size_t>(seed % 4);  // 3..6
  opt.refine_rounds = 1 + static_cast<std::size_t>(seed % 3);   // 1..3
  opt.min_resolution = 0.05;
  opt.threads = threads;
  return opt;
}

TEST(GridSearchParallel, FullGridMatchesSerialOnRandomObjectives) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t dims = 1 + static_cast<std::size_t>(seed % 3);
    const RandomObjective fn(seed, dims, /*quantize=*/seed % 4 == 0,
                             /*with_infeasible_band=*/seed % 3 == 0);
    const std::vector<double> lo(dims, 0.0), hi(dims, 10.0);
    const auto serial =
        grid_search_maximize(lo, hi, std::cref(fn), options_for(seed, 1));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " threads=" << threads);
      const auto parallel =
          grid_search_maximize(lo, hi, std::cref(fn), options_for(seed, threads));
      expect_identical(serial, parallel);
    }
  }
}

TEST(GridSearchParallel, UniformCoordinateMatchesSerialOnRandomObjectives) {
  for (std::uint64_t seed = 100; seed < 124; ++seed) {
    const std::size_t dims = 1 + static_cast<std::size_t>(seed % 4);
    const RandomObjective fn(seed, dims, /*quantize=*/seed % 5 == 0,
                             /*with_infeasible_band=*/seed % 2 == 0);
    const std::vector<double> lo(dims, 0.0), hi(dims, 10.0);
    const auto serial = uniform_then_coordinate_maximize(lo, hi, std::cref(fn),
                                                         options_for(seed, 1));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " threads=" << threads);
      const auto parallel = uniform_then_coordinate_maximize(
          lo, hi, std::cref(fn), options_for(seed, threads));
      expect_identical(serial, parallel);
    }
  }
}

TEST(GridSearchParallel, AllInfeasibleMatchesSerial) {
  const auto never = [](const std::vector<double>&) -> std::optional<double> {
    return std::nullopt;
  };
  const std::vector<double> lo(2, 0.0), hi(2, 10.0);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt;
    opt.threads = threads;
    const auto full = grid_search_maximize(lo, hi, never, opt);
    EXPECT_FALSE(full.found);
    const auto uc = uniform_then_coordinate_maximize(lo, hi, never, opt);
    EXPECT_FALSE(uc.found);
    // Evaluation counts must not depend on the thread count either.
    GridSearchOptions serial_opt = opt;
    serial_opt.threads = 1;
    EXPECT_EQ(full.evaluations,
              grid_search_maximize(lo, hi, never, serial_opt).evaluations);
    EXPECT_EQ(uc.evaluations,
              uniform_then_coordinate_maximize(lo, hi, never, serial_opt).evaluations);
  }
}

TEST(GridSearchParallel, ConstantObjectivePicksLexicographicMinimum) {
  // Every point ties exactly, so the deterministic reduction must settle on
  // the lexicographically smallest candidate — the lower corner, which the
  // coarse grid contains — for every thread count.
  const auto constant = [](const std::vector<double>&) -> std::optional<double> {
    return 1.0;
  };
  const std::vector<double> lo{2.0, 3.0, 4.0}, hi{10.0, 10.0, 10.0};
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt;
    opt.threads = threads;
    const auto r = grid_search_maximize(lo, hi, constant, opt);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.best_point, lo);
    EXPECT_EQ(r.best_value, 1.0);
  }
}

TEST(GridSearchParallel, TieHeavyPlateauIsThreadCountInvariant) {
  // Coarse plateaus: floor() collapses whole regions to identical values, so
  // almost every comparison during the reduction is an exact tie.
  const auto plateau = [](const std::vector<double>& x) -> std::optional<double> {
    double s = 0.0;
    for (double v : x) s += v;
    return std::floor(s / 3.0);
  };
  const std::vector<double> lo(2, 0.0), hi(2, 9.0);
  GridSearchOptions serial_opt;
  serial_opt.coarse_samples = 5;
  serial_opt.refine_rounds = 3;
  serial_opt.threads = 1;
  const auto serial = grid_search_maximize(lo, hi, plateau, serial_opt);
  const auto serial_uc = uniform_then_coordinate_maximize(lo, hi, plateau, serial_opt);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    GridSearchOptions opt = serial_opt;
    opt.threads = threads;
    expect_identical(serial, grid_search_maximize(lo, hi, plateau, opt));
    expect_identical(serial_uc,
                     uniform_then_coordinate_maximize(lo, hi, plateau, opt));
  }
}

// Six coordinates, flat in 1, 2 and 4: after the uniform phase the
// coordinate passes improve exactly at the first (0), a middle (3) and the
// last (5) coordinate, so a speculative batch is cut short at each of them.
std::optional<double> three_peaks(const std::vector<double>& x) {
  const double a = x[0] - 2.0, b = x[3] - 6.3, c = x[5] - 8.0;
  return -(a * a + b * b + c * c);
}

// Everything a pass shows: the result and the on_round trajectory.
struct CoordinateRun {
  GridSearchResult result;
  std::vector<std::pair<double, std::vector<double>>> rounds;
};

template <class Objective>
CoordinateRun run_coordinate(const Objective& objective, std::size_t threads,
                             const GridBound& bound = {}) {
  CoordinateRun run;
  GridSearchOptions opt;
  opt.threads = threads;
  opt.refine_rounds = 3;
  opt.min_resolution = 0.05;
  opt.on_round = [&run](std::size_t, const GridSearchResult& running) {
    run.rounds.emplace_back(running.best_value, running.best_point);
  };
  const std::vector<double> lo(6, 0.0), hi(6, 10.0);
  if constexpr (std::is_same_v<Objective, GridChainObjective>) {
    run.result =
        uniform_then_coordinate_maximize(lo, hi, objective, opt, bound);
  } else {
    run.result = uniform_then_coordinate_maximize(lo, hi, objective, opt);
  }
  return run;
}

void expect_same_pass(const CoordinateRun& serial, const CoordinateRun& run,
                      std::size_t threads) {
  expect_identical(serial.result, run.result);
  EXPECT_EQ(serial.rounds, run.rounds);  // exact values and points
  if (threads == 1) {
    EXPECT_EQ(run.result.speculative_discards, 0u);
  } else {
    EXPECT_GT(run.result.speculative_discards, 0u);
  }
}

TEST(GridSearchParallel, SpeculativeCoordinatePassesMatchTheSerialPass) {
  const GridObjective plain = three_peaks;
  const CoordinateRun serial = run_coordinate(plain, 1);
  ASSERT_TRUE(serial.result.found);
  const std::vector<double>& best = serial.result.best_point;
  // The flat coordinates keep the uniform value; 0, 3 and 5 moved off it.
  EXPECT_EQ(best[1], best[2]);
  EXPECT_EQ(best[1], best[4]);
  for (const std::size_t d : {0, 3, 5}) EXPECT_NE(best[d], best[1]) << d;

  // The chained form reads the chain position too, so a pair evaluated in
  // any other chain than the serial pass's would change the values; it
  // keeps each point, which must come back as the incumbent's state.
  const GridChainObjective chained =
      [](const std::vector<double>& x, std::shared_ptr<void>& chain,
         std::shared_ptr<const void>& kept) -> std::optional<double> {
    if (chain == nullptr) chain = std::make_shared<std::size_t>(0);
    std::size_t& position = *static_cast<std::size_t*>(chain.get());
    kept = std::make_shared<const std::vector<double>>(x);
    return *three_peaks(x) - 1e-9 * static_cast<double>(position++);
  };
  const CoordinateRun serial_chained = run_coordinate(chained, 1);

  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_same_pass(serial, run_coordinate(plain, threads), threads);
    const CoordinateRun run = run_coordinate(chained, threads);
    expect_same_pass(serial_chained, run, threads);
    ASSERT_NE(run.result.best_state, nullptr);
    EXPECT_EQ(*static_cast<const std::vector<double>*>(run.result.best_state.get()),
              run.result.best_point);
  }
}

TEST(GridSearchParallel, BoundPrunesAreTheSameForEveryThreadCount) {
  // three_peaks is concave, so its tangent plane at an evaluated point
  // bounds it everywhere: each evaluation keeps (point, value, gradient) as
  // the bound source, as the CRAC sweep keeps an LP's duals. The value also
  // reads the chain position, so a point evaluated after another
  // predecessor than in the unpruned pass would change the values.
  struct Tangent {
    std::vector<double> x;
    double value;
    std::vector<double> gradient;
  };
  std::atomic<std::size_t> calls{0};
  const GridChainObjective chained =
      [&calls](const std::vector<double>& x, std::shared_ptr<void>& chain,
               std::shared_ptr<const void>& kept) -> std::optional<double> {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (chain == nullptr) chain = std::make_shared<std::size_t>(0);
    std::size_t& position = *static_cast<std::size_t*>(chain.get());
    const double value = *three_peaks(x);
    std::vector<double> gradient(x.size(), 0.0);
    gradient[0] = -2.0 * (x[0] - 2.0);
    gradient[3] = -2.0 * (x[3] - 6.3);
    gradient[5] = -2.0 * (x[5] - 8.0);
    kept = std::make_shared<const Tangent>(Tangent{x, value, gradient});
    return value - 1e-9 * static_cast<double>(position++);
  };
  const GridBound tangent = [](const void* kept, const std::vector<double>& y) {
    const auto& t = *static_cast<const Tangent*>(kept);
    double bound = t.value;
    for (std::size_t d = 0; d < y.size(); ++d) {
      bound += t.gradient[d] * (y[d] - t.x[d]);
    }
    return bound;
  };
  const CoordinateRun unpruned = run_coordinate(chained, 1);
  ASSERT_TRUE(unpruned.result.found);
  EXPECT_EQ(unpruned.result.bound_prunes, 0u);

  std::optional<std::size_t> prunes;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    calls = 0;
    const CoordinateRun run = run_coordinate(chained, threads, tangent);
    // The same search, trajectory and evaluation count as without a bound.
    expect_identical(unpruned.result, run.result);
    EXPECT_EQ(unpruned.rounds, run.rounds);
    EXPECT_GT(run.result.bound_prunes, 0u);
    if (!prunes) prunes = run.result.bound_prunes;
    EXPECT_EQ(run.result.bound_prunes, *prunes);
    // Every call is an accepted solve or a discarded speculative one.
    EXPECT_EQ(calls.load(), run.result.evaluations - run.result.bound_prunes +
                                run.result.speculative_discards);
  }
}

}  // namespace
}  // namespace tapo::solver
