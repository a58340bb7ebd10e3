// Unit tests for the revised engine's batched pricing dot (run_col_dots in
// solver/revised_core.h).
//
// The contract under test: for every column in the list, the batched kernel
// writes exactly the bits run_col_dot (the engine's col_dot for structural
// columns) returns, and run_col_dot itself equals a plain ascending CSC
// walk. Pivot selection reads these memos, so any difference — a last-bit
// rounding change or a flipped zero sign — could change a pivot. Bits are
// compared with memcmp, never with ==.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "solver/revised_core.h"
#include "util/rng.h"

namespace tapo::solver::internal {
namespace {

constexpr std::size_t kRows = 96;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Signed values spread over ~40 binades, so a reordered sum almost surely
// rounds differently.
double spread_value(util::Rng& rng) {
  return std::ldexp(rng.uniform(-1.0, 1.0),
                    static_cast<int>(rng.uniform_int(-20, 20)));
}

// A column set in the engine's layout: column j's entries are
// [begin[j], end[j]) of row/val, with an explicit run per column.
struct Columns {
  std::vector<std::size_t> begin, end, row, run_start, run_len;
  std::vector<double> val;

  std::size_t size() const { return run_len.size(); }
  RunColumns view() const {
    return {begin.data(), end.data(),       row.data(),
            val.data(),   run_start.data(), run_len.data()};
  }

  // Appends a column with sparse rows `head` (ascending, below run_row), a
  // run of `len` consecutive rows from run_row, and sparse rows `tail`
  // (ascending, above the run). The run sits at the start of the tail when
  // len is 0, so a head-only column's run is at its end.
  void add(const std::vector<std::size_t>& head, std::size_t run_row,
           std::size_t len, const std::vector<std::size_t>& tail,
           util::Rng& rng) {
    begin.push_back(row.size());
    for (const std::size_t r : head) push(r, rng);
    run_start.push_back(row.size());
    run_len.push_back(len);
    for (std::size_t i = 0; i < len; ++i) push(run_row + i, rng);
    for (const std::size_t r : tail) push(r, rng);
    end.push_back(row.size());
  }

  // Appends a bitwise copy of column j (another member of j's class) in
  // storage of its own.
  void add_copy(std::size_t j) {
    const std::size_t k0 = begin[j], k1 = end[j];
    const std::size_t offset = row.size() - k0;
    begin.push_back(row.size());
    run_start.push_back(run_start[j] + offset);
    run_len.push_back(run_len[j]);
    for (std::size_t k = k0; k < k1; ++k) {
      row.push_back(row[k]);
      val.push_back(val[k]);
    }
    end.push_back(row.size());
  }

  // Appends a column that reads column j's entries, as the engine stores
  // every member of a class.
  void add_shared(std::size_t j) {
    begin.push_back(begin[j]);
    end.push_back(end[j]);
    run_start.push_back(run_start[j]);
    run_len.push_back(run_len[j]);
  }

 private:
  void push(std::size_t r, util::Rng& rng) {
    row.push_back(r);
    val.push_back(spread_value(rng));
  }
};

// Ascending rows in [lo, hi), each kept with probability p and never
// adjacent, so a sparse part never extends the run.
std::vector<std::size_t> sparse_rows(util::Rng& rng, std::size_t lo,
                                     std::size_t hi, double p) {
  std::vector<std::size_t> rows;
  for (std::size_t r = lo; r < hi; r += 2) {
    if (rng.next_double() < p) rows.push_back(r);
  }
  return rows;
}

// One column of a random shape: empty, head only, tail only, or head + run
// + tail with its own run start row and length.
void add_random_column(Columns& cols, util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      cols.add({}, 0, 0, {}, rng);
      return;
    case 1:
      cols.add(sparse_rows(rng, 0, kRows, 0.4), 0, 0, {}, rng);
      return;
    case 2:
      cols.add({}, 0, 0, sparse_rows(rng, 0, kRows, 0.4), rng);
      return;
    default: {
      const std::size_t first = static_cast<std::size_t>(rng.uniform_int(2, 40));
      const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 50));
      cols.add(sparse_rows(rng, 0, first - 1, 0.5), first, len,
               sparse_rows(rng, first + len + 1, kRows, 0.5), rng);
      return;
    }
  }
}

std::vector<double> random_y(util::Rng& rng) {
  std::vector<double> y(kRows);
  for (double& v : y) {
    const double u = rng.next_double();
    // Exact zeros of both signs make ±0 products and sums.
    v = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : spread_value(rng);
  }
  return y;
}

// Ascending walk over the whole CSC slice: the order every pricing dot keeps.
double csc_walk_dot(const Columns& cols, const std::vector<double>& y,
                    std::size_t j) {
  double s = 0.0;
  for (std::size_t k = cols.begin[j]; k < cols.end[j]; ++k) {
    s += y[cols.row[k]] * cols.val[k];
  }
  return s;
}

// Runs the kernel over `list` into a NaN-filled memo and checks every listed
// memo bit for bit against run_col_dot and the plain walk, and every other
// slot untouched.
void expect_kernel_matches(const Columns& cols, const std::vector<double>& y,
                           const std::vector<std::size_t>& list) {
  const double sentinel = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> dots(cols.size(), sentinel);
  run_col_dots(cols.view(), y.data(), list.data(), list.size(), dots.data());
  std::vector<char> listed(cols.size(), 0);
  for (const std::size_t j : list) {
    listed[j] = 1;
    const double scalar = run_col_dot(cols.view(), y.data(), j);
    EXPECT_TRUE(same_bits(dots[j], scalar))
        << "column " << j << " of a list of " << list.size() << ": kernel "
        << dots[j] << " vs run_col_dot " << scalar;
    EXPECT_TRUE(same_bits(scalar, csc_walk_dot(cols, y, j))) << "column " << j;
  }
  for (std::size_t j = 0; j < cols.size(); ++j) {
    if (!listed[j]) {
      EXPECT_TRUE(same_bits(dots[j], sentinel)) << "column " << j;
    }
  }
}

TEST(PricingKernel, EveryShapeAndListLengthIsBitExact) {
  util::Rng rng(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    Columns cols;
    for (int j = 0; j < 24; ++j) add_random_column(cols, rng);
    const std::vector<double> y = random_y(rng);
    // List lengths 0..15 cover every residue mod 4, in shuffled order so
    // each lane meets every shape.
    for (std::size_t n = 0; n < 16; ++n) {
      std::vector<std::size_t> perm = rng.permutation(cols.size());
      perm.resize(n);
      expect_kernel_matches(cols, y, perm);
    }
  }
}

TEST(PricingKernel, LanesWithDifferentRunStartsAndLengths) {
  // One group of four whose runs start on different rows and whose lengths
  // all differ, so the common lockstep prefix is shorter than every run
  // but one; repeated with each lane holding the shortest run.
  util::Rng rng(7);
  for (std::size_t shortest = 0; shortest < 4; ++shortest) {
    Columns cols;
    for (std::size_t l = 0; l < 4; ++l) {
      const std::size_t first = 3 + 5 * l;
      const std::size_t len = l == shortest ? 9 : 20 + 7 * l;
      cols.add(sparse_rows(rng, 0, first - 1, 0.7), first, len,
               sparse_rows(rng, first + len + 1, kRows, 0.7), rng);
    }
    expect_kernel_matches(cols, random_y(rng), {0, 1, 2, 3});
    expect_kernel_matches(cols, random_y(rng), {3, 1, 0, 2});
  }
}

TEST(PricingKernel, EmptyHeadOnlyAndTailOnlyColumns) {
  util::Rng rng(11);
  Columns cols;
  cols.add({}, 0, 0, {}, rng);                          // empty
  cols.add({1, 4, 9, 30}, 0, 0, {}, rng);               // head only
  cols.add({}, 0, 0, {2, 5, 40, 77}, rng);              // tail only
  cols.add({0, 6}, 10, 30, {50, 90}, rng);              // head + run + tail
  cols.add({}, 0, 0, {}, rng);                          // empty again
  const std::vector<double> y = random_y(rng);
  expect_kernel_matches(cols, y, {0, 1, 2, 3});
  expect_kernel_matches(cols, y, {3, 2, 1, 0, 4});
  expect_kernel_matches(cols, y, {0, 4, 1, 2});
}

TEST(PricingKernel, ClassRepresentativeMemoServesEveryMember) {
  // The engine queues one representative per class of bit-identical
  // columns; every member then reads the representative's memo. That memo
  // must carry the bits each member's own scalar dot would.
  util::Rng rng(13);
  Columns cols;
  std::vector<std::size_t> class_of;
  std::vector<std::size_t> reps;
  for (int c = 0; c < 9; ++c) {
    reps.push_back(cols.size());
    add_random_column(cols, rng);
    class_of.push_back(reps.back());
    const std::size_t members = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t k = 0; k < members; ++k) {
      cols.add_copy(reps.back());
      class_of.push_back(reps.back());
    }
    if (rng.next_double() < 0.5) {
      cols.add_shared(reps.back());
      class_of.push_back(reps.back());
    }
  }
  const std::vector<double> y = random_y(rng);
  std::vector<double> dots(cols.size(), 0.0);
  run_col_dots(cols.view(), y.data(), reps.data(), reps.size(), dots.data());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const double own = run_col_dot(cols.view(), y.data(), j);
    EXPECT_TRUE(same_bits(dots[class_of[j]], own))
        << "member " << j << " of class " << class_of[j];
  }
}

}  // namespace
}  // namespace tapo::solver::internal
