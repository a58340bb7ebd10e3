#include "solver/lu.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tapo::solver {
namespace {

TEST(Lu, Solves2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  const auto x = lu.solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  const auto x = lu.solve(std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  LuFactorization lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  util::Rng rng(31);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 5.0;  // diagonally dominant -> well conditioned
  }
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  const Matrix prod = a.multiply(lu.solve(Matrix::identity(5)));
  Matrix err = prod;
  err.add_scaled(Matrix::identity(5), -1.0);
  EXPECT_LT(err.max_abs(), 1e-10);
}

class LuRandomSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSolve, ResidualIsTiny) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  Matrix a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t r = 0; r < n; ++r) {
    x_true[r] = rng.uniform(-2.0, 2.0);
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  const auto b = a.multiply(x_true);
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  const auto x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60, 150));

TEST(Lu, MatrixRhsSolve) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 0;
  a(1, 0) = 0; a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 2; b(0, 1) = 4;
  b(1, 0) = 8; b(1, 1) = 12;
  LuFactorization lu(a);
  const Matrix x = lu.solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

}  // namespace
}  // namespace tapo::solver
