// Tests for descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/stats.hpp"

namespace scwc::linalg {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, PopulationVariance) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);  // classic example
}

TEST(Stats, SampleStddev) {
  const std::vector<double> v{2, 4};
  // Sample variance with Bessel: ((2-3)² + (4-3)²)/1 = 2.
  EXPECT_DOUBLE_EQ(sample_stddev(v), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(sample_stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, QuantileSorted) {
  EXPECT_DOUBLE_EQ(quantile_sorted(std::vector<double>{}, 0.5), 0.0);
  // A single element is every quantile.
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 1.0), 7.0);
  // Positions q*(n-1) = 0, 2 and 4 land exactly on a rank.
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 50.0);
  // Between ranks: linear interpolation (position 0.4 → 14, 3.96 → 49.6).
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.1), 14.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.99), 49.6);
}

TEST(Stats, ColumnMeansAndStddevs) {
  const Matrix m{{1, 10}, {3, 30}};
  const Vector means = column_means(m);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
  const Vector stds = column_stddevs(m);
  EXPECT_DOUBLE_EQ(stds[0], 1.0);
  EXPECT_DOUBLE_EQ(stds[1], 10.0);
}

TEST(Stats, CovarianceMatrixKnownValues) {
  // Two perfectly correlated columns.
  const Matrix m{{1, 2}, {2, 4}, {3, 6}};
  const Matrix cov = covariance_matrix(m);
  EXPECT_DOUBLE_EQ(cov(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(cov(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(cov(1, 1), 4.0);
}

TEST(Stats, CovarianceMatrixIsSymmetricPsd) {
  Rng rng(3);
  Matrix m(50, 5);
  for (double& x : m.flat()) x = rng.normal();
  const Matrix cov = covariance_matrix(m);
  EXPECT_LT(cov.max_abs_diff(cov.transposed()), 1e-12);
  // Diagonal (variances) non-negative.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_GE(cov(i, i), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{10, 20, 30, 40};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{40, 30, 20, 10};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateIsZero) {
  const std::vector<double> a{1, 1, 1};
  const std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
  EXPECT_DOUBLE_EQ(pearson(std::vector<double>{1.0}, std::vector<double>{2.0}),
                   0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(5);
  std::vector<double> a(20000);
  std::vector<double> b(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(a, b), 0.0, 0.03);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3, -1, 7, 0};
  const MinMax mm = min_max(v);
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 7.0);
  const MinMax empty = min_max(std::vector<double>{});
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

}  // namespace
}  // namespace scwc::linalg
