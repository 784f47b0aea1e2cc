// Tests for StandardScaler and PCA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/stats.hpp"
#include "preprocess/pca.hpp"
#include "preprocess/scaler.hpp"

namespace scwc::preprocess {
namespace {

using linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double scale = 1.0, double shift = 0.0) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.normal() * scale + shift;
  return m;
}

/// One view per row of `x`, the form StandardScaler::fit takes.
std::vector<std::span<const double>> row_views(const Matrix& x) {
  std::vector<std::span<const double>> out;
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(x.row(r));
  return out;
}

/// Every row of `x` through scaler.transform_row.
Matrix scaled(const StandardScaler& scaler, const Matrix& x) {
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    scaler.transform_row(x.row(r), out.row(r));
  }
  return out;
}

TEST(Scaler, ProducesZeroMeanUnitVariance) {
  Rng rng(1);
  const Matrix x = random_matrix(200, 5, rng, 3.0, 10.0);
  StandardScaler scaler;
  scaler.fit(row_views(x));
  const Matrix z = scaled(scaler, x);
  const auto means = linalg::column_means(z);
  const auto stds = linalg::column_stddevs(z);
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_NEAR(means[c], 0.0, 1e-10);
    EXPECT_NEAR(stds[c], 1.0, 1e-10);
  }
}

TEST(Scaler, ConstantColumnsSurvive) {
  Matrix x(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = 7.0;  // constant
    x(r, 1) = static_cast<double>(r);
  }
  StandardScaler scaler;
  scaler.fit(row_views(x));
  EXPECT_DOUBLE_EQ(scaler.scales()[0], 1.0);
  const Matrix z = scaled(scaler, x);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
    EXPECT_TRUE(std::isfinite(z(r, 1)));
  }
}

TEST(Scaler, TransformUsesTrainStatistics) {
  Rng rng(2);
  const Matrix train = random_matrix(100, 3, rng, 2.0, 5.0);
  const Matrix test = random_matrix(20, 3, rng, 2.0, 50.0);  // shifted!
  StandardScaler scaler;
  scaler.fit(row_views(train));
  const Matrix z = scaled(scaler, test);
  // Shifted test data must NOT be re-centred to zero.
  EXPECT_GT(std::abs(linalg::column_means(z)[0]), 5.0);
}

TEST(Scaler, InverseTransformRoundTrips) {
  // The fitted means/scales are exactly what transform_row applies (the
  // bundle persists only those): z · scale + mean gives the input back,
  // also when transform_row scales a row in place.
  Rng rng(3);
  const Matrix x = random_matrix(50, 4, rng, 3.0, -2.0);
  StandardScaler scaler;
  scaler.fit(row_views(x));
  Matrix z = x;
  for (std::size_t r = 0; r < z.rows(); ++r) {
    scaler.transform_row(z.row(r), z.row(r));
  }
  const Matrix out_of_place = scaled(scaler, x);
  EXPECT_TRUE(std::equal(z.flat().begin(), z.flat().end(),
                         out_of_place.flat().begin()));
  Matrix back(z.rows(), z.cols());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    for (std::size_t c = 0; c < z.cols(); ++c) {
      back(r, c) = z(r, c) * scaler.scales()[c] + scaler.means()[c];
    }
  }
  EXPECT_LT(back.max_abs_diff(x), 1e-10);
}

TEST(Scaler, MatchesColumnStatisticsBitForBit) {
  // fit sums over the rows in order, then divides by n: the same bits as
  // the column statistics of the stacked rows (population std).
  Rng rng(5);
  const Matrix x = random_matrix(137, 9, rng, 4.0, 1e3);
  StandardScaler scaler;
  scaler.fit(row_views(x));
  const linalg::Vector means = linalg::column_means(x);
  const linalg::Vector stds = linalg::column_stddevs(x);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    EXPECT_EQ(scaler.means()[c], means[c]) << "column " << c;
    EXPECT_EQ(scaler.scales()[c], stds[c]) << "column " << c;
  }
}

TEST(Scaler, ErrorsOnMisuse) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.fit({}), Error);  // no rows
  const Matrix wide(2, 3, 1.0);
  const Matrix narrow(2, 2, 1.0);
  std::vector<std::span<const double>> ragged = row_views(wide);
  ragged.push_back(narrow.row(0));
  EXPECT_THROW(scaler.fit(ragged), Error);  // rows of different widths
  const Matrix empty_rows(3, 0);
  EXPECT_THROW(scaler.fit(row_views(empty_rows)), Error);  // no columns
  EXPECT_FALSE(scaler.fitted());
  StandardScaler fitted;
  fitted.fit(row_views(wide));
  EXPECT_TRUE(fitted.fitted());
}

TEST(Scaler, RejectsNonFiniteInputWithColumnContext) {
  Rng rng(29);
  Matrix x = random_matrix(30, 4, rng);
  x(7, 2) = std::numeric_limits<double>::quiet_NaN();
  StandardScaler scaler;
  try {
    scaler.fit(row_views(x));
    FAIL() << "fit accepted a NaN column";
  } catch (const Error& e) {
    // The message must name the poisoned column and point at the fix.
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("impute"), std::string::npos)
        << e.what();
  }
}

TEST(Scaler, RejectsInfiniteInput) {
  Rng rng(31);
  Matrix x = random_matrix(30, 3, rng);
  x(0, 0) = std::numeric_limits<double>::infinity();
  StandardScaler scaler;
  EXPECT_THROW(scaler.fit(row_views(x)), Error);
}

TEST(Pca, RejectsNonFiniteInputOnFit) {
  Rng rng(37);
  Matrix x = random_matrix(40, 5, rng);
  x(11, 4) = std::numeric_limits<double>::quiet_NaN();
  Pca pca(2);
  try {
    pca.fit(x);
    FAIL() << "fit accepted a NaN column";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("column 4"), std::string::npos)
        << e.what();
  }
}

TEST(Pca, RejectsNonFiniteInputOnTransform) {
  Rng rng(41);
  const Matrix train = random_matrix(40, 5, rng);
  Pca pca(3);
  pca.fit(train);
  Matrix test = random_matrix(6, 5, rng);
  test(3, 1) = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)pca.transform(test);
    FAIL() << "transform accepted a NaN row";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos)
        << e.what();
  }
}

TEST(Pca, RecoversDominantDirection) {
  // Data along (1, 1)/√2 with small orthogonal noise.
  Rng rng(5);
  Matrix x(300, 2);
  for (std::size_t r = 0; r < 300; ++r) {
    const double t = rng.normal() * 5.0;
    const double noise = rng.normal() * 0.1;
    x(r, 0) = t + noise;
    x(r, 1) = t - noise;
  }
  Pca pca(1);
  pca.fit(x);
  const Matrix& comp = pca.components_matrix();
  EXPECT_NEAR(std::abs(comp(0, 0)), std::sqrt(0.5), 0.02);
  EXPECT_NEAR(comp(0, 0), comp(1, 0), 0.05);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.99);
}

TEST(Pca, ExplainedVarianceDescends) {
  Rng rng(7);
  const Matrix x = random_matrix(120, 10, rng);
  Pca pca(6);
  pca.fit(x);
  const auto& ev = pca.explained_variance();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i - 1], ev[i] - 1e-12);
  }
  double ratio_sum = 0.0;
  for (const double r : pca.explained_variance_ratio()) ratio_sum += r;
  EXPECT_LE(ratio_sum, 1.0 + 1e-9);
}

TEST(Pca, ComponentsAreOrthonormal) {
  Rng rng(9);
  const Matrix x = random_matrix(80, 12, rng);
  Pca pca(5);
  pca.fit(x);
  const Matrix gram = linalg::gram_at_a(pca.components_matrix());
  EXPECT_LT(gram.max_abs_diff(Matrix::identity(5)), 1e-7);
}

TEST(Pca, FullRankReconstructionIsLossless) {
  Rng rng(11);
  const Matrix x = random_matrix(40, 6, rng);
  Pca pca(6);
  const Matrix z = pca.fit_transform(x);
  const Matrix back = pca.inverse_transform(z);
  EXPECT_LT(back.max_abs_diff(x), 1e-7);
}

TEST(Pca, LowRankDataNeedsFewComponents) {
  // Rank-2 data: 2 components must capture everything.
  Rng rng(13);
  const Matrix basis = random_matrix(2, 8, rng);
  Matrix x(100, 8);
  for (std::size_t r = 0; r < 100; ++r) {
    const double a = rng.normal();
    const double b = rng.normal();
    for (std::size_t c = 0; c < 8; ++c) {
      x(r, c) = a * basis(0, c) + b * basis(1, c);
    }
  }
  Pca pca(2);
  const Matrix z = pca.fit_transform(x);
  const Matrix back = pca.inverse_transform(z);
  EXPECT_LT(back.max_abs_diff(x), 1e-6);
}

TEST(Pca, GramTrickSideAgreesWithCovarianceSide) {
  // n < d (Gram side) vs n > d (covariance side) must produce the same
  // subspace: compare reconstructions of the same underlying data.
  Rng rng(17);
  const Matrix wide = random_matrix(20, 50, rng);  // n < d → Gram trick
  Pca pca_wide(5);
  const Matrix z = pca_wide.fit_transform(wide);
  EXPECT_EQ(z.cols(), 5u);
  const Matrix gram =
      linalg::gram_at_a(pca_wide.components_matrix());
  EXPECT_LT(gram.max_abs_diff(Matrix::identity(5)), 1e-6);
  // Projection variance must equal the reported eigenvalues.
  for (std::size_t j = 0; j < 5; ++j) {
    std::vector<double> col(z.rows());
    for (std::size_t r = 0; r < z.rows(); ++r) col[r] = z(r, j);
    const double var =
        linalg::variance(col) * static_cast<double>(z.rows()) /
        static_cast<double>(z.rows() - 1);
    EXPECT_NEAR(var, pca_wide.explained_variance()[j],
                1e-6 * std::max(1.0, var));
  }
}

TEST(Pca, ComponentsClampedToData) {
  Rng rng(19);
  const Matrix x = random_matrix(10, 4, rng);
  Pca pca(100);
  pca.fit(x);
  EXPECT_EQ(pca.components(), 4u);
}

TEST(Pca, ErrorsOnMisuse) {
  Pca pca(2);
  const Matrix x(5, 3);
  EXPECT_THROW((void)pca.transform(x), Error);  // before fit
  Matrix one_row(1, 3);
  EXPECT_THROW(pca.fit(one_row), Error);
}

TEST(Pca, TransformCentersWithTrainMean) {
  Rng rng(23);
  const Matrix train = random_matrix(60, 4, rng, 1.0, 100.0);
  Pca pca(2);
  pca.fit(train);
  // The train projection must be (near) zero-mean.
  const Matrix z = pca.transform(train);
  const auto means = linalg::column_means(z);
  EXPECT_NEAR(means[0], 0.0, 1e-8);
  EXPECT_NEAR(means[1], 0.0, 1e-8);
}

}  // namespace
}  // namespace scwc::preprocess
