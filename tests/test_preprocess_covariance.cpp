// Tests for the covariance feature reduction (§IV-A) and the pipeline.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "preprocess/covariance_features.hpp"
#include "preprocess/pipeline.hpp"

namespace scwc::preprocess {
namespace {

using data::Tensor3;
using linalg::Matrix;

TEST(CovFeatures, CountFormula) {
  EXPECT_EQ(covariance_feature_count(7), 28u);  // the paper's R^28
  EXPECT_EQ(covariance_feature_count(1), 1u);
  EXPECT_EQ(covariance_feature_count(3), 6u);
}

/// Mean 0 and scale 1 for every column: (x − 0) / 1 is x bit for bit, so
/// the fused entry point reduces the raw windows.
StandardScaler identity_scaler(std::size_t width) {
  return StandardScaler::restore(linalg::Vector(width, 0.0),
                                 linalg::Vector(width, 1.0));
}

TEST(CovFeatures, MatchesExplicitGramUpperTriangle) {
  Rng rng(1);
  Matrix trial(15, 4);
  for (double& x : trial.flat()) x = rng.normal();
  const std::span<const double> window = trial.flat();
  const Matrix features = standardized_covariance_features(
      {&window, 1}, 15, 4, identity_scaler(60));
  const Matrix gram = linalg::gram_at_a(trial);  // MᵀM
  std::size_t k = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i; j < 4; ++j) {
      EXPECT_NEAR(features(0, k++), gram(i, j), 1e-10);
    }
  }
}

TEST(CovFeatures, TensorReductionMapsShapes) {
  // R^{trials×540×7} → R^{trials×28}, as in the paper's example.
  Tensor3 x(5, 10, 7);
  Rng rng(2);
  for (double& v : x.raw()) v = rng.normal();
  const Matrix features = standardized_covariance_features(
      x.trial_views(), 10, 7, identity_scaler(70));
  EXPECT_EQ(features.rows(), 5u);
  EXPECT_EQ(features.cols(), 28u);
}

TEST(CovFeatures, WrongWidthThrows) {
  Tensor3 x(2, 5, 3);
  const auto views = x.trial_views();
  // A scaler fitted to another width, and windows of another width.
  EXPECT_THROW((void)standardized_covariance_features(views, 5, 3,
                                                      identity_scaler(14)),
               Error);
  EXPECT_THROW((void)standardized_covariance_features(views, 4, 3,
                                                      identity_scaler(12)),
               Error);
}

TEST(CovFeatures, PairMappingRoundTrips) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = i; j < 7; ++j) {
      const auto [pi, pj] = covariance_feature_pair(k, 7);
      EXPECT_EQ(pi, i);
      EXPECT_EQ(pj, j);
      ++k;
    }
  }
  EXPECT_THROW((void)covariance_feature_pair(28, 7), Error);
}

TEST(CovFeatures, NamesUsePaperSensorNames) {
  EXPECT_EQ(covariance_feature_name(0, 7), "var(utilization_gpu_pct)");
  EXPECT_EQ(covariance_feature_name(1, 7),
            "cov(utilization_gpu_pct, utilization_memory_pct)");
  EXPECT_EQ(covariance_feature_name(27, 7), "var(power_draw_W)");
}

TEST(Pipeline, CovarianceOutputDim) {
  Tensor3 x(6, 9, 7);
  Rng rng(5);
  for (double& v : x.raw()) v = rng.normal();
  FeaturePipeline pipeline({Reduction::kCovariance, 0});
  const Matrix f = pipeline.fit_transform(x);
  EXPECT_EQ(f.rows(), 6u);
  EXPECT_EQ(f.cols(), 28u);
  EXPECT_EQ(pipeline.output_dim(), 28u);
}

TEST(Pipeline, PcaOutputDim) {
  Tensor3 x(30, 5, 7);
  Rng rng(7);
  for (double& v : x.raw()) v = rng.normal();
  FeaturePipeline pipeline({Reduction::kPca, 8});
  const Matrix f = pipeline.fit_transform(x);
  EXPECT_EQ(f.cols(), 8u);
  EXPECT_EQ(pipeline.output_dim(), 8u);
}

TEST(Pipeline, RawPassThroughKeepsWidth) {
  Tensor3 x(4, 5, 7);
  FeaturePipeline pipeline({Reduction::kNone, 0});
  const Matrix f = pipeline.fit_transform(x);
  EXPECT_EQ(f.cols(), 35u);
}

TEST(Pipeline, TransformRequiresMatchingShape) {
  Tensor3 train(6, 9, 7);
  Tensor3 wrong(6, 8, 7);
  FeaturePipeline pipeline({Reduction::kCovariance, 0});
  (void)pipeline.fit_transform(train);
  EXPECT_THROW((void)pipeline.transform(wrong), Error);
}

TEST(Pipeline, NoTestLeakageThroughScaler) {
  // Transforming a shifted test tensor must use train statistics: the
  // covariance features of shifted test data must differ from what they
  // would be if the scaler were refit on test.
  Rng rng(11);
  Tensor3 train(20, 6, 7);
  Tensor3 test(20, 6, 7);
  for (double& v : train.raw()) v = rng.normal();
  for (double& v : test.raw()) v = rng.normal() + 50.0;  // big shift
  FeaturePipeline pipeline({Reduction::kCovariance, 0});
  (void)pipeline.fit_transform(train);
  const Matrix test_features = pipeline.transform(test);
  FeaturePipeline refit({Reduction::kCovariance, 0});
  const Matrix refit_features = refit.fit_transform(test);
  EXPECT_GT(test_features.max_abs_diff(refit_features), 1.0);
}

TEST(Pipeline, UseBeforeFitThrows) {
  FeaturePipeline pipeline({Reduction::kCovariance, 0});
  Tensor3 x(2, 3, 7);
  EXPECT_THROW((void)pipeline.transform(x), Error);
  EXPECT_THROW((void)pipeline.output_dim(), Error);
}

TEST(ReductionNames, MatchTableVLabels) {
  EXPECT_EQ(reduction_name(Reduction::kPca), "PCA");
  EXPECT_EQ(reduction_name(Reduction::kCovariance), "Cov.");
  EXPECT_EQ(reduction_name(Reduction::kNone), "raw");
}

}  // namespace
}  // namespace scwc::preprocess
