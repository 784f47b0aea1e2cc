// Tests for the CPU+GPU fusion feature builder.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fusion.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::core {
namespace {

struct FusionWorld {
  telemetry::Corpus corpus;
  ChallengeConfig challenge;
};

const FusionWorld& world() {
  static const FusionWorld w = [] {
    FusionWorld out;
    telemetry::CorpusConfig cc;
    cc.jobs_per_class_scale = 0.015;
    cc.min_jobs_per_class = 3;
    cc.seed = 7;
    out.corpus = telemetry::generate_corpus(cc);
    out.challenge.window_steps = 30;
    out.challenge.sample_hz = 0.5;
    out.challenge.seed = 99;
    return out;
  }();
  return w;
}

TEST(Fusion, ShapesAndBlocks) {
  const FusedDataset fused =
      build_fused_dataset(world().corpus, world().challenge);
  EXPECT_EQ(fused.gpu_features, 28u);
  EXPECT_EQ(fused.cpu_features, 2u * telemetry::kNumCpuMetrics);
  EXPECT_EQ(fused.x_train.cols(), 28u + 16u);
  EXPECT_EQ(fused.x_train.rows(), fused.y_train.size());
  EXPECT_EQ(fused.x_test.rows(), fused.y_test.size());
  EXPECT_GT(fused.x_train.rows(), fused.x_test.rows());
}

TEST(Fusion, AllValuesFinite) {
  const FusedDataset fused =
      build_fused_dataset(world().corpus, world().challenge);
  for (const double v : fused.x_train.flat()) EXPECT_TRUE(std::isfinite(v));
  for (const double v : fused.x_test.flat()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Fusion, Deterministic) {
  const FusedDataset a =
      build_fused_dataset(world().corpus, world().challenge);
  const FusedDataset b =
      build_fused_dataset(world().corpus, world().challenge);
  EXPECT_EQ(a.y_train, b.y_train);
  EXPECT_DOUBLE_EQ(a.x_train.max_abs_diff(b.x_train), 0.0);
}

TEST(Fusion, CpuBlockAloneIsInformative) {
  // Host-side profiles differ by family, so the 16 CPU statistics alone
  // must classify far above the 1/26 chance level.
  const FusedDataset fused =
      build_fused_dataset(world().corpus, world().challenge);
  linalg::Matrix cpu_train(fused.x_train.rows(), fused.cpu_features);
  linalg::Matrix cpu_test(fused.x_test.rows(), fused.cpu_features);
  for (std::size_t r = 0; r < cpu_train.rows(); ++r) {
    for (std::size_t c = 0; c < fused.cpu_features; ++c) {
      cpu_train(r, c) = fused.x_train(r, fused.gpu_features + c);
    }
  }
  for (std::size_t r = 0; r < cpu_test.rows(); ++r) {
    for (std::size_t c = 0; c < fused.cpu_features; ++c) {
      cpu_test(r, c) = fused.x_test(r, fused.gpu_features + c);
    }
  }
  ml::RandomForestConfig forest_config;
  forest_config.n_estimators = 40;
  ml::RandomForest forest(forest_config);
  forest.fit(cpu_train, fused.y_train);
  const double acc =
      ml::accuracy(fused.y_test, forest.predict(cpu_test));
  EXPECT_GT(acc, 0.15);  // chance ≈ 0.04
}

TEST(Fusion, FusedAtLeastMatchesGpuOnly) {
  const FusedDataset fused =
      build_fused_dataset(world().corpus, world().challenge);
  linalg::Matrix gpu_train(fused.x_train.rows(), fused.gpu_features);
  linalg::Matrix gpu_test(fused.x_test.rows(), fused.gpu_features);
  for (std::size_t r = 0; r < gpu_train.rows(); ++r) {
    for (std::size_t c = 0; c < fused.gpu_features; ++c) {
      gpu_train(r, c) = fused.x_train(r, c);
    }
  }
  for (std::size_t r = 0; r < gpu_test.rows(); ++r) {
    for (std::size_t c = 0; c < fused.gpu_features; ++c) {
      gpu_test(r, c) = fused.x_test(r, c);
    }
  }
  ml::RandomForestConfig gpu_forest_config;
  gpu_forest_config.n_estimators = 60;
  ml::RandomForest gpu_forest(gpu_forest_config);
  gpu_forest.fit(gpu_train, fused.y_train);
  const double gpu_acc =
      ml::accuracy(fused.y_test, gpu_forest.predict(gpu_test));

  ml::RandomForestConfig fused_forest_config;
  fused_forest_config.n_estimators = 60;
  ml::RandomForest fused_forest(fused_forest_config);
  fused_forest.fit(fused.x_train, fused.y_train);
  const double fused_acc =
      ml::accuracy(fused.y_test, fused_forest.predict(fused.x_test));
  EXPECT_GE(fused_acc, gpu_acc - 0.05);
}

TEST(Fusion, StartPolicyAlsoWorks) {
  FusionConfig config;
  config.policy = data::WindowPolicy::kStart;
  const FusedDataset fused =
      build_fused_dataset(world().corpus, world().challenge, config);
  EXPECT_GT(fused.x_train.rows(), 0u);
  for (const double v : fused.x_train.flat()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace scwc::core
