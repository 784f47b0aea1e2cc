// Tests for the CART decision tree and the random forest.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace scwc::ml {
namespace {

using linalg::Matrix;

/// Gaussian blobs: `classes` clusters in `dims` dimensions.
void make_blobs(std::size_t per_class, std::size_t classes, std::size_t dims,
                double spread, Matrix& x, std::vector<int>& y,
                std::uint64_t seed = 31) {
  Rng rng(seed);
  x = Matrix(per_class * classes, dims);
  y.assign(per_class * classes, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      y[row] = static_cast<int>(c);
      for (std::size_t d = 0; d < dims; ++d) {
        const double center = (d % classes == c) ? 4.0 : 0.0;
        x(row, d) = center + rng.normal() * spread;
      }
    }
  }
}

TEST(DecisionTree, PerfectlySeparableDataIsLearnedExactly) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 0.2, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(accuracy(y, tree.predict(x)), 1.0);
}

TEST(DecisionTree, LearnsXorWithDepthTwo) {
  // XOR needs two levels of splits — a classic axis-aligned CART case.
  Matrix x(200, 2);
  std::vector<int> y(200);
  Rng rng(3);
  for (std::size_t i = 0; i < 200; ++i) {
    const bool a = rng.bernoulli(0.5);
    const bool b = rng.bernoulli(0.5);
    x(i, 0) = (a ? 1.0 : 0.0) + rng.normal() * 0.1;
    x(i, 1) = (b ? 1.0 : 0.0) + rng.normal() * 0.1;
    y[i] = (a != b) ? 1 : 0;
  }
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_GT(accuracy(y, tree.predict(x)), 0.98);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(DecisionTree, MaxDepthLimitsTree) {
  Matrix x;
  std::vector<int> y;
  make_blobs(50, 4, 3, 1.5, x, y);
  DecisionTreeConfig config;
  config.max_depth = 1;
  DecisionTree stump(config);
  stump.fit(x, y);
  EXPECT_LE(stump.depth(), 1u);
  EXPECT_LE(stump.node_count(), 3u);
}

TEST(DecisionTree, MinSamplesLeafIsRespected) {
  Matrix x;
  std::vector<int> y;
  make_blobs(20, 2, 2, 2.0, x, y);
  DecisionTreeConfig config;
  config.min_samples_leaf = 10;
  DecisionTree tree(config);
  tree.fit(x, y);
  // With 40 samples and ≥10 per leaf, there can be at most 4 leaves.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ProbabilitiesSumToOne) {
  Matrix x;
  std::vector<int> y;
  make_blobs(25, 3, 3, 1.0, x, y);
  DecisionTree tree;
  tree.fit(x, y);
  const Matrix proba = tree.predict_proba(x);
  ASSERT_EQ(proba.cols(), 3u);
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GE(proba(r, c), 0.0);
      sum += proba(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DecisionTree, SingleClassDataGivesLeafOnly) {
  Matrix x(10, 2, 1.0);
  std::vector<int> y(10, 3);  // all class 3
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  const auto pred = tree.predict(x);
  for (const int p : pred) EXPECT_EQ(p, 3);
}

TEST(DecisionTree, NumClassesOverrideWidensProba) {
  Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  std::vector<int> y(10, 0);
  DecisionTreeConfig config;
  config.num_classes = 5;
  DecisionTree tree(config);
  tree.fit(x, y);
  EXPECT_EQ(tree.predict_proba(x).cols(), 5u);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  Matrix x;
  std::vector<int> y;
  make_blobs(40, 3, 6, 1.2, x, y);
  DecisionTreeConfig config;
  config.max_features = 2;  // random feature subsets engage the RNG
  DecisionTree a(config, 5);
  DecisionTree b(config, 5);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(DecisionTree, ErrorsOnMisuse) {
  DecisionTree tree;
  Matrix x(3, 2);
  EXPECT_THROW((void)tree.predict(x), Error);  // before fit
  std::vector<int> wrong(2, 0);
  EXPECT_THROW(tree.fit(x, wrong), Error);  // length mismatch
  std::vector<int> neg{0, -1, 0};
  EXPECT_THROW(tree.fit(x, neg), Error);
}

TEST(RandomForest, FitsBlobsWellOnHeldOut) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(60, 4, 6, 1.8, x_train, y_train, 7);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(20, 4, 6, 1.8, x_test, y_test, 8);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 40;
  RandomForest forest(forest_config);
  forest.fit(x_train, y_train);
  EXPECT_GT(accuracy(y_test, forest.predict(x_test)), 0.9);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(50, 5, 8, 3.0, x_train, y_train, 11);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(40, 5, 8, 3.0, x_test, y_test, 12);

  DecisionTree tree;
  tree.fit(x_train, y_train);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 60;
  RandomForest forest(forest_config);
  forest.fit(x_train, y_train);
  const double tree_acc = accuracy(y_test, tree.predict(x_test));
  const double forest_acc = accuracy(y_test, forest.predict(x_test));
  EXPECT_GE(forest_acc, tree_acc - 0.02);
}

TEST(RandomForest, ProbaAveragesToDistribution) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 1.0, x, y);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 10;
  RandomForest forest(forest_config);
  forest.fit(x, y);
  const Matrix proba = forest.predict_proba(x);
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < proba.cols(); ++c) sum += proba(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicAcrossRuns) {
  Matrix x;
  std::vector<int> y;
  make_blobs(40, 3, 5, 1.5, x, y, 13);
  RandomForestConfig config;
  config.n_estimators = 15;
  config.seed = 99;
  RandomForest a(config);
  RandomForest b(config);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForest, TreeCountMatchesConfig) {
  Matrix x;
  std::vector<int> y;
  make_blobs(10, 2, 2, 1.0, x, y);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 7;
  RandomForest forest(forest_config);
  forest.fit(x, y);
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForest, WithoutBootstrapStillWorks) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, 0.5, x, y);
  RandomForestConfig config;
  config.n_estimators = 9;
  config.bootstrap = false;
  RandomForest forest(config);
  forest.fit(x, y);
  EXPECT_GT(accuracy(y, forest.predict(x)), 0.95);
}

TEST(RandomForest, ErrorsOnMisuse) {
  RandomForest forest;
  Matrix x(2, 2);
  EXPECT_THROW((void)forest.predict(x), Error);
  RandomForestConfig bad;
  bad.n_estimators = 0;
  RandomForest zero(bad);
  std::vector<int> y{0, 1};
  EXPECT_THROW(zero.fit(x, y), Error);
}

}  // namespace
}  // namespace scwc::ml
