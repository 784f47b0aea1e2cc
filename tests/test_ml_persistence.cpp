// Tests for trained-model persistence (tree + forest save/load).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace scwc::ml {
namespace {

using linalg::Matrix;

void make_blobs(std::size_t per_class, std::size_t classes, std::size_t dims,
                Matrix& x, std::vector<int>& y, std::uint64_t seed) {
  Rng rng(seed);
  x = Matrix(per_class * classes, dims);
  y.assign(per_class * classes, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const std::size_t row = c * per_class + i;
      y[row] = static_cast<int>(c);
      for (std::size_t d = 0; d < dims; ++d) {
        x(row, d) = (d == c % dims ? 3.0 : 0.0) + rng.normal();
      }
    }
  }
}

/// The bytes `model.save` writes.
template <typename Model>
std::string saved(const Model& model) {
  ByteWriter w;
  model.save(w);
  return w.take();
}

/// Loads `model` from `bytes` the way a bundle or a file does.
template <typename Model>
void load(Model& model, std::string_view bytes) {
  ByteReader r(bytes, "model");
  model.load(r);
}

TEST(Persistence, TreeRoundTripsThroughMemory) {
  Matrix x;
  std::vector<int> y;
  make_blobs(30, 3, 4, x, y, 1);
  DecisionTree tree;
  tree.fit(x, y);

  DecisionTree restored;
  load(restored, saved(tree));

  EXPECT_EQ(restored.node_count(), tree.node_count());
  EXPECT_EQ(restored.depth(), tree.depth());
  EXPECT_EQ(restored.num_classes(), tree.num_classes());
  EXPECT_EQ(restored.predict(x), tree.predict(x));
  EXPECT_DOUBLE_EQ(restored.predict_proba(x).max_abs_diff(tree.predict_proba(x)),
            0.0);
}

TEST(Persistence, ForestRoundTripsThroughMemory) {
  Matrix x;
  std::vector<int> y;
  make_blobs(25, 4, 5, x, y, 2);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 12;
  RandomForest forest(forest_config);
  forest.fit(x, y);

  RandomForest restored;
  load(restored, saved(forest));

  EXPECT_EQ(restored.tree_count(), 12u);
  EXPECT_EQ(restored.predict(x), forest.predict(x));
  EXPECT_DOUBLE_EQ(restored.predict_proba(x).max_abs_diff(forest.predict_proba(x)),
            0.0);
}

TEST(Persistence, ForestRoundTripsThroughFile) {
  Matrix x;
  std::vector<int> y;
  make_blobs(20, 3, 3, x, y, 3);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 8;
  RandomForest forest(forest_config);
  forest.fit(x, y);
  const auto path =
      (std::filesystem::temp_directory_path() / "scwc_forest.bin").string();
  forest.save_file(path);
  RandomForest restored;
  restored.load_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(restored.predict(x), forest.predict(x));
}

TEST(Persistence, LoadedForestGeneralisesLikeTheOriginal) {
  Matrix x_train;
  std::vector<int> y_train;
  make_blobs(40, 3, 4, x_train, y_train, 4);
  Matrix x_test;
  std::vector<int> y_test;
  make_blobs(15, 3, 4, x_test, y_test, 5);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 20;
  RandomForest forest(forest_config);
  forest.fit(x_train, y_train);
  RandomForest restored;
  load(restored, saved(forest));
  EXPECT_DOUBLE_EQ(accuracy(y_test, restored.predict(x_test)),
                   accuracy(y_test, forest.predict(x_test)));
}

TEST(Persistence, RejectsGarbage) {
  RandomForest forest;
  EXPECT_THROW(load(forest, "not a forest at all, sorry"), Error);
}

TEST(Persistence, RejectsTruncatedStream) {
  Matrix x;
  std::vector<int> y;
  make_blobs(15, 2, 3, x, y, 6);
  RandomForestConfig forest_config;
  forest_config.n_estimators = 4;
  RandomForest forest(forest_config);
  forest.fit(x, y);
  const std::string full = saved(forest);
  RandomForest restored;
  EXPECT_THROW(load(restored, full.substr(0, full.size() / 2)), Error);
}

// ---------------------------------------------- crafted SCWC_RF1 streams

/// One node as DecisionTree::save writes it.
struct RawNode {
  std::int64_t feature = -1;
  double threshold = 0.0;
  std::int64_t left = -1;
  std::int64_t right = -1;
  std::vector<double> fractions;
  std::int64_t majority = 0;
};

struct RawTree {
  std::uint64_t classes = 2;
  std::vector<RawNode> nodes;
};

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::string forest_stream(std::uint64_t classes,
                          const std::vector<RawTree>& trees) {
  std::string out;
  put_u64(out, 0x534357435F524631ULL);  // "SCWC_RF1"
  put_u64(out, classes);
  put_u64(out, trees.size());
  for (const RawTree& tree : trees) {
    put_u64(out, tree.classes);
    put_u64(out, 1);  // depth
    put_u64(out, tree.nodes.size());
    for (const RawNode& node : tree.nodes) {
      put_u64(out, static_cast<std::uint64_t>(node.feature));
      put_f64(out, node.threshold);
      put_u64(out, static_cast<std::uint64_t>(node.left));
      put_u64(out, static_cast<std::uint64_t>(node.right));
      put_u64(out, static_cast<std::uint64_t>(node.majority));
      put_u64(out, node.fractions.size());
      for (const double f : node.fractions) put_f64(out, f);
    }
  }
  return out;
}

/// A two-class stump splitting feature `feature` at 0.5.
RawTree stump(std::int64_t feature = 0) {
  RawTree tree;
  tree.nodes = {{feature, 0.5, 1, 2, {}},
                {-1, 0.0, -1, -1, {1.0, 0.0}},
                {-1, 0.0, -1, -1, {0.0, 1.0}}};
  return tree;
}

TEST(Persistence, CraftedStumpLoadsAndPredicts) {
  RandomForest forest;
  load(forest, forest_stream(2, {stump()}));
  Matrix x(3, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = std::numeric_limits<double>::quiet_NaN();  // NaN goes right
  EXPECT_EQ(forest.predict(x), (std::vector<int>{0, 1, 1}));
}

TEST(Persistence, OneHotLeafVotesForItsFractionNotItsStoredMajority) {
  // Each leaf's stored majority names the other class.
  RawTree tree = stump();
  tree.nodes[1].majority = 1;
  tree.nodes[2].majority = 0;
  RandomForest forest;
  load(forest, forest_stream(2, {tree, tree, stump()}));
  ASSERT_TRUE(forest.one_hot());
  Matrix x(2, 1);
  x(1, 0) = 1.0;
  EXPECT_EQ(forest.predict(x), (std::vector<int>{0, 1}));
  const Matrix proba = forest.predict_proba(x);
  EXPECT_DOUBLE_EQ(proba(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(proba(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(proba(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(proba(1, 1), 1.0);
}

TEST(Persistence, OneImpureLeafMakesTheForestSumFractions) {
  // Tree 0's left leaf stores a single fraction of 0.5: a row going left
  // scores (0.5 + 0) / 2 = 0.25 for class 0 and (0 + 1) / 2 = 0.5 for
  // class 1. Counted as votes it would tie 1:1 and answer class 0.
  RawTree half = stump();
  half.nodes[1].fractions = {0.5, 0.0};
  RawTree right = stump();
  right.nodes[1].fractions = {0.0, 1.0};
  RandomForest forest;
  load(forest, forest_stream(2, {half, right}));
  EXPECT_FALSE(forest.one_hot());
  const Matrix x(1, 1);  // 0.0 goes left in both trees
  const Matrix proba = forest.predict_proba(x);
  EXPECT_DOUBLE_EQ(proba(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(proba(0, 1), 0.5);
  EXPECT_EQ(forest.predict(x), (std::vector<int>{1}));
}

TEST(Persistence, RejectsLeafNarrowerThanTheClassCount) {
  RawTree tree = stump();
  tree.nodes[2].fractions = {1.0};  // predict would read class 1 past it
  RandomForest forest;
  EXPECT_THROW(load(forest, forest_stream(2, {tree})), Error);
}

TEST(Persistence, RejectsChildIndexNotAfterItsParent) {
  // Node 2 lists itself as its left child: a row reaching it with a value
  // <= 0.5 would descend forever.
  RawTree tree;
  tree.nodes = {{0, 0.5, 1, 2, {}},
                {-1, 0.0, -1, -1, {1.0, 0.0}},
                {0, 0.5, 2, 3, {}},
                {-1, 0.0, -1, -1, {0.0, 1.0}}};
  RandomForest forest;
  EXPECT_THROW(load(forest, forest_stream(2, {tree})), Error);
}

TEST(Persistence, RejectsNodeWithTwoParents) {
  RawTree tree;
  tree.nodes = {{0, 0.5, 1, 2, {}},
                {0, 0.2, 3, 4, {}},
                {0, 0.8, 3, 4, {}},
                {-1, 0.0, -1, -1, {1.0, 0.0}},
                {-1, 0.0, -1, -1, {0.0, 1.0}}};
  RandomForest forest;
  EXPECT_THROW(load(forest, forest_stream(2, {tree})), Error);
}

TEST(Persistence, RejectsTreeClassCountDifferentFromTheHeader) {
  RawTree wide = stump();
  wide.classes = 3;
  for (RawNode& node : wide.nodes) {
    if (node.feature < 0) node.fractions.push_back(0.0);
  }
  RandomForest forest;
  EXPECT_THROW(load(forest, forest_stream(2, {stump(), wide})), Error);
}

TEST(Persistence, PredictRejectsRowsNarrowerThanTheSplitFeatures) {
  RandomForest forest;
  load(forest, forest_stream(2, {stump(), stump(5)}));
  EXPECT_THROW((void)forest.predict_proba(Matrix(2, 5)), Error);
  EXPECT_EQ(forest.predict_proba(Matrix(2, 6)).rows(), 2u);
}

TEST(Persistence, SaveBeforeFitThrows) {
  RandomForest forest;
  ByteWriter w;
  EXPECT_THROW(forest.save(w), Error);
}

}  // namespace
}  // namespace scwc::ml
