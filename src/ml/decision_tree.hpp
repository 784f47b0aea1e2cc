// CART decision-tree classifier (Gini impurity, exact greedy splits).
//
// Serves two masters: standalone classification (and the unit tests), and
// the RandomForest ensemble, which injects bootstrap row sets and per-split
// feature subsampling through TreeFitContext.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "ml/classifier.hpp"

namespace scwc::ml {

/// Decision-tree hyper-parameters.
struct DecisionTreeConfig {
  std::size_t max_depth = 64;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features tried per split; 0 = all features (single tree), forests pass
  /// ceil(sqrt(d)).
  std::size_t max_features = 0;
  double min_impurity_decrease = 0.0;
  /// Class-count override; 0 infers max(label)+1 from the data. Ensembles
  /// set it so every tree agrees on the probability width even when a
  /// bootstrap sample misses the last class.
  std::size_t num_classes = 0;
};

/// Binary-split CART classifier.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {},
                        std::uint64_t seed = 7177)
      : config_(config), seed_(seed) {}

  void fit(const linalg::Matrix& x, std::span<const int> y) override;

  /// Variant used by the forest: trains only on `rows` (with repetition
  /// allowed, i.e. a bootstrap sample).
  void fit_on_rows(const linalg::Matrix& x, std::span<const int> y,
                   std::span<const std::size_t> rows);

  [[nodiscard]] std::vector<int> predict(const linalg::Matrix& x) const override;

  /// Class-probability estimates (leaf class frequencies), rows×classes.
  [[nodiscard]] linalg::Matrix predict_proba(const linalg::Matrix& x) const;

  [[nodiscard]] std::string name() const override { return "DecisionTree"; }

  /// Number of nodes in the fitted tree (0 before fit).
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Depth of the fitted tree.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

  /// Serialises the fitted tree: the per-tree record of SCWC_RF1.
  void save(ByteWriter& w) const;
  /// Restores a tree saved with save(). Throws on malformed input: a leaf
  /// distribution that is not exactly num_classes() wide, a child index
  /// out of range or not after its parent, or a node with two parents.
  void load(ByteReader& r);

  /// One node in build order (pre-order: parent, left subtree, right
  /// subtree). Internal nodes have feature ≥ 0 and no distribution; leaves
  /// have feature < 0 and num_classes() fractions.
  struct Node {
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::vector<double> class_fraction;  // populated for leaves
    std::int32_t majority = 0;
  };
  /// The fitted nodes, root first — what RandomForest compiles.
  [[nodiscard]] std::span<const Node> nodes() const noexcept {
    return nodes_;
  }

 private:
  std::int32_t build(const linalg::Matrix& x, std::span<const int> y,
                     std::vector<std::size_t>& rows, std::size_t lo,
                     std::size_t hi, std::size_t depth, Rng& rng);
  [[nodiscard]] const Node& descend(std::span<const double> row) const;

  DecisionTreeConfig config_;
  std::uint64_t seed_;
  std::vector<Node> nodes_;
  std::size_t num_classes_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace scwc::ml
