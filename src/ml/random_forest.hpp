// Random forest classifier (bagging + per-split feature subsampling).
//
// Matches scikit-learn's RandomForestClassifier defaults where the paper
// relies on them: Gini splits, bootstrap samples the size of the training
// set, sqrt(d) features per split, soft (probability-averaged) voting.
// Trees are grown in parallel, each from a forked RNG stream, so results
// are independent of the thread count.
//
// fit() and load() compile the trees into one flat table (DESIGN.md §5) and
// keep only that: paired-sibling 16-byte nodes, sparse (class, fraction)
// leaves, and a batch-major predict_proba whose sums are bit-identical to
// adding each DecisionTree's distribution in tree order. Up to one 64-row
// block (every serve batch) it runs inline and allocates only its output.
//
// When every leaf is one-hot (one class at fraction 1.0, as fully grown
// trees give), the soft vote is the hard vote: each tree adds exactly 1 to
// one class. The table then keeps a one-byte vote class per node and counts
// votes in integers; predict stops walking a row's trees once no remaining
// tree can change its argmax. Any other forest sums the leaf fractions.
//
// save()/load() speak SCWC_RF1 through a common/byte_io writer or reader,
// so a model bundle embeds the forest in its own stream and every load
// error names its byte offset.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "ml/decision_tree.hpp"

namespace scwc::ml {

/// Forest hyper-parameters. The paper grid-searches n_estimators over
/// {50, 100, 250}.
struct RandomForestConfig {
  std::size_t n_estimators = 100;
  DecisionTreeConfig tree;           ///< tree.max_features 0 → sqrt(d)
  bool bootstrap = true;
  std::uint64_t seed = 20220401;
};

/// Ensemble of CART trees with probability-averaged voting.
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {}) : config_(config) {}

  void fit(const linalg::Matrix& x, std::span<const int> y) override;
  [[nodiscard]] std::vector<int> predict(const linalg::Matrix& x) const override;
  /// Mean leaf distribution over the trees, rows×classes. Each row sums its
  /// trees in order 0..T−1 and is then scaled by 1/T, so the result does not
  /// depend on the thread count or on which rows share the call.
  [[nodiscard]] linalg::Matrix predict_proba(const linalg::Matrix& x) const;
  [[nodiscard]] std::string name() const override { return "RandomForest"; }

  [[nodiscard]] std::size_t tree_count() const noexcept {
    return table_.roots.size();
  }
  /// Columns predict reads: one past the largest split feature (at least
  /// 1). predict_proba requires x.cols() ≥ input_width().
  [[nodiscard]] std::size_t input_width() const noexcept {
    return table_.input_width;
  }
  [[nodiscard]] const RandomForestConfig& config() const noexcept {
    return config_;
  }
  /// True when every leaf stores one class at fraction exactly 1.0 and
  /// there are at most 256 classes: predict and predict_proba then count
  /// integer votes instead of summing the leaf fractions.
  [[nodiscard]] bool one_hot() const noexcept {
    return !table_.vote_class.empty();
  }

  /// Serialises the fitted forest (format SCWC_RF1: magic, class count,
  /// tree count, then each tree in DecisionTree::save's layout) so a
  /// deployed monitor can load it without retraining. A model bundle
  /// writes it into its own writer.
  void save(ByteWriter& w) const;
  /// Restores a forest saved with save(); throws scwc::Error naming the
  /// byte offset on malformed input and leaves the forest unchanged.
  void load(ByteReader& r);
  /// File-path wrappers; they stream through a bounded buffer, and load
  /// errors read "model: …".
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  /// One compiled node. An internal node sends row value v to `child` when
  /// v <= threshold (NaN fails, so it goes right) and to `child` + 1
  /// otherwise. A leaf is a fixed point of the same step: threshold NaN,
  /// feature 0 and child = its own index − 1 (mod 2³²).
  struct Node {
    double threshold = 0.0;
    std::int32_t feature = 0;
    std::uint32_t child = 0;
  };

  /// Every tree's nodes in one table: tree t occupies [roots[t],
  /// roots[t+1]) in breadth-first order, so siblings are adjacent.
  struct Table {
    std::size_t num_classes = 0;
    std::size_t input_width = 1;
    std::vector<Node> nodes;
    std::vector<std::uint32_t> roots;
    /// Leaf distributions in CSR form over node index: node i owns entries
    /// [leaf_begin[i], leaf_begin[i+1]) (empty for internal nodes). Zero
    /// fractions are dropped — adding +0.0 changes no sum.
    std::vector<std::uint32_t> leaf_begin{0};
    std::vector<std::uint32_t> leaf_class;
    std::vector<double> leaf_fraction;
    /// Each node's vote class (its leaf_class; 0 for an internal node)
    /// while every leaf appended so far is one-hot and num_classes <= 256;
    /// empty otherwise. The class comes from the fractions, never from the
    /// stored `majority`, which a stream may set to anything.
    std::vector<std::uint8_t> vote_class;
    bool one_hot = true;  ///< every leaf appended so far is one-hot
    /// Carried only so save() can write SCWC_RF1 back out.
    std::vector<std::uint64_t> depths;
    std::vector<std::int32_t> majority;

    /// Appends one tree, whose class count must be num_classes.
    void append(const DecisionTree& tree);
    [[nodiscard]] bool is_leaf(std::uint32_t i) const noexcept {
      return nodes[i].child + 1 == i;
    }
  };

  /// Next (tree, row) pair a lockstep group takes.
  struct Lane {
    std::size_t tree;
    std::size_t row;
  };
  /// Integer votes of one block of at most 64 rows (defined in the .cpp).
  struct Ballot;

  /// Steps G lanes in lockstep from their nodes `at` down to their leaves.
  template <std::size_t G>
  void descend(const std::array<const double*, G>& values,
               std::array<std::uint32_t, G>& at) const;
  /// Throws unless the forest is fitted and x has input_width() columns.
  void require_input(const linalg::Matrix& x) const;
  /// Descends every (tree, row) lane of rows [lo, hi) in tree-major order,
  /// in lockstep groups of 8, and hands each reached leaf to sink(row,
  /// leaf); every row receives its trees in order 0..T−1.
  template <typename Sink>
  void walk_rows(const linalg::Matrix& x, std::size_t lo, std::size_t hi,
                 const Sink& sink) const;
  /// Descends the next G lanes of rows [lo, hi) and sinks their leaves.
  template <std::size_t G, typename Sink>
  void walk_group(const linalg::Matrix& x, std::size_t lo, std::size_t hi,
                  Lane& lane, const Sink& sink) const;
  /// Sums every tree's leaf distribution into proba rows [lo, hi), then
  /// scales them by 1/T.
  void accumulate_rows(const linalg::Matrix& x, std::size_t lo,
                       std::size_t hi, linalg::Matrix& proba) const;
  /// One-hot forest: counts every tree's vote for rows [lo, hi) (at most
  /// 64), then writes votes × 1/T into proba.
  void count_rows(const linalg::Matrix& x, std::size_t lo, std::size_t hi,
                  linalg::Matrix& proba) const;
  /// One-hot forest: labels rows [lo, hi) (at most 64) into out[lo..hi),
  /// dropping each row once its label is decided. Returns the tree walks
  /// made.
  std::size_t vote_rows(const linalg::Matrix& x, std::size_t lo,
                        std::size_t hi, std::vector<int>& out) const;
  /// Descends G lanes — lane g reads row values[g] from node roots[g] —
  /// and adds each lane's vote to its row's slots[g], keeping the rows'
  /// top and runner-up when `ranked`.
  template <std::size_t G>
  void vote_group(const double* const* values, const std::uint32_t* slots,
                  const std::uint32_t* roots, Ballot& ballot,
                  bool ranked) const;

  RandomForestConfig config_;
  Table table_;
};

}  // namespace scwc::ml
