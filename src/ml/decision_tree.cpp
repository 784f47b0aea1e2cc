#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace scwc::ml {

namespace {

double gini_from_counts(std::span<const double> counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

void DecisionTree::fit(const linalg::Matrix& x, std::span<const int> y) {
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_on_rows(x, y, rows);
}

void DecisionTree::fit_on_rows(const linalg::Matrix& x, std::span<const int> y,
                               std::span<const std::size_t> rows) {
  SCWC_REQUIRE(x.rows() == y.size(), "DecisionTree: X/y length mismatch");
  SCWC_REQUIRE(!rows.empty(), "DecisionTree: empty training set");
  int max_label = 0;
  for (const int label : y) {
    SCWC_REQUIRE(label >= 0, "DecisionTree: labels must be non-negative");
    max_label = std::max(max_label, label);
  }
  num_classes_ = std::max(config_.num_classes,
                          static_cast<std::size_t>(max_label) + 1);

  nodes_.clear();
  depth_ = 0;
  std::vector<std::size_t> work(rows.begin(), rows.end());
  Rng rng(seed_);
  build(x, y, work, 0, work.size(), 0, rng);
}

std::int32_t DecisionTree::build(const linalg::Matrix& x,
                                 std::span<const int> y,
                                 std::vector<std::size_t>& rows,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t depth, Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = hi - lo;

  // Class histogram for this node.
  std::vector<double> counts(num_classes_, 0.0);
  for (std::size_t i = lo; i < hi; ++i) {
    counts[static_cast<std::size_t>(y[rows[i]])] += 1.0;
  }
  const double node_impurity = gini_from_counts(counts, static_cast<double>(n));

  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.class_fraction.resize(num_classes_);
    double best = -1.0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      leaf.class_fraction[c] = counts[c] / static_cast<double>(n);
      if (counts[c] > best) {
        best = counts[c];
        leaf.majority = static_cast<std::int32_t>(c);
      }
    }
    nodes_.push_back(std::move(leaf));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= config_.max_depth || n < config_.min_samples_split ||
      node_impurity <= 0.0) {
    return make_leaf();
  }

  // Candidate features: all, or a fresh random subset per split (forest).
  const std::size_t d = x.cols();
  std::vector<std::size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  std::size_t try_features = d;
  if (config_.max_features > 0 && config_.max_features < d) {
    rng.shuffle(features);
    try_features = config_.max_features;
  }

  double best_gain = config_.min_impurity_decrease;
  std::size_t best_feature = 0;
  double best_threshold = 0.0;

  std::vector<std::pair<double, int>> sorted;  // (value, label)
  sorted.reserve(n);
  std::vector<double> left_counts(num_classes_);

  for (std::size_t fi = 0; fi < try_features; ++fi) {
    const std::size_t f = features[fi];
    sorted.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      sorted.emplace_back(x(rows[i], f), y[rows[i]]);
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    // Scan split positions between distinct values. The class sums of
    // squares are maintained incrementally — moving one sample of class c
    // across the boundary changes Σx² by ±(2x±1) — so each position costs
    // O(1) instead of O(num_classes).
    double left_sum_sq = 0.0;
    double right_sum_sq = 0.0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      right_sum_sq += counts[c] * counts[c];
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto cls = static_cast<std::size_t>(sorted[i].second);
      left_sum_sq += 2.0 * left_counts[cls] + 1.0;
      const double right_count = counts[cls] - left_counts[cls];
      right_sum_sq -= 2.0 * right_count - 1.0;
      left_counts[cls] += 1.0;
      if (sorted[i].first == sorted[i + 1].first) continue;
      const double n_left = static_cast<double>(i + 1);
      const double n_right = static_cast<double>(n - i - 1);
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      const double gini_left = 1.0 - left_sum_sq / (n_left * n_left);
      const double gini_right = 1.0 - right_sum_sq / (n_right * n_right);
      const double weighted =
          (n_left * gini_left + n_right * gini_right) / static_cast<double>(n);
      const double gain = node_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }

  // best_gain only moves above its initial value when a split is accepted.
  if (best_gain <= config_.min_impurity_decrease) {
    return make_leaf();
  }

  // Partition rows in place around the chosen split.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(lo),
      rows.begin() + static_cast<std::ptrdiff_t>(hi),
      [&](std::size_t r) { return x(r, best_feature) <= best_threshold; });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == lo || mid == hi) return make_leaf();  // numerically degenerate

  // Reserve our slot before recursing so child indices stay valid.
  nodes_.emplace_back();
  const std::int32_t self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build(x, y, rows, lo, mid, depth + 1, rng);
  const std::int32_t right = build(x, y, rows, mid, hi, depth + 1, rng);
  nodes_[static_cast<std::size_t>(self)].feature =
      static_cast<std::int32_t>(best_feature);
  nodes_[static_cast<std::size_t>(self)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

const DecisionTree::Node& DecisionTree::descend(
    std::span<const double> row) const {
  SCWC_REQUIRE(!nodes_.empty(), "DecisionTree::predict before fit");
  // The root is the first node pushed at the top-level build call. Because
  // internal nodes reserve their slot before children, index of the root is
  // 0 for leaf-only trees and 0 for split roots alike.
  std::size_t idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.feature < 0) return node;
    const double v = row[static_cast<std::size_t>(node.feature)];
    idx = static_cast<std::size_t>(v <= node.threshold ? node.left
                                                       : node.right);
  }
}

std::vector<int> DecisionTree::predict(const linalg::Matrix& x) const {
  std::vector<int> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = static_cast<int>(descend(x.row(r)).majority);
  }
  return out;
}

linalg::Matrix DecisionTree::predict_proba(const linalg::Matrix& x) const {
  linalg::Matrix out(x.rows(), num_classes_);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Node& leaf = descend(x.row(r));
    auto dst = out.row(r);
    for (std::size_t c = 0; c < num_classes_; ++c) {
      dst[c] = leaf.class_fraction[c];
    }
  }
  return out;
}

void DecisionTree::save(ByteWriter& w) const {
  w.u64(num_classes_);
  w.u64(depth_);
  w.u64(nodes_.size());
  for (const Node& node : nodes_) {
    w.i64(node.feature);
    w.f64(node.threshold);
    w.i64(node.left);
    w.i64(node.right);
    w.i64(node.majority);
    w.u64(node.class_fraction.size());
    w.f64s(node.class_fraction);
  }
}

void DecisionTree::load(ByteReader& r) {
  num_classes_ = r.u64();
  // Caps bound what a corrupted length field can make us allocate before
  // the truncation check fires: a single flipped bit in `count` must yield
  // a typed error, not a multi-gigabyte nodes_.assign.
  r.require(num_classes_ <= (1ULL << 16), "unreasonable class count");
  depth_ = r.u64();
  const std::uint64_t count = r.u64();
  r.require(count < (1ULL << 20), "unreasonable node count");
  nodes_.assign(count, Node{});
  // Every node but the root has exactly one parent, placed before it, so
  // descend() terminates and the forest compiler sees a tree, not a DAG.
  std::vector<bool> has_parent(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    Node& node = nodes_[i];
    node.feature = static_cast<std::int32_t>(r.i64());
    node.threshold = r.f64();
    node.left = static_cast<std::int32_t>(r.i64());
    node.right = static_cast<std::int32_t>(r.i64());
    node.majority = static_cast<std::int32_t>(r.i64());
    const std::uint64_t fractions = r.u64();
    r.require(fractions == (node.feature < 0 ? num_classes_ : 0),
              "malformed leaf distribution");
    node.class_fraction = r.f64s(fractions);
    if (node.feature < 0) continue;
    for (const std::int32_t child : {node.left, node.right}) {
      r.require(child >= 0 && static_cast<std::uint64_t>(child) < count,
                "child index out of range");
      r.require(static_cast<std::size_t>(child) > i,
                "child index not after its parent");
      r.require(!has_parent[static_cast<std::size_t>(child)],
                "node has two parents");
      has_parent[static_cast<std::size_t>(child)] = true;
    }
  }
  r.require(!nodes_.empty(), "empty tree");
}

}  // namespace scwc::ml
