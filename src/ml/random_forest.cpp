#include "ml/random_forest.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::ml {

namespace {
constexpr std::uint64_t kForestMagic = 0x534357435F524631ULL;  // "SCWC_RF1"
// Rows one predict_proba task owns; smaller calls (every serve batch) run
// inline with no task machinery at all.
constexpr std::size_t kRowBlock = 64;
}  // namespace

void RandomForest::Table::append(const DecisionTree& tree) {
  const std::span<const DecisionTree::Node> src = tree.nodes();
  SCWC_REQUIRE(nodes.size() + src.size() <
                   std::numeric_limits<std::uint32_t>::max(),
               "model: forest too large to compile");
  const auto root = static_cast<std::uint32_t>(nodes.size());
  roots.push_back(root);
  depths.push_back(tree.depth());
  // Breadth-first relayout: compiled node root + k is source node order[k],
  // and an internal node's two children are appended to `order` together.
  std::vector<std::size_t> order{0};
  order.reserve(src.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const DecisionTree::Node& s = src[order[k]];
    const auto self = static_cast<std::uint32_t>(root + k);
    Node n;
    if (s.feature < 0) {
      n.threshold = std::numeric_limits<double>::quiet_NaN();
      n.feature = 0;
      n.child = self - 1U;
      for (std::size_t c = 0; c < s.class_fraction.size(); ++c) {
        if (s.class_fraction[c] == 0.0) continue;
        leaf_class.push_back(static_cast<std::uint32_t>(c));
        leaf_fraction.push_back(s.class_fraction[c]);
      }
    } else {
      n.threshold = s.threshold;
      n.feature = s.feature;
      n.child = static_cast<std::uint32_t>(root + order.size());
      order.push_back(static_cast<std::size_t>(s.left));
      order.push_back(static_cast<std::size_t>(s.right));
      input_width =
          std::max(input_width, static_cast<std::size_t>(s.feature) + 1);
    }
    nodes.push_back(n);
    majority.push_back(s.majority);
    leaf_begin.push_back(static_cast<std::uint32_t>(leaf_class.size()));
  }
}

void RandomForest::fit(const linalg::Matrix& x, std::span<const int> y) {
  SCWC_REQUIRE(x.rows() == y.size(), "RandomForest: X/y length mismatch");
  SCWC_REQUIRE(x.rows() > 0, "RandomForest: empty training set");
  SCWC_REQUIRE(config_.n_estimators > 0, "RandomForest: need at least 1 tree");

  int max_label = 0;
  for (const int label : y) max_label = std::max(max_label, label);
  const std::size_t num_classes = static_cast<std::size_t>(max_label) + 1;

  DecisionTreeConfig tree_config = config_.tree;
  tree_config.num_classes = num_classes;
  if (tree_config.max_features == 0) {
    tree_config.max_features = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(x.cols()))));
  }

  // Pre-draw every tree's stream so results do not depend on scheduling.
  Rng root(config_.seed);
  std::vector<std::uint64_t> tree_seeds(config_.n_estimators);
  std::vector<std::uint64_t> bootstrap_seeds(config_.n_estimators);
  for (std::size_t t = 0; t < config_.n_estimators; ++t) {
    tree_seeds[t] = root.next_u64();
    bootstrap_seeds[t] = root.next_u64();
  }

  std::vector<DecisionTree> trees(config_.n_estimators,
                                  DecisionTree(tree_config));
  const std::size_t n = x.rows();
  const obs::TraceSpan fit_span("rf.fit");
  const obs::CounterHandle trees_total =
      obs::MetricsRegistry::global().counter("scwc_ml_rf_trees_total");
  parallel_for(
      0, config_.n_estimators,
      [&](std::size_t t) {
        trees[t] = DecisionTree(tree_config, tree_seeds[t]);
        if (config_.bootstrap) {
          Rng boot(bootstrap_seeds[t]);
          std::vector<std::size_t> rows(n);
          for (std::size_t i = 0; i < n; ++i) {
            rows[i] = static_cast<std::size_t>(boot.uniform_index(n));
          }
          trees[t].fit_on_rows(x, y, rows);
        } else {
          trees[t].fit(x, y);
        }
        trees_total.inc();
      },
      1);

  Table table;
  table.num_classes = num_classes;
  for (const DecisionTree& tree : trees) table.append(tree);
  table_ = std::move(table);
}

template <std::size_t G>
void RandomForest::accumulate_group(const linalg::Matrix& x, std::size_t lo,
                                    std::size_t hi, Lane& lane,
                                    linalg::Matrix& proba) const {
  const Node* nodes = table_.nodes.data();
  std::array<const double*, G> values;
  std::array<double*, G> sums;
  std::array<std::uint32_t, G> at;
  for (std::size_t g = 0; g < G; ++g) {
    values[g] = x.row(lane.row).data();
    sums[g] = proba.row(lane.row).data();
    at[g] = table_.roots[lane.tree];
    if (++lane.row == hi) {
      lane.row = lo;
      ++lane.tree;
    }
  }
  // One branch-free step per lane per level; a lane already on a leaf
  // steps onto itself, so the walk is over when a step moves no lane.
  for (;;) {
    std::uint32_t moved = 0;
    for (std::size_t g = 0; g < G; ++g) {
      const Node& node = nodes[at[g]];
      const bool right = !(values[g][node.feature] <= node.threshold);
      const std::uint32_t next = node.child + static_cast<std::uint32_t>(right);
      moved |= next ^ at[g];
      at[g] = next;
    }
    if (moved == 0) break;
  }
  // Lanes are tree-major, so each row still receives its trees in order.
  for (std::size_t g = 0; g < G; ++g) {
    for (std::uint32_t e = table_.leaf_begin[at[g]];
         e < table_.leaf_begin[at[g] + 1]; ++e) {
      sums[g][table_.leaf_class[e]] += table_.leaf_fraction[e];
    }
  }
}

void RandomForest::accumulate_rows(const linalg::Matrix& x, std::size_t lo,
                                   std::size_t hi,
                                   linalg::Matrix& proba) const {
  // The (tree, row) lanes in tree-major order — trees outer, rows inner —
  // walked in lockstep groups of 8: a block of 64 rows descends 8 rows of
  // one tree together, a single row descends 8 trees together. The short
  // tail runs in narrower groups rather than padding with repeated lanes.
  std::size_t left = table_.roots.size() * (hi - lo);
  Lane lane{0, lo};
  for (; left >= 8; left -= 8) accumulate_group<8>(x, lo, hi, lane, proba);
  if (left >= 4) {
    accumulate_group<4>(x, lo, hi, lane, proba);
    left -= 4;
  }
  if (left >= 2) {
    accumulate_group<2>(x, lo, hi, lane, proba);
    left -= 2;
  }
  if (left == 1) accumulate_group<1>(x, lo, hi, lane, proba);
  const double scale = 1.0 / static_cast<double>(table_.roots.size());
  for (std::size_t r = lo; r < hi; ++r) {
    for (double& p : proba.row(r)) p *= scale;
  }
}

linalg::Matrix RandomForest::predict_proba(const linalg::Matrix& x) const {
  SCWC_REQUIRE(!table_.roots.empty(), "RandomForest::predict before fit");
  SCWC_REQUIRE(x.cols() >= table_.input_width,
               "RandomForest::predict: " + std::to_string(x.cols()) +
                   " feature columns, the forest splits on " +
                   std::to_string(table_.input_width));
  linalg::Matrix proba(x.rows(), table_.num_classes);
  const auto body = [&](std::size_t lo, std::size_t hi) {
    accumulate_rows(x, lo, hi, proba);
  };
  if (x.rows() <= kRowBlock) {
    body(0, x.rows());
  } else {
    parallel_for_blocked(0, x.rows(), body, kRowBlock);
  }
  return proba;
}

std::vector<int> RandomForest::predict(const linalg::Matrix& x) const {
  const linalg::Matrix proba = predict_proba(x);
  std::vector<int> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = proba.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < table_.num_classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<int>(best);
  }
  return out;
}

void RandomForest::save(ByteWriter& w) const {
  SCWC_REQUIRE(!table_.roots.empty(), "RandomForest::save before fit");
  const std::size_t trees = table_.roots.size();
  w.u64(kForestMagic);
  w.u64(table_.num_classes);
  w.u64(trees);
  // Each tree in DecisionTree::save's layout, nodes in compiled order with
  // tree-local indices; leaves are written canonically (feature, left and
  // right −1, threshold 0) with their zero fractions restored.
  for (std::size_t t = 0; t < trees; ++t) {
    const std::uint32_t root = table_.roots[t];
    const std::size_t end =
        t + 1 < trees ? table_.roots[t + 1] : table_.nodes.size();
    w.u64(table_.num_classes);
    w.u64(table_.depths[t]);
    w.u64(end - root);
    for (auto i = static_cast<std::uint32_t>(root); i < end; ++i) {
      const Node& node = table_.nodes[i];
      const bool leaf = table_.is_leaf(i);
      w.i64(leaf ? -1 : node.feature);
      w.f64(leaf ? 0.0 : node.threshold);
      w.i64(leaf ? -1 : static_cast<std::int64_t>(node.child - root));
      w.i64(leaf ? -1 : static_cast<std::int64_t>(node.child + 1 - root));
      w.i64(table_.majority[i]);
      if (!leaf) {
        w.u64(0);
        continue;
      }
      w.u64(table_.num_classes);
      std::uint32_t e = table_.leaf_begin[i];
      for (std::size_t c = 0; c < table_.num_classes; ++c) {
        const bool stored =
            e < table_.leaf_begin[i + 1] && table_.leaf_class[e] == c;
        w.f64(stored ? table_.leaf_fraction[e++] : 0.0);
      }
    }
  }
}

void RandomForest::load(ByteReader& r) {
  r.require(r.u64() == kForestMagic, "bad forest magic");
  Table table;
  table.num_classes = r.u64();
  const std::uint64_t count = r.u64();
  r.require(count >= 1 && count < (1ULL << 20), "unreasonable tree count");
  for (std::uint64_t t = 0; t < count; ++t) {
    DecisionTree tree;
    tree.load(r);
    r.require(tree.num_classes() == table.num_classes,
              "tree class count differs from the forest header");
    table.append(tree);
  }
  table_ = std::move(table);
}

void RandomForest::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path + " for writing");
  ByteWriter w(os);
  save(w);
  w.flush();
}

void RandomForest::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "cannot open " + path + " for reading");
  ByteReader r(is, "model");
  load(r);
}

}  // namespace scwc::ml
