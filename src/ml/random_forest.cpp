#include "ml/random_forest.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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
// Rows one predict task owns at least, and the block a one-hot forest
// counts votes for in one fixed buffer.
constexpr std::size_t kRowBlock = 64;
// Lanes a lockstep group descends together.
constexpr std::size_t kGroup = 8;
// Classes a one-byte vote class can name.
constexpr std::size_t kMaxVoteClasses = 256;

/// Looked up once: a by-name lookup takes the registry's lock every call.
struct WalkCounters {
  obs::CounterHandle walks =
      obs::MetricsRegistry::global().counter("scwc_ml_rf_tree_walks_total");
  obs::CounterHandle skipped = obs::MetricsRegistry::global().counter(
      "scwc_ml_rf_tree_walks_skipped_total");
};

const WalkCounters& walk_counters() {
  static const WalkCounters counters;
  return counters;
}

/// Runs body(lo, hi) over rows [0, rows): inline up to one row block
/// (every serve batch, with no task machinery at all), else in parallel
/// blocks of at least kRowBlock rows.
template <typename Body>
void over_rows(std::size_t rows, const Body& body) {
  if (rows <= kRowBlock) {
    body(0, rows);
  } else {
    parallel_for_blocked(0, rows, body, kRowBlock);
  }
}

/// Calls run<G>(first) over lanes [0, lanes) in lockstep groups of 8; the
/// short tail runs in narrower groups of 4, 2 and 1 rather than padding
/// with repeated lanes.
template <typename Run>
void in_groups(std::size_t lanes, const Run& run) {
  std::size_t g = 0;
  for (; g + kGroup <= lanes; g += kGroup) run.template operator()<kGroup>(g);
  if (lanes - g >= 4) {
    run.template operator()<4>(g);
    g += 4;
  }
  if (lanes - g >= 2) {
    run.template operator()<2>(g);
    g += 2;
  }
  if (lanes - g == 1) run.template operator()<1>(g);
}
}  // namespace

/// counts[slot · C + c] is row slot's votes for class c. Once ranked, each
/// slot also keeps its top count and the runner-up: the largest count of
/// any class but one class holding the top (equal to the top on a tie), so
/// the stop rule needs no scan over the classes.
struct RandomForest::Ballot {
  std::array<std::uint32_t, kRowBlock * kMaxVoteClasses> counts;
  std::array<std::uint32_t, kRowBlock> top;
  std::array<std::uint32_t, kRowBlock> second;
  std::size_t classes;

  /// Zeroes the rows' counts; the rest of the buffer is never read.
  Ballot(std::size_t rows, std::size_t num_classes) : classes(num_classes) {
    std::fill_n(counts.begin(), rows * classes, 0U);
    std::fill_n(top.begin(), rows, 0U);
    std::fill_n(second.begin(), rows, 0U);
  }

  /// One vote before rank(): counted only.
  void add(std::size_t slot, std::uint32_t c) {
    ++counts[slot * classes + c];
  }

  /// Sets the slot's top and runner-up from its counts, once.
  void rank(std::size_t slot) {
    const std::uint32_t* row = counts.data() + slot * classes;
    std::uint32_t first = 0;
    std::uint32_t next = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      if (row[c] > first) {
        next = first;
        first = row[c];
      } else {
        next = std::max(next, row[c]);
      }
    }
    top[slot] = first;
    second[slot] = next;
  }

  /// One vote after rank(): only a class holding the top can pass it, and
  /// then the runner-up is unchanged (a tied class already set it to the
  /// old top); any other class can only raise the runner-up.
  void add_ranked(std::size_t slot, std::uint32_t c) {
    const std::uint32_t v = ++counts[slot * classes + c];
    if (v > top[slot]) {
      top[slot] = v;
    } else {
      second[slot] = std::max(second[slot], v);
    }
  }

  /// The class with the most votes, the lowest index on a tie.
  [[nodiscard]] int argmax(std::size_t slot) const {
    const std::uint32_t* row = counts.data() + slot * classes;
    return static_cast<int>(std::max_element(row, row + classes) - row);
  }
};

void RandomForest::Table::append(const DecisionTree& tree) {
  const std::span<const DecisionTree::Node> src = tree.nodes();
  SCWC_REQUIRE(nodes.size() + src.size() <
                   std::numeric_limits<std::uint32_t>::max(),
               "model: forest too large to compile");
  const auto root = static_cast<std::uint32_t>(nodes.size());
  one_hot = one_hot && num_classes <= kMaxVoteClasses;
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
      const std::size_t first = leaf_class.size();
      for (std::size_t c = 0; c < s.class_fraction.size(); ++c) {
        if (s.class_fraction[c] == 0.0) continue;
        leaf_class.push_back(static_cast<std::uint32_t>(c));
        leaf_fraction.push_back(s.class_fraction[c]);
      }
      one_hot = one_hot && leaf_class.size() == first + 1 &&
                leaf_fraction.back() == 1.0;
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
    if (one_hot) {
      vote_class.push_back(static_cast<std::uint8_t>(
          s.feature < 0 ? leaf_class.back() : 0));
    }
  }
  if (!one_hot) std::vector<std::uint8_t>().swap(vote_class);
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
void RandomForest::descend(const std::array<const double*, G>& values,
                           std::array<std::uint32_t, G>& at) const {
  const Node* nodes = table_.nodes.data();
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
}

template <std::size_t G, typename Sink>
void RandomForest::walk_group(const linalg::Matrix& x, std::size_t lo,
                              std::size_t hi, Lane& lane,
                              const Sink& sink) const {
  std::array<const double*, G> values;
  std::array<std::size_t, G> rows;
  std::array<std::uint32_t, G> at;
  for (std::size_t g = 0; g < G; ++g) {
    values[g] = x.row(lane.row).data();
    rows[g] = lane.row;
    at[g] = table_.roots[lane.tree];
    if (++lane.row == hi) {
      lane.row = lo;
      ++lane.tree;
    }
  }
  descend<G>(values, at);
  // Lanes are tree-major, so each row still receives its trees in order.
  for (std::size_t g = 0; g < G; ++g) sink(rows[g], at[g]);
}

template <typename Sink>
void RandomForest::walk_rows(const linalg::Matrix& x, std::size_t lo,
                             std::size_t hi, const Sink& sink) const {
  // The (tree, row) lanes in tree-major order — trees outer, rows inner —
  // walked in lockstep groups of 8: a block of 64 rows descends 8 rows of
  // one tree together, a single row descends 8 trees together.
  Lane lane{0, lo};
  in_groups(table_.roots.size() * (hi - lo),
            [&]<std::size_t G>(std::size_t) {
              walk_group<G>(x, lo, hi, lane, sink);
            });
}

void RandomForest::accumulate_rows(const linalg::Matrix& x, std::size_t lo,
                                   std::size_t hi,
                                   linalg::Matrix& proba) const {
  walk_rows(x, lo, hi, [&](std::size_t row, std::uint32_t leaf) {
    double* sums = proba.row(row).data();
    for (std::uint32_t e = table_.leaf_begin[leaf];
         e < table_.leaf_begin[leaf + 1]; ++e) {
      sums[table_.leaf_class[e]] += table_.leaf_fraction[e];
    }
  });
  const double scale = 1.0 / static_cast<double>(table_.roots.size());
  for (std::size_t r = lo; r < hi; ++r) {
    for (double& p : proba.row(r)) p *= scale;
  }
}

void RandomForest::count_rows(const linalg::Matrix& x, std::size_t lo,
                              std::size_t hi, linalg::Matrix& proba) const {
  Ballot ballot(hi - lo, table_.num_classes);
  walk_rows(x, lo, hi, [&](std::size_t row, std::uint32_t leaf) {
    ++ballot.counts[(row - lo) * ballot.classes + table_.vote_class[leaf]];
  });
  // T sums of 1.0 in doubles are exactly the integer count, so this is
  // bit for bit the summed-fraction result.
  const double scale = 1.0 / static_cast<double>(table_.roots.size());
  for (std::size_t r = lo; r < hi; ++r) {
    const std::uint32_t* votes = &ballot.counts[(r - lo) * ballot.classes];
    double* out = proba.row(r).data();
    for (std::size_t c = 0; c < ballot.classes; ++c) {
      out[c] = static_cast<double>(votes[c]) * scale;
    }
  }
}

template <std::size_t G>
void RandomForest::vote_group(const double* const* values,
                              const std::uint32_t* slots,
                              const std::uint32_t* roots, Ballot& ballot,
                              bool ranked) const {
  std::array<const double*, G> rows;
  std::array<std::uint32_t, G> at;
  for (std::size_t g = 0; g < G; ++g) {
    rows[g] = values[g];
    at[g] = roots[g];
  }
  descend<G>(rows, at);
  for (std::size_t g = 0; g < G; ++g) {
    if (ranked) {
      ballot.add_ranked(slots[g], table_.vote_class[at[g]]);
    } else {
      ballot.add(slots[g], table_.vote_class[at[g]]);
    }
  }
}

std::size_t RandomForest::vote_rows(const linalg::Matrix& x, std::size_t lo,
                                    std::size_t hi,
                                    std::vector<int>& out) const {
  const std::size_t trees = table_.roots.size();
  const std::size_t rows = hi - lo;
  Ballot ballot(rows, table_.num_classes);
  // The undecided rows: their slots and values, compacted together.
  std::array<std::uint32_t, kRowBlock> live_slots;
  std::array<const double*, kRowBlock> live_values;
  for (std::size_t i = 0; i < rows; ++i) {
    live_slots[i] = static_cast<std::uint32_t>(i);
    live_values[i] = x.row(lo + i).data();
  }
  std::size_t live = rows;
  // A chunk is enough whole trees to fill a group of 8 lanes: one tree
  // while 8 or more rows are live (every lane starts at its root), else
  // ⌈8 / live⌉ trees, whose tree-major lanes (at most live + 7) are laid
  // out here.
  std::array<std::uint32_t, kGroup> tree_root;
  std::array<const double*, 2 * kGroup> lane_values;
  std::array<std::uint32_t, 2 * kGroup> lane_slots;
  std::array<std::uint32_t, 2 * kGroup> lane_roots;
  std::size_t walked = 0;
  std::size_t done = 0;  // trees every live row has walked
  bool ranked = false;   // top and runner-up kept from here on
  while (live > 0 && done < trees) {
    const double* const* values = live_values.data();
    const std::uint32_t* slots = live_slots.data();
    const std::uint32_t* roots = tree_root.data();
    std::size_t root_step = 0;  // lanes share one root
    std::size_t chunk = 1;
    if (live >= kGroup) {
      tree_root.fill(table_.roots[done]);
    } else {
      chunk = std::min(trees - done, (kGroup + live - 1) / live);
      for (std::size_t k = 0; k < chunk; ++k) {
        for (std::size_t i = 0; i < live; ++i) {
          lane_values[k * live + i] = live_values[i];
          lane_slots[k * live + i] = live_slots[i];
          lane_roots[k * live + i] = table_.roots[done + k];
        }
      }
      values = lane_values.data();
      slots = lane_slots.data();
      roots = lane_roots.data();
      root_step = 1;
    }
    const std::size_t lanes = live * chunk;
    in_groups(lanes, [&]<std::size_t G>(std::size_t g) {
      vote_group<G>(values + g, slots + g, roots + g * root_step, ballot,
                    ranked);
    });
    walked += lanes;
    done += chunk;
    // Decided: even if every remaining tree voted for the runner-up, the
    // top class would stay strictly ahead, so it is the final argmax. The
    // lead is at most `done`, so no row is decided while done ≤ remaining:
    // until then votes are only counted, then every live row is ranked
    // once and its top and runner-up are kept vote by vote.
    const std::size_t remaining = trees - done;
    if (done <= remaining) continue;
    if (!ranked) {
      for (std::size_t i = 0; i < live; ++i) ballot.rank(live_slots[i]);
      ranked = true;
    }
    const auto decided = [&](std::uint32_t slot) {
      return ballot.top[slot] - ballot.second[slot] > remaining;
    };
    std::size_t first = 0;
    while (first < live && !decided(live_slots[first])) ++first;
    if (first == live) continue;
    std::size_t kept = first;
    for (std::size_t i = first; i < live; ++i) {
      const std::uint32_t slot = live_slots[i];
      if (decided(slot)) {
        out[lo + slot] = ballot.argmax(slot);
      } else {
        live_slots[kept] = slot;
        live_values[kept] = live_values[i];
        ++kept;
      }
    }
    live = kept;
  }
  // Rows that walked every tree without a strict lead: a tie, which the
  // lowest class wins, as in the argmax over predict_proba.
  for (std::size_t i = 0; i < live; ++i) {
    out[lo + live_slots[i]] = ballot.argmax(live_slots[i]);
  }
  return walked;
}

void RandomForest::require_input(const linalg::Matrix& x) const {
  SCWC_REQUIRE(!table_.roots.empty(), "RandomForest::predict before fit");
  SCWC_REQUIRE(x.cols() >= table_.input_width,
               "RandomForest::predict: " + std::to_string(x.cols()) +
                   " feature columns, the forest splits on " +
                   std::to_string(table_.input_width));
}

linalg::Matrix RandomForest::predict_proba(const linalg::Matrix& x) const {
  require_input(x);
  linalg::Matrix proba(x.rows(), table_.num_classes);
  const auto body = [&](std::size_t lo, std::size_t hi) {
    if (!one_hot()) {
      accumulate_rows(x, lo, hi, proba);
      return;
    }
    for (; lo < hi; lo += kRowBlock) {
      count_rows(x, lo, std::min(hi, lo + kRowBlock), proba);
    }
  };
  over_rows(x.rows(), body);
  walk_counters().walks.inc(x.rows() * table_.roots.size());
  return proba;
}

std::vector<int> RandomForest::predict(const linalg::Matrix& x) const {
  if (!one_hot()) {
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
  require_input(x);
  std::vector<int> out(x.rows());
  std::atomic<std::size_t> walked{0};
  const auto body = [&](std::size_t lo, std::size_t hi) {
    std::size_t mine = 0;
    for (; lo < hi; lo += kRowBlock) {
      mine += vote_rows(x, lo, std::min(hi, lo + kRowBlock), out);
    }
    walked.fetch_add(mine, std::memory_order_relaxed);
  };
  over_rows(x.rows(), body);
  const std::size_t made = walked.load(std::memory_order_relaxed);
  walk_counters().walks.inc(made);
  walk_counters().skipped.inc(x.rows() * table_.roots.size() - made);
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
