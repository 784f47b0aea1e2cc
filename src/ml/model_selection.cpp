#include "ml/model_selection.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"

namespace scwc::ml {

std::vector<Fold> kfold(std::size_t n, std::size_t k, bool shuffle,
                        std::uint64_t seed) {
  SCWC_REQUIRE(k >= 2, "kfold: need at least 2 folds");
  SCWC_REQUIRE(n >= k, "kfold: more folds than rows");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (shuffle) {
    Rng rng(seed);
    rng.shuffle(order);
  }

  std::vector<Fold> folds(k);
  // First (n % k) folds get one extra row, as in scikit-learn.
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  std::size_t pos = 0;
  for (std::size_t f = 0; f < k; ++f) {
    const std::size_t len = base + (f < extra ? 1 : 0);
    folds[f].validation.assign(
        order.begin() + static_cast<std::ptrdiff_t>(pos),
        order.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  for (std::size_t f = 0; f < k; ++f) {
    for (std::size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      folds[f].train.insert(folds[f].train.end(), folds[g].validation.begin(),
                            folds[g].validation.end());
    }
    std::sort(folds[f].train.begin(), folds[f].train.end());
    std::sort(folds[f].validation.begin(), folds[f].validation.end());
  }
  return folds;
}

std::vector<std::size_t> capped_rows(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> rows;
  if (cap == 0 || n <= cap) {
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    return rows;
  }
  rows.reserve(cap);
  const double stride = static_cast<double>(n) / static_cast<double>(cap);
  for (std::size_t k = 0; k < cap; ++k) {
    rows.push_back(static_cast<std::size_t>(static_cast<double>(k) * stride));
  }
  return rows;
}

linalg::Matrix take_rows(const linalg::Matrix& x,
                         std::span<const std::size_t> rows) {
  linalg::Matrix out(rows.size(), x.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCWC_REQUIRE(rows[i] < x.rows(), "take_rows: index out of range");
    std::copy(x.row(rows[i]).begin(), x.row(rows[i]).end(),
              out.row(i).begin());
  }
  return out;
}

std::vector<int> take_labels(std::span<const int> y,
                             std::span<const std::size_t> rows) {
  std::vector<int> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCWC_REQUIRE(rows[i] < y.size(), "take_labels: index out of range");
    out[i] = y[rows[i]];
  }
  return out;
}

double cross_val_accuracy(const linalg::Matrix& x, std::span<const int> y,
                          const std::vector<Fold>& folds,
                          const ClassifierFactory& factory) {
  SCWC_REQUIRE(x.rows() == y.size(), "cross_val: X/y length mismatch");
  SCWC_REQUIRE(!folds.empty(), "cross_val: no folds");
  std::vector<double> fold_scores(folds.size(), 0.0);
  parallel_for(
      0, folds.size(),
      [&](std::size_t f) {
        const Fold& fold = folds[f];
        const linalg::Matrix x_train = take_rows(x, fold.train);
        const std::vector<int> y_train = take_labels(y, fold.train);
        const linalg::Matrix x_val = take_rows(x, fold.validation);
        const std::vector<int> y_val = take_labels(y, fold.validation);
        auto model = factory();
        model->fit(x_train, y_train);
        fold_scores[f] = accuracy(y_val, model->predict(x_val));
      },
      1);
  double mean = 0.0;
  for (const double s : fold_scores) mean += s;
  return mean / static_cast<double>(fold_scores.size());
}

GridSearchResult grid_search(
    std::size_t n_configs,
    const std::function<double(std::size_t)>& evaluate) {
  SCWC_REQUIRE(n_configs > 0, "grid_search: empty grid");
  GridSearchResult result;
  result.scores.assign(n_configs, 0.0);
  parallel_for(
      0, n_configs,
      [&](std::size_t i) { result.scores[i] = evaluate(i); },
      1);
  result.best_index = 0;
  result.best_score = result.scores[0];
  for (std::size_t i = 1; i < n_configs; ++i) {
    if (result.scores[i] > result.best_score) {
      result.best_score = result.scores[i];
      result.best_index = i;
    }
  }
  return result;
}

}  // namespace scwc::ml
