// Cross-validation and grid search.
//
// The paper selects SVM/RF hyper-parameters with a 10-fold grid search and
// the XGBoost ones with 5-fold CV; these helpers are model-agnostic via the
// ClassifierFactory so the same driver serves every baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/rng.hpp"
#include "ml/classifier.hpp"

namespace scwc::ml {

/// One fold: row indices for training and validation.
struct Fold {
  std::vector<std::size_t> train;
  std::vector<std::size_t> validation;
};

/// K-fold partition of n rows (shuffled when seed-driven `shuffle` is set).
/// Folds differ in size by at most one row and cover every row exactly once
/// on the validation side.
std::vector<Fold> kfold(std::size_t n, std::size_t k, bool shuffle,
                        std::uint64_t seed);

/// Mean validation accuracy of a fresh model per fold.
double cross_val_accuracy(const linalg::Matrix& x, std::span<const int> y,
                          const std::vector<Fold>& folds,
                          const ClassifierFactory& factory);

/// Result of a grid search over an indexed configuration list.
struct GridSearchResult {
  std::size_t best_index = 0;
  double best_score = 0.0;
  std::vector<double> scores;  ///< CV score per configuration
};

/// Evaluates `evaluate(i)` for every configuration index and returns the
/// argmax. Configurations are evaluated in parallel; `evaluate` must be
/// thread-compatible (each call builds its own models).
GridSearchResult grid_search(
    std::size_t n_configs,
    const std::function<double(std::size_t)>& evaluate);

/// At most `cap` of the row indices 0..n−1 (all of them when cap is 0 or
/// n ≤ cap), picked at a uniform stride: index ⌊k·n/cap⌋ for k < cap.
/// Uniform thinning keeps the class mix because a split's rows are
/// shuffled, so the stride is near-stratified.
std::vector<std::size_t> capped_rows(std::size_t n, std::size_t cap);

/// Selects rows of a matrix / label vector (fold assembly helper).
linalg::Matrix take_rows(const linalg::Matrix& x,
                         std::span<const std::size_t> rows);
std::vector<int> take_labels(std::span<const int> y,
                             std::span<const std::size_t> rows);

}  // namespace scwc::ml
