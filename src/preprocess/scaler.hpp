// Column standardisation — scikit-learn's StandardScaler semantics.
//
// The paper standardises each trial's 3780 values (540 steps × 7 sensors,
// read row-major) column-wise before either PCA or covariance reduction:
// "standardization was performed using Scikit-learn's StandardScaler class,
// with standardization being applied before either covariance or PCA
// dimensionality reduction." A row here is one trial's values wherever they
// live (a tensor's trial, a request's buffer, a matrix row), so no
// flattened copy of a split is ever made.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace scwc::preprocess {

/// Per-column zero-mean/unit-variance transform fit on training data.
class StandardScaler {
 public:
  /// Learns per-column mean and population standard deviation over `rows`,
  /// each of the same width. Sums run over the rows in the order given,
  /// then divide by the row count. Constant columns get a unit scale so
  /// transform_row() is total (matches scikit-learn).
  void fit(std::span<const std::span<const double>> rows);

  /// (x - mean) / std for one row of width means().size() into `dst`.
  /// `dst` may be `src` itself: each value is read before it is written.
  void transform_row(std::span<const double> src, std::span<double> dst) const;

  [[nodiscard]] bool fitted() const noexcept { return !means_.empty(); }
  [[nodiscard]] const linalg::Vector& means() const noexcept { return means_; }
  [[nodiscard]] const linalg::Vector& scales() const noexcept { return scales_; }

  /// Rebuilds a fitted scaler from previously extracted parameters (the
  /// model-bundle persistence path). Lengths must match and scales must be
  /// finite and positive, as fit() guarantees.
  [[nodiscard]] static StandardScaler restore(linalg::Vector means,
                                              linalg::Vector scales);

 private:
  linalg::Vector means_;
  linalg::Vector scales_;
};

}  // namespace scwc::preprocess
