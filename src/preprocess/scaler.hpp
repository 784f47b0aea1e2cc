// Column standardisation — scikit-learn's StandardScaler semantics.
//
// The paper standardises each flattened trial matrix (trials × 3780)
// column-wise before either PCA or covariance reduction: "standardization
// was performed using Scikit-learn's StandardScaler class, with
// standardization being applied before either covariance or PCA
// dimensionality reduction."
#pragma once

#include "linalg/matrix.hpp"

namespace scwc::preprocess {

/// Per-column zero-mean/unit-variance transform fit on training data.
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation. Constant columns get a
  /// unit scale so transform() is total (matches scikit-learn).
  void fit(const linalg::Matrix& x);

  /// (x - mean) / std, column-wise. Requires fit() and matching width.
  [[nodiscard]] linalg::Matrix transform(const linalg::Matrix& x) const;

  /// (x - mean) / std for one row of width means().size() into `dst` — the
  /// formula transform() applies, shared with the fused covariance path.
  void transform_row(std::span<const double> src, std::span<double> dst) const;

  /// fit() then transform() on the same matrix.
  [[nodiscard]] linalg::Matrix fit_transform(const linalg::Matrix& x);

  /// Inverse transform (x * std + mean).
  [[nodiscard]] linalg::Matrix inverse_transform(const linalg::Matrix& x) const;

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
