// The paper's preprocessing pipeline: StandardScaler over each window's
// steps·sensors values → one of {PCA(k), covariance features}. Fit on the
// training tensor only; the test tensor is transformed with the fitted
// parameters (no leakage through the scaler or the PCA basis). This is the
// one place a split is standardised and reduced.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "data/tensor3.hpp"
#include "preprocess/covariance_features.hpp"
#include "preprocess/pca.hpp"
#include "preprocess/scaler.hpp"

namespace scwc::preprocess {

/// Which dimensionality-reduction arm of Section IV to apply.
enum class Reduction { kPca, kCovariance, kNone };

/// Name used in tables ("PCA", "Cov.", "raw").
std::string reduction_name(Reduction reduction);

/// Configuration for the classical-ML feature pipeline.
struct FeaturePipelineConfig {
  Reduction reduction = Reduction::kCovariance;
  std::size_t pca_components = 28;  ///< used when reduction == kPca
};

/// Stateful pipeline: fit() learns scaler (and PCA basis) from the training
/// tensor; transform() featurises windows of the same shape.
class FeaturePipeline {
 public:
  explicit FeaturePipeline(FeaturePipelineConfig config) : config_(config) {}

  /// Fits the scaler over the trials' own views (no copy of the split);
  /// kPca then fits its basis on the scaled rows.
  void fit(const data::Tensor3& x_train);
  /// Featurises `windows`, each a row-major steps()×sensors() window
  /// wherever it lives (a request's own buffer, a tensor's trial); row i
  /// of the result belongs to windows[i]. kCovariance scales each window
  /// into per-block scratch and reduces it there; kPca and kNone scale
  /// each window straight into its row of the steps·sensors-wide matrix.
  /// Either way each window is scaled by scaler().transform_row(), so the
  /// result is bit-identical to reducing the element-wise scaled windows.
  /// kCovariance refuses a non-finite window with a scwc::Error naming its
  /// index.
  [[nodiscard]] linalg::Matrix transform(
      std::span<const std::span<const double>> windows) const;
  /// The same over every trial of `x`, whose shape must be the fitted one.
  [[nodiscard]] linalg::Matrix transform(const data::Tensor3& x) const;
  [[nodiscard]] linalg::Matrix fit_transform(const data::Tensor3& x_train);

  /// Width of the produced feature matrix (valid after fit()).
  [[nodiscard]] std::size_t output_dim() const;

  [[nodiscard]] const FeaturePipelineConfig& config() const noexcept {
    return config_;
  }

  /// Fitted geometry and parameters — the serve layer's bundle persistence
  /// reads these (and restore() writes them back).
  [[nodiscard]] bool fitted() const noexcept { return scaler_.fitted(); }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t sensors() const noexcept { return sensors_; }
  [[nodiscard]] const StandardScaler& scaler() const noexcept {
    return scaler_;
  }
  [[nodiscard]] const std::optional<Pca>& pca() const noexcept { return pca_; }

  /// Rebuilds a fitted pipeline from previously extracted parts. A kPca
  /// pipeline must come with a fitted Pca whose component count matches the
  /// config; the other reductions must come without one.
  [[nodiscard]] static FeaturePipeline restore(FeaturePipelineConfig config,
                                               std::size_t steps,
                                               std::size_t sensors,
                                               StandardScaler scaler,
                                               std::optional<Pca> pca);

 private:
  /// Each window scaled by transform_row() into its row of a
  /// windows × steps·sensors matrix (kPca and kNone, and kPca's fit).
  [[nodiscard]] linalg::Matrix scale_rows(
      std::span<const std::span<const double>> windows) const;

  FeaturePipelineConfig config_;
  std::size_t steps_ = 0;
  std::size_t sensors_ = 0;
  StandardScaler scaler_;
  std::optional<Pca> pca_;
};

}  // namespace scwc::preprocess
