// Covariance dimensionality reduction — the paper's second arm.
//
// "given a single trial M ∈ R^{540×7} … we computed the covariance matrix
//  with respect to the seven sensors, MᵀM ∈ R^{7×7}. As MᵀM is symmetric,
//  we further reduced the dimensions of each trial by taking the upper
//  triangular portion … stacked into a single row vector in R^28."
//
// The transform maps a batch of steps×sensors windows, standardised first,
// to a windows×28 matrix; it is the only reduction, and FeaturePipeline is
// its caller. The feature names (var(a), cov(a,b)) are exposed so the
// XGBoost feature-importance analysis of §IV-B can report them by name.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "preprocess/scaler.hpp"

namespace scwc::preprocess {

/// Number of upper-triangle entries for s sensors: s(s+1)/2.
constexpr std::size_t covariance_feature_count(std::size_t sensors) noexcept {
  return sensors * (sensors + 1) / 2;
}

/// The reduction, fused with the pipeline's standardise step per window:
/// each of `windows` (row-major steps×sensors, wherever it lives) is scaled
/// by scaler.transform_row() into a per-block scratch buffer and reduced
/// from there, so no packed or scaled copy of the batch is made. Each
/// feature is the scalar sum over steps 0..steps−1, in order from +0.0, of
/// scaled[t][i] × scaled[t][j]. Row i of the result belongs to windows[i];
/// a non-finite input throws scwc::Error naming trial i.
linalg::Matrix standardized_covariance_features(
    std::span<const std::span<const double>> windows, std::size_t steps,
    std::size_t sensors, const StandardScaler& scaler);

/// Human-readable name of covariance feature i for s sensors, e.g.
/// "var(utilization_gpu_pct)" or "cov(utilization_gpu_pct, power_draw_W)".
std::string covariance_feature_name(std::size_t index, std::size_t sensors);

/// The (row, col) sensor pair encoded by upper-triangle index i.
std::pair<std::size_t, std::size_t> covariance_feature_pair(
    std::size_t index, std::size_t sensors);

}  // namespace scwc::preprocess
