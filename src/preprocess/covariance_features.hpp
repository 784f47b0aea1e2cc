// Covariance dimensionality reduction — the paper's second arm.
//
// "given a single trial M ∈ R^{540×7} … we computed the covariance matrix
//  with respect to the seven sensors, MᵀM ∈ R^{7×7}. As MᵀM is symmetric,
//  we further reduced the dimensions of each trial by taking the upper
//  triangular portion … stacked into a single row vector in R^28."
//
// The transform maps a (trials, steps, sensors) tensor to a trials×28
// matrix. The feature names (var(a), cov(a,b)) are exposed so the XGBoost
// feature-importance analysis of §IV-B can report them by name.
#pragma once

#include <string>
#include <vector>

#include "data/tensor3.hpp"
#include "linalg/matrix.hpp"
#include "preprocess/scaler.hpp"

namespace scwc::preprocess {

/// Number of upper-triangle entries for s sensors: s(s+1)/2.
constexpr std::size_t covariance_feature_count(std::size_t sensors) noexcept {
  return sensors * (sensors + 1) / 2;
}

/// Computes MᵀM for one trial matrix (steps × sensors) and flattens the
/// upper triangle row-wise into `dest` (size sensors(sensors+1)/2).
void covariance_features_of_trial(const linalg::Matrix& trial,
                                  std::span<double> dest);

/// Applies the reduction to every trial of a tensor → trials×28 (for 7
/// sensors). Trials are processed in parallel.
linalg::Matrix covariance_features(const data::Tensor3& x);

/// Same, but starting from an already-flattened trials×(steps·sensors)
/// matrix (the pipeline standardises in flattened form first).
linalg::Matrix covariance_features_flat(const linalg::Matrix& flat,
                                        std::size_t steps,
                                        std::size_t sensors);

/// The pipeline's standardise → covariance step fused per trial: each
/// trial is scaled by `scaler` into a per-block scratch buffer and reduced
/// from there, so no flattened or scaled copy of the batch is made. Same
/// formula and summation order as covariance_features_flat(
/// scaler.transform(x.flatten()), …), hence bit-identical features.
linalg::Matrix standardized_covariance_features(const data::Tensor3& x,
                                                const StandardScaler& scaler);

/// Human-readable name of covariance feature i for s sensors, e.g.
/// "var(utilization_gpu_pct)" or "cov(utilization_gpu_pct, power_draw_W)".
std::string covariance_feature_name(std::size_t index, std::size_t sensors);

/// The (row, col) sensor pair encoded by upper-triangle index i.
std::pair<std::size_t, std::size_t> covariance_feature_pair(
    std::size_t index, std::size_t sensors);

}  // namespace scwc::preprocess
