// The instances of the per-window standardise-and-reduce step behind
// standardized_covariance_features, for the oracle and the micro-benchmarks.
// Serving goes through the public entry point, which runs the best instance
// this CPU supports; tests run every instance and compare them bit for bit
// with the pair-by-pair reference.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "preprocess/scaler.hpp"

namespace scwc::preprocess {

/// One compiled instance. `reduce` standardises one row-major steps×sensors
/// window with `scaler` and writes its covariance_feature_count(sensors)
/// upper-triangle sums to `dest`; `scratch` is a per-thread buffer it may
/// resize. Only the 7-sensor width differs between instances: every other
/// width runs the baseline code whichever instance is asked.
struct CovarianceKernel {
  const char* name;  ///< the ISA it was compiled for: "avx2", "sse2"
  void (*reduce)(std::span<const double> window, std::size_t steps,
                 std::size_t sensors, const StandardScaler& scaler,
                 std::vector<double>& scratch, std::span<double> dest);
  bool supported;  ///< this CPU can run it
};

/// Every instance built into this binary, best first. The last is the
/// baseline, which every CPU supports.
std::span<const CovarianceKernel> covariance_kernels();

/// The first supported entry of covariance_kernels(), chosen on first use.
const CovarianceKernel& best_covariance_kernel();

/// standardized_covariance_features through `kernel`, which must be
/// supported.
linalg::Matrix standardized_covariance_features(
    const CovarianceKernel& kernel,
    std::span<const std::span<const double>> windows, std::size_t steps,
    std::size_t sensors, const StandardScaler& scaler);

}  // namespace scwc::preprocess
