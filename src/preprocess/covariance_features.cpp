#include "preprocess/covariance_features.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::preprocess {

namespace {

// Upper triangle of (steps×sensors)ᵀ(steps×sensors) from a contiguous
// row-major trial block.
void reduce_block(std::span<const double> trial, std::size_t steps,
                  std::size_t sensors, std::span<double> dest) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < sensors; ++i) {
    for (std::size_t j = i; j < sensors; ++j) {
      double s = 0.0;
      const double* p = trial.data();
      for (std::size_t t = 0; t < steps; ++t, p += sensors) {
        s += p[i] * p[j];
      }
      dest[k++] = s;
    }
  }
}

// NaN/Inf anywhere in a trial propagates into its covariance sums, so this
// O(sensors²) scan of the 28-dim output detects non-finite *input* at a
// fraction of the reduction's own cost — and stops it from flowing into the
// classifiers as silently-poisoned features.
void require_finite_features(std::span<const double> dest,
                             std::size_t trial) {
  for (const double v : dest) {
    SCWC_REQUIRE(std::isfinite(v),
                 "covariance features: non-finite result for trial " +
                     std::to_string(trial) +
                     " — input window contains NaN/Inf (impute first, see "
                     "robust/robust_window.hpp)");
  }
}

}  // namespace

void covariance_features_of_trial(const linalg::Matrix& trial,
                                  std::span<double> dest) {
  const std::size_t sensors = trial.cols();
  SCWC_REQUIRE(dest.size() == covariance_feature_count(sensors),
               "covariance feature destination has the wrong size");
  reduce_block(trial.flat(), trial.rows(), sensors, dest);
  require_finite_features(dest, 0);
}

linalg::Matrix covariance_features(const data::Tensor3& x) {
  const std::size_t features = covariance_feature_count(x.sensors());
  linalg::Matrix out(x.trials(), features);
  parallel_for_blocked(
      0, x.trials(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          reduce_block(x.trial(i), x.steps(), x.sensors(), out.row(i));
          require_finite_features(out.row(i), i);
        }
      },
      32);
  return out;
}

linalg::Matrix covariance_features_flat(const linalg::Matrix& flat,
                                        std::size_t steps,
                                        std::size_t sensors) {
  SCWC_REQUIRE(flat.cols() == steps * sensors,
               "flattened width must be steps*sensors");
  const std::size_t features = covariance_feature_count(sensors);
  linalg::Matrix out(flat.rows(), features);
  parallel_for_blocked(
      0, flat.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          reduce_block(flat.row(i), steps, sensors, out.row(i));
          require_finite_features(out.row(i), i);
        }
      },
      32);
  return out;
}

linalg::Matrix standardized_covariance_features(const data::Tensor3& x,
                                                const StandardScaler& scaler) {
  const std::size_t width = x.steps() * x.sensors();
  SCWC_REQUIRE(scaler.fitted() && scaler.means().size() == width,
               "scaler width must be steps*sensors");
  linalg::Matrix out(x.trials(), covariance_feature_count(x.sensors()));
  parallel_for_blocked(
      0, x.trials(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> scaled(width);
        for (std::size_t i = lo; i < hi; ++i) {
          scaler.transform_row(x.trial(i), scaled);
          reduce_block(scaled, x.steps(), x.sensors(), out.row(i));
          require_finite_features(out.row(i), i);
        }
      },
      32);
  return out;
}

std::pair<std::size_t, std::size_t> covariance_feature_pair(
    std::size_t index, std::size_t sensors) {
  SCWC_REQUIRE(index < covariance_feature_count(sensors),
               "covariance feature index out of range");
  std::size_t k = 0;
  for (std::size_t i = 0; i < sensors; ++i) {
    for (std::size_t j = i; j < sensors; ++j) {
      if (k == index) return {i, j};
      ++k;
    }
  }
  SCWC_FAIL("unreachable");
}

std::string covariance_feature_name(std::size_t index, std::size_t sensors) {
  const auto [i, j] = covariance_feature_pair(index, sensors);
  std::ostringstream os;
  if (i == j) {
    os << "var(" << telemetry::gpu_sensor_name(i) << ")";
  } else {
    os << "cov(" << telemetry::gpu_sensor_name(i) << ", "
       << telemetry::gpu_sensor_name(j) << ")";
  }
  return os.str();
}

}  // namespace scwc::preprocess
