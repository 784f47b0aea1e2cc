#include "preprocess/covariance_features.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::preprocess {

namespace {

// The lane kernel. MᵀM's upper-triangle pairs (i ≤ j, in row-major
// triangle order) are summed two at a time in GNU two-lane double vectors —
// plain SSE2, no FMA. A pass holds kVectors accumulators, one per two
// consecutive pairs, and walks every row of the window once; a 7-sensor
// window's 28 pairs take two passes of 14, and the 7 accumulators of a pass
// stay in registers. Each lane adds its own pair's products over steps
// 0..steps−1 in order, starting from +0.0, which is exactly the scalar
// `s += row[i] * row[j]` loop per pair: the features are bit-identical to it.
using Lanes = double __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kLanes = 2;
constexpr std::size_t kVectors = 7;
constexpr std::size_t kPairsPerPass = kLanes * kVectors;

/// The pairs of one pass: lane l of accumulator v sums row[i[2v + l]] ×
/// row[j[2v + l]]. A partial last pass pads with the pair (0, 0), whose
/// sums are computed and never stored.
struct PassPairs {
  std::array<std::size_t, kPairsPerPass> i{};
  std::array<std::size_t, kPairsPerPass> j{};
};

/// Walks the upper triangle in row-major order, one pass at a time.
struct PairCursor {
  std::size_t sensors;
  std::size_t i = 0;
  std::size_t j = 0;

  constexpr PassPairs next() {
    PassPairs out;
    for (std::size_t k = 0; k < kPairsPerPass && i < sensors; ++k) {
      out.i[k] = i;
      out.j[k] = j;
      if (++j == sensors) j = ++i;
    }
    return out;
  }
};

/// Every pass of a width known at compile time, as constants.
template <std::size_t kSensors>
constexpr auto kPassTable = [] {
  constexpr std::size_t pairs = covariance_feature_count(kSensors);
  std::array<PassPairs, (pairs + kPairsPerPass - 1) / kPairsPerPass> out{};
  PairCursor cursor{kSensors};
  for (PassPairs& pass : out) pass = cursor.next();
  return out;
}();

/// One pass over the rows of a row-major block; writes the pass's first
/// `count` pairs to dest. Inlined, so pairs from kPassTable fold into fixed
/// row offsets; the accumulators are only ever indexed by constants, so
/// they stay in registers for either kind of width.
template <typename Width, std::size_t... V>
[[gnu::always_inline]] inline void lane_pass(const double* block,
                                             std::size_t steps, Width sensors,
                                             const PassPairs& pairs,
                                             double* dest, std::size_t count,
                                             std::index_sequence<V...>) {
  Lanes acc[kVectors] = {};
  for (std::size_t t = 0; t < steps; ++t) {
    const double* row = block + t * sensors;
    const auto add = [&](Lanes& sum, std::size_t k) {
      const Lanes a{row[pairs.i[k]], row[pairs.i[k + 1]]};
      const Lanes b{row[pairs.j[k]], row[pairs.j[k + 1]]};
      sum += a * b;
    };
    (add(acc[V], kLanes * V), ...);
  }
  const auto store = [&](std::size_t k, double sum) {
    if (k < count) dest[k] = sum;
  };
  (store(kLanes * V, acc[V][0]), ...);
  (store(kLanes * V + 1, acc[V][1]), ...);
}

/// Upper triangle of (steps×sensors)ᵀ(steps×sensors) from a contiguous
/// row-major block into dest (covariance_feature_count(sensors) wide).
/// `sensors` is a std::size_t, or a std::integral_constant for a width
/// known at compile time.
template <typename Width>
void reduce_lanes(const double* block, std::size_t steps, Width sensors,
                  double* dest) {
  constexpr auto vectors = std::make_index_sequence<kVectors>{};
  const std::size_t pairs = covariance_feature_count(sensors);
  if constexpr (std::is_same_v<Width, std::size_t>) {
    PairCursor cursor{sensors};
    for (std::size_t first = 0; first < pairs; first += kPairsPerPass) {
      lane_pass(block, steps, sensors, cursor.next(), dest + first,
                std::min(kPairsPerPass, pairs - first), vectors);
    }
  } else {
    constexpr auto& table = kPassTable<Width::value>;
    [&]<std::size_t... P>(std::index_sequence<P...>) {
      (lane_pass(block, steps, sensors, table[P], dest + P * kPairsPerPass,
                 std::min(kPairsPerPass, pairs - P * kPairsPerPass), vectors),
       ...);
    }(std::make_index_sequence<table.size()>{});
  }
}

/// The lane kernel for any width; the paper's 7-sensor windows run a copy
/// compiled for theirs.
void upper_triangle(std::span<const double> block, std::size_t steps,
                    std::size_t sensors, std::span<double> dest) {
  constexpr std::size_t kGpu = telemetry::kNumGpuSensors;
  if (sensors == kGpu) {
    reduce_lanes(block.data(), steps,
                 std::integral_constant<std::size_t, kGpu>{}, dest.data());
  } else {
    reduce_lanes(block.data(), steps, sensors, dest.data());
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

linalg::Matrix standardized_covariance_features(
    std::span<const std::span<const double>> windows, std::size_t steps,
    std::size_t sensors, const StandardScaler& scaler) {
  const std::size_t width = steps * sensors;
  SCWC_REQUIRE(scaler.fitted() && scaler.means().size() == width,
               "scaler width must be steps*sensors");
  for (const std::span<const double> window : windows) {
    SCWC_REQUIRE(window.size() == width, "window width must be steps*sensors");
  }
  linalg::Matrix out(windows.size(), covariance_feature_count(sensors));
  parallel_for_blocked(
      0, windows.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> scaled(width);
        for (std::size_t i = lo; i < hi; ++i) {
          scaler.transform_row(windows[i], scaled);
          upper_triangle(scaled, steps, sensors, out.row(i));
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
