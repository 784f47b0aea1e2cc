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
#include "preprocess/covariance_kernel.hpp"
#include "telemetry/architectures.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// The baseline instance, and every width's fallback: the scaler's own
/// transform_row into `scratch`, then the lane kernel over it.
void reduce_baseline(std::span<const double> window, std::size_t steps,
                     std::size_t sensors, const StandardScaler& scaler,
                     std::vector<double>& scratch, std::span<double> dest) {
  scratch.resize(window.size());
  scaler.transform_row(window, scratch);
  upper_triangle(scratch, steps, sensors, dest);
}

#if defined(__x86_64__)

static_assert(telemetry::kNumGpuSensors == 7,
              "reduce_gpu_avx2 is written for 7-sensor rows");

/// Lane k of v in every lane (vpermpd).
template <int kLane>
[[gnu::target("avx2"), gnu::always_inline]] inline __m256d broadcast(
    __m256d v) {
  return _mm256_permute4x64_pd(v, kLane * 0x55);
}

/// (v − m) / s per lane: StandardScaler::transform_row's arithmetic.
[[gnu::target("avx2"), gnu::always_inline]] inline __m256d standardise(
    __m256d v, __m256d m, __m256d s) {
  return _mm256_div_pd(_mm256_sub_pd(v, m), s);
}

/// acc += a · b per lane, rounded after the multiply and after the add.
[[gnu::target("avx2"), gnu::always_inline]] inline void add_product(
    __m256d& acc, __m256d a, __m256d b) {
  acc = _mm256_add_pd(acc, _mm256_mul_pd(a, b));
}

// The AVX2 instance for 7-sensor windows: the scale step folded into the
// covariance pass. Each row is standardised into two four-lane vectors that
// never leave registers, za = z[0..3] and zb = (z[4..6], 0), with the
// scaler's own arithmetic, (x − mean) / scale. The three tail loads are
// masked, so the last row reads nothing past the window, the means or the
// scales, and the pad lane computes (0 − 0) / 1. Each z_i is broadcast
// with vpermpd and multiplied into za and zb: 11 accumulators, lane j of
// row i's summing z_i·z_j over steps 0..steps−1 in order from +0.0 — the
// scalar pair loop, bit for bit. Storing z and reloading it as broadcasts
// stalls on store forwarding and measured slower than the baseline.
//
// The multiply and the add must stay two roundings: the target is AVX2
// alone, never FMA. InferenceOracle.LaneKernelNeverFusesMultiplyAdd pins
// it with a pair whose fused and unfused sums differ.
[[gnu::target("avx2")]] void reduce_gpu_avx2(const double* x,
                                             std::size_t steps,
                                             const double* means,
                                             const double* scales,
                                             double* dest) {
  const __m256i tail = _mm256_setr_epi64x(-1, -1, -1, 0);
  const __m256d pad_scale = _mm256_setr_pd(0.0, 0.0, 0.0, 1.0);
  __m256d a0 = _mm256_setzero_pd(), b0 = a0, a1 = a0, b1 = a0, a2 = a0,
          b2 = a0, a3 = a0, b3 = a0, c4 = a0, c5 = a0, c6 = a0;
  for (std::size_t at = 0; at < steps * 7; at += 7) {
    const __m256d za = standardise(_mm256_loadu_pd(x + at),
                                   _mm256_loadu_pd(means + at),
                                   _mm256_loadu_pd(scales + at));
    const __m256d zb = standardise(
        _mm256_maskload_pd(x + at + 4, tail),
        _mm256_maskload_pd(means + at + 4, tail),
        _mm256_or_pd(_mm256_maskload_pd(scales + at + 4, tail), pad_scale));
    const __m256d z0 = broadcast<0>(za);
    add_product(a0, z0, za);
    add_product(b0, z0, zb);
    const __m256d z1 = broadcast<1>(za);
    add_product(a1, z1, za);
    add_product(b1, z1, zb);
    const __m256d z2 = broadcast<2>(za);
    add_product(a2, z2, za);
    add_product(b2, z2, zb);
    const __m256d z3 = broadcast<3>(za);
    add_product(a3, z3, za);
    add_product(b3, z3, zb);
    add_product(c4, broadcast<0>(zb), zb);
    add_product(c5, broadcast<1>(zb), zb);
    add_product(c6, broadcast<2>(zb), zb);
  }
  // Row i of the triangle is lanes i..3 of a_i then lanes 0..2 of b_i, or
  // lanes i−4..2 of c_i.
  alignas(32) double lanes[11][4];
  const __m256d rows[11] = {a0, b0, a1, b1, a2, b2, a3, b3, c4, c5, c6};
  for (std::size_t r = 0; r < 11; ++r) _mm256_store_pd(lanes[r], rows[r]);
  std::size_t k = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = i; j < 7; ++j) {
      dest[k++] = i < 4 ? lanes[2 * i + j / 4][j % 4] : lanes[4 + i][j - 4];
    }
  }
}

void reduce_avx2(std::span<const double> window, std::size_t steps,
                 std::size_t sensors, const StandardScaler& scaler,
                 std::vector<double>& scratch, std::span<double> dest) {
  if (sensors == telemetry::kNumGpuSensors) {
    reduce_gpu_avx2(window.data(), steps, scaler.means().data(),
                    scaler.scales().data(), dest.data());
  } else {
    reduce_baseline(window, steps, sensors, scaler, scratch, dest);
  }
}

#endif

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

std::span<const CovarianceKernel> covariance_kernels() {
  // Probed on first use, never at namespace scope: a static initializer
  // could run before libgcc has read the CPU's feature bits.
  static const auto table = std::array{
#if defined(__x86_64__)
      CovarianceKernel{"avx2", &reduce_avx2,
                       __builtin_cpu_supports("avx2") != 0},
      CovarianceKernel{"sse2", &reduce_baseline, true},
#else
      CovarianceKernel{"baseline", &reduce_baseline, true},
#endif
  };
  return table;
}

const CovarianceKernel& best_covariance_kernel() {
  static const CovarianceKernel& best = *std::ranges::find_if(
      covariance_kernels(), &CovarianceKernel::supported);
  return best;
}

linalg::Matrix standardized_covariance_features(
    const CovarianceKernel& kernel,
    std::span<const std::span<const double>> windows, std::size_t steps,
    std::size_t sensors, const StandardScaler& scaler) {
  const std::size_t width = steps * sensors;
  SCWC_REQUIRE(kernel.supported, std::string("covariance kernel ") +
                                     kernel.name + " needs a newer CPU");
  SCWC_REQUIRE(scaler.fitted() && scaler.means().size() == width,
               "scaler width must be steps*sensors");
  for (const std::span<const double> window : windows) {
    SCWC_REQUIRE(window.size() == width, "window width must be steps*sensors");
  }
  linalg::Matrix out(windows.size(), covariance_feature_count(sensors));
  parallel_for_blocked(
      0, windows.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          kernel.reduce(windows[i], steps, sensors, scaler, scratch,
                        out.row(i));
          require_finite_features(out.row(i), i);
        }
      },
      32);
  return out;
}

linalg::Matrix standardized_covariance_features(
    std::span<const std::span<const double>> windows, std::size_t steps,
    std::size_t sensors, const StandardScaler& scaler) {
  return standardized_covariance_features(best_covariance_kernel(), windows,
                                          steps, sensors, scaler);
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
