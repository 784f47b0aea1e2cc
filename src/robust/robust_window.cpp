#include "robust/robust_window.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/error.hpp"
#include "robust/repair_kernel.hpp"
#include "telemetry/architectures.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace scwc::robust {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

constexpr std::size_t kWord = 64;  ///< sensors per word of a row mask

std::size_t mask_words(std::size_t sensors) {
  return (sensors + kWord - 1) / kWord;
}

double prior_for(const ImputationConfig& config, std::size_t sensor) {
  if (sensor < config.sensor_prior_means.size()) {
    const double m = config.sensor_prior_means[sensor];
    if (std::isfinite(m)) return m;
  }
  return 0.0;
}

/// Bit k set ⇔ row[k] is non-finite, for the n ≤ 64 readings of `row`.
struct ScalarMask {
  std::uint64_t operator()(const double* row, std::size_t n) const noexcept {
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < n; ++k) {
      mask |= static_cast<std::uint64_t>(!std::isfinite(row[k])) << k;
    }
    return mask;
  }
};

#if defined(__x86_64__)
static_assert(telemetry::kNumGpuSensors == 7,
              "Avx2GpuMask is written for 7-sensor rows");

/// ScalarMask's bits for a 7-sensor row, from two overlapping four-lane
/// loads, row[0..3] and row[3..6]: a reading is non-finite exactly when
/// its magnitude (andpd with the sign bit cleared) is not ≤ DBL_MAX, NaN
/// included (cmp_nle is true on unordered); movmskpd packs the lanes.
struct Avx2GpuMask {
  [[gnu::target("avx2")]] std::uint64_t operator()(
      const double* row, std::size_t /*n == 7*/) const noexcept {
    const __m256d magnitude = _mm256_castsi256_pd(
        _mm256_set1_epi64x(std::numeric_limits<std::int64_t>::max()));
    const __m256d largest =
        _mm256_set1_pd(std::numeric_limits<double>::max());
    const __m256d lo = _mm256_cmp_pd(
        _mm256_and_pd(_mm256_loadu_pd(row), magnitude), largest, _CMP_NLE_UQ);
    const __m256d hi =
        _mm256_cmp_pd(_mm256_and_pd(_mm256_loadu_pd(row + 3), magnitude),
                      largest, _CMP_NLE_UQ);
    return static_cast<std::uint64_t>(_mm256_movemask_pd(lo)) |
           static_cast<std::uint64_t>(_mm256_movemask_pd(hi)) << 3;
  }
};
#endif

/// Index of the lowest set bit of a non-zero word.
std::size_t bit_index(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(std::countr_zero(word));
}

/// The one accounting pass over a row-major steps×sensors window. Counts
/// missing values, fully-missing steps and dead sensors into `report` and
/// reports every maximal run of non-finite readings of a sensor as
/// `on_gap(sensor, from, to)`: steps [from, to) are missing, step from − 1
/// (when from > 0) and step `to` (when to < steps) are originally finite.
/// A run is reported when its closing finite reading arrives, or after the
/// last row; `from == 0 && to == steps` is a dead sensor.
///
/// Each row is read as 64-sensor words of missing bits; only the bits that
/// differ from the open gaps' bits (`open`, one word per 64 sensors, all
/// zero on entry and again on return) cost more than the finiteness check,
/// so a row with nothing missing and no gap open costs just that check.
/// `gap_start` holds each open gap's first step. Every missing value lies
/// in exactly one run, so the runs' lengths sum to missing_values.
/// `sensors` is a std::size_t, or a std::integral_constant for a row width
/// known at compile time; `row_mask` is ScalarMask or a wider instance of it
/// for that width.
template <typename Width, typename RowMask, typename OnGap>
void walk_gaps(std::span<const double> window, std::size_t steps,
               Width sensors, RowMask row_mask,
               std::span<std::size_t> gap_start,
               std::span<std::uint64_t> open, QualityReport& report,
               const OnGap& on_gap) noexcept {
  // Counted in locals: `report` could alias `gap_start`.
  std::size_t missing_values = 0;
  std::size_t missing_steps = 0;
  std::size_t dead_sensors = steps == 0 ? sensors : 0;  // none has a sample
  const auto close = [&](std::size_t s, std::size_t to) {
    missing_values += to - gap_start[s];
    on_gap(s, gap_start[s], to);
  };
  for (std::size_t t = 0; t < steps; ++t) {
    const double* row = window.data() + t * sensors;
    bool all_missing = true;
    for (std::size_t w = 0, base = 0; base < sensors; ++w, base += kWord) {
      const std::size_t n = std::min(kWord, sensors - base);
      const std::uint64_t mask = row_mask(row + base, n);
      all_missing = all_missing && mask == (~std::uint64_t{0} >> (kWord - n));
      if (mask == open[w]) continue;  // no gap opens or closes here
      for (std::uint64_t opened = mask & ~open[w]; opened != 0;
           opened &= opened - 1) {
        gap_start[base + bit_index(opened)] = t;
      }
      for (std::uint64_t closed = open[w] & ~mask; closed != 0;
           closed &= closed - 1) {
        close(base + bit_index(closed), t);  // its finite reading arrived
      }
      open[w] = mask;
    }
    if (all_missing) ++missing_steps;
  }
  // Trailing gaps and dead sensors close after the last row.
  for (std::size_t w = 0, base = 0; base < sensors; ++w, base += kWord) {
    for (std::uint64_t left = open[w]; left != 0; left &= left - 1) {
      const std::size_t s = base + bit_index(left);
      if (gap_start[s] == 0) ++dead_sensors;
      close(s, steps);
    }
    open[w] = 0;
  }
  report.missing_values += missing_values;
  report.missing_steps += missing_steps;
  report.dead_sensors += dead_sensors;
}

}  // namespace

std::string imputation_name(Imputation policy) {
  switch (policy) {
    case Imputation::kForwardFill:
      return "ffill";
    case Imputation::kLinear:
      return "linear";
    case Imputation::kPriorMean:
      return "prior-mean";
  }
  return "?";
}

std::vector<double> sensor_prior_means(const data::Tensor3& x_train) {
  const std::size_t sensors = x_train.sensors();
  std::vector<double> sums(sensors, 0.0);
  std::vector<std::size_t> counts(sensors, 0);
  const std::span<const double> raw = x_train.raw();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double v = raw[i];
    if (!std::isfinite(v)) continue;
    const std::size_t s = i % sensors;
    sums[s] += v;
    ++counts[s];
  }
  std::vector<double> means(sensors, 0.0);
  for (std::size_t s = 0; s < sensors; ++s) {
    if (counts[s] > 0) means[s] = sums[s] / static_cast<double>(counts[s]);
  }
  return means;
}

QualityReport robust_extract_window(const telemetry::TimeSeries& series,
                                    std::size_t offset,
                                    std::size_t window_steps,
                                    std::span<double> dest) {
  const std::size_t sensors = series.sensors();
  SCWC_REQUIRE(dest.size() == window_steps * sensors,
               "robust window destination has the wrong size");
  QualityReport report;
  report.steps = window_steps;
  report.sensors = sensors;

  const std::size_t available =
      offset >= series.steps()
          ? 0
          : std::min(window_steps, series.steps() - offset);
  report.truncated_steps = window_steps - available;

  if (available > 0) {
    const double* src = series.values.data() + offset * sensors;
    std::copy(src, src + available * sensors, dest.begin());
  }
  std::fill(dest.begin() + static_cast<std::ptrdiff_t>(available * sensors),
            dest.end(), kNaN);

  std::vector<std::size_t> gap_start(sensors);
  std::vector<std::uint64_t> open(mask_words(sensors), 0);
  walk_gaps(dest, window_steps, sensors, ScalarMask{}, gap_start, open,
            report, [](std::size_t, std::size_t, std::size_t) {});
  return report;
}

WindowRepairer::WindowRepairer(std::size_t sensors,
                               const ImputationConfig& config)
    : policy_(config.policy),
      prior_(sensors),
      gap_start_(sensors),
      open_(mask_words(sensors), 0) {
  for (std::size_t s = 0; s < sensors; ++s) prior_[s] = prior_for(config, s);
}

template <typename Width, typename RowMask>
void WindowRepairer::repair(std::span<double> window, std::size_t steps,
                            Width sensors, RowMask row_mask,
                            QualityReport& report) noexcept {
  std::size_t repaired = 0;
  // Fills one gap of sensor s from its bounding *originally* finite
  // readings, with the same expressions as a column-by-column repair, so
  // the result does not depend on the order gaps are filled in.
  const auto fill = [&](std::size_t s, std::size_t from, std::size_t to) {
    double* col = window.data() + s;
    const auto at = [&](std::size_t u) -> double& { return col[u * sensors]; };
    repaired += to - from;
    double v = 0.0;
    if ((from == 0 && to == steps) || policy_ == Imputation::kPriorMean) {
      v = prior_[s];  // dead sensor, or the prior is the policy
    } else if (from == 0) {
      v = at(to);  // leading gap: backfill
    } else if (to == steps || policy_ == Imputation::kForwardFill) {
      v = at(from - 1);  // trailing gap, or forward-fill: hold
    } else {  // kLinear — interpolate between the bounding finite readings
      const std::size_t prev = from - 1;
      const double lo_v = at(prev);
      const double hi_v = at(to);
      for (std::size_t u = from; u < to; ++u) {
        const double frac = static_cast<double>(u - prev) /
                            static_cast<double>(to - prev);
        at(u) = lo_v + (hi_v - lo_v) * frac;
      }
      return;
    }
    for (std::size_t u = from; u < to; ++u) at(u) = v;
  };
  walk_gaps(window, steps, sensors, row_mask, gap_start_, open_, report,
            fill);
  report.repaired_values += repaired;
}

/// The instances of WindowRepairer::repair listed by repair_kernels().
struct RepairPass {
  /// The baseline instance: scalar finiteness tests, with the paper's
  /// 7-sensor rows in a pass compiled for their width.
  static void baseline(WindowRepairer& r, std::span<double> window,
                       std::size_t steps, QualityReport& report) noexcept {
    constexpr std::size_t kGpu = telemetry::kNumGpuSensors;
    if (r.prior_.size() == kGpu) {
      r.repair(window, steps, std::integral_constant<std::size_t, kGpu>{},
               ScalarMask{}, report);
    } else {
      r.repair(window, steps, r.prior_.size(), ScalarMask{}, report);
    }
  }

#if defined(__x86_64__)
  /// The 7-sensor pass with Avx2GpuMask, all of it compiled for AVX2 so
  /// the mask inlines into the row loop.
  [[gnu::target("avx2"), gnu::flatten]] static void gpu_avx2(
      WindowRepairer& r, std::span<double> window, std::size_t steps,
      QualityReport& report) noexcept {
    r.repair(window, steps,
             std::integral_constant<std::size_t, telemetry::kNumGpuSensors>{},
             Avx2GpuMask{}, report);
  }

  /// The AVX2 instance: other widths run the baseline.
  static void avx2(WindowRepairer& r, std::span<double> window,
                   std::size_t steps, QualityReport& report) noexcept {
    if (r.prior_.size() == telemetry::kNumGpuSensors) {
      gpu_avx2(r, window, steps, report);
    } else {
      baseline(r, window, steps, report);
    }
  }
#endif
};

std::span<const RepairKernel> repair_kernels() {
  // Probed on first use, never at namespace scope: a static initializer
  // could run before libgcc has read the CPU's feature bits.
  static const auto table = std::array{
#if defined(__x86_64__)
      RepairKernel{"avx2", &RepairPass::avx2,
                   __builtin_cpu_supports("avx2") != 0},
      RepairKernel{"sse2", &RepairPass::baseline, true},
#else
      RepairKernel{"baseline", &RepairPass::baseline, true},
#endif
  };
  return table;
}

const RepairKernel& best_repair_kernel() {
  static const RepairKernel& best =
      *std::ranges::find_if(repair_kernels(), &RepairKernel::supported);
  return best;
}

void WindowRepairer::account_and_repair(std::span<double> window,
                                        std::size_t steps,
                                        QualityReport& report) noexcept {
  best_repair_kernel().repair(*this, window, steps, report);
}

void impute_window(std::span<double> window, std::size_t steps,
                   std::size_t sensors, const ImputationConfig& config,
                   QualityReport& report) {
  SCWC_REQUIRE(window.size() == steps * sensors,
               "impute_window span/shape mismatch");
  QualityReport counts;
  WindowRepairer(sensors, config).account_and_repair(window, steps, counts);
  report.repaired_values += counts.repaired_values;
}

QualityReport robust_window(const telemetry::TimeSeries& series,
                            std::size_t offset, std::size_t window_steps,
                            const ImputationConfig& config,
                            std::span<double> dest) {
  QualityReport report =
      robust_extract_window(series, offset, window_steps, dest);
  impute_window(dest, window_steps, series.sensors(), config, report);
  return report;
}

}  // namespace scwc::robust
