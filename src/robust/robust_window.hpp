// Gap-tolerant window extraction and imputation.
//
// The clean pipeline (data/window.hpp) assumes every series is complete and
// finite; this is the hardened counterpart for degraded feeds. It extracts
// a window even when the source series was truncated mid-job, records what
// was missing in a QualityReport, and repairs non-finite values with a
// configurable imputation policy. On a clean series the repaired window is
// bit-for-bit identical to data::extract_window's output.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/tensor3.hpp"
#include "robust/quality.hpp"
#include "telemetry/gpu_synth.hpp"

namespace scwc::robust {

/// How missing (non-finite) values are filled in.
enum class Imputation {
  kForwardFill,  ///< hold the last finite reading (leading gaps backfill)
  kLinear,       ///< linear interpolation between bounding finite readings
  kPriorMean,    ///< per-sensor mean of the training distribution
};

/// Human-readable policy name ("ffill", "linear", "prior-mean").
std::string imputation_name(Imputation policy);

/// Imputation policy plus the per-sensor class-prior means used as the last
/// resort when a sensor has no finite sample in the whole window (and as
/// the primary fill for kPriorMean). Empty means fall back to 0.
struct ImputationConfig {
  Imputation policy = Imputation::kLinear;
  std::vector<double> sensor_prior_means;
};

/// Per-sensor means over every step of every training trial — the
/// class-prior-weighted expectation of each sensor, used by kPriorMean and
/// as the dead-sensor fallback of all policies.
std::vector<double> sensor_prior_means(const data::Tensor3& x_train);

/// Copies `window_steps` rows starting at `offset` into `dest` (row-major
/// steps×sensors), tolerating a source series that ends early: absent tail
/// rows are written as NaN and recorded as truncated. Counts non-finite
/// values, fully-missing steps and dead sensors. Does not repair anything.
/// Requires dest.size() == window_steps * series.sensors() and offset within
/// the *requested* range (offset may exceed the series length entirely —
/// the whole window is then missing).
QualityReport robust_extract_window(const telemetry::TimeSeries& series,
                                    std::size_t offset,
                                    std::size_t window_steps,
                                    std::span<double> dest);

/// One-pass accounting and repair of row-major steps×sensors windows, in
/// place. One row-major walk counts what is missing and, per sensor, keeps
/// where its open gap started; the gap is filled when the sensor's next
/// finite reading arrives (trailing gaps and dead sensors after the last
/// row). Anchors are always *originally* finite readings, so the result is
/// the same as repairing each sensor column on its own. The per-sensor
/// scratch and resolved priors are sized once here, so repairing a batch
/// allocates nothing per window.
class WindowRepairer {
 public:
  WindowRepairer(std::size_t sensors, const ImputationConfig& config);

  /// Adds missing_values, missing_steps, dead_sensors and repaired_values
  /// of `window` to `report` and repairs it in place: afterwards it holds
  /// only finite values, and a window with nothing missing is untouched
  /// (bit-for-bit). Requires window.size() == steps * the constructor's
  /// sensor count. Runs the best instance of the pass this CPU supports
  /// (robust/repair_kernel.hpp); every instance gives the same bits.
  void account_and_repair(std::span<double> window, std::size_t steps,
                          QualityReport& report) noexcept;

 private:
  friend struct RepairPass;  ///< the instances (robust/repair_kernel.hpp)

  /// The pass for rows of `sensors` readings (a std::size_t, or a
  /// std::integral_constant when the width is fixed at compile time), with
  /// each row's missing bits from `row_mask`.
  template <typename Width, typename RowMask>
  void repair(std::span<double> window, std::size_t steps, Width sensors,
              RowMask row_mask, QualityReport& report) noexcept;

  Imputation policy_;
  std::vector<double> prior_;            ///< resolved fill prior per sensor
  std::vector<std::size_t> gap_start_;   ///< open gap's first step per sensor
  std::vector<std::uint64_t> open_;      ///< open-gap bits, 64 sensors a word
};

/// Repairs every non-finite value of a row-major steps×sensors window in
/// place and adds the repair count (only that) to `report`. After the call
/// the window contains only finite values. A window with no missing values
/// is left untouched (bit-for-bit). Sizes a WindowRepairer per call; repair
/// many windows through one WindowRepairer instead.
void impute_window(std::span<double> window, std::size_t steps,
                   std::size_t sensors, const ImputationConfig& config,
                   QualityReport& report);

/// Convenience: extract + impute in one call.
QualityReport robust_window(const telemetry::TimeSeries& series,
                            std::size_t offset, std::size_t window_steps,
                            const ImputationConfig& config,
                            std::span<double> dest);

}  // namespace scwc::robust
