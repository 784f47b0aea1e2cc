// GPU telemetry synthesiser.
//
// Produces the 7-sensor series of Table III for one GPU of one job,
// deterministic in (job seed, gpu index, sample rate). The generator is a
// small state machine — startup phase, then steady training with batch
// oscillation, epoch dips, dataloader stalls and a first-order thermal
// model — discretised at the requested sampling rate.
#pragma once

#include "linalg/matrix.hpp"
#include "telemetry/job.hpp"
#include "telemetry/signature.hpp"

namespace scwc::telemetry {

/// A sampled multi-sensor time series: `values` is T×S, row t holding all
/// sensors at time t / sample_hz.
struct TimeSeries {
  double sample_hz = 0.0;
  linalg::Matrix values;  ///< T × sensors

  [[nodiscard]] std::size_t steps() const noexcept { return values.rows(); }
  [[nodiscard]] std::size_t sensors() const noexcept { return values.cols(); }
  [[nodiscard]] double duration_s() const noexcept {
    return sample_hz > 0.0 ? static_cast<double>(steps()) / sample_hz : 0.0;
  }
};

/// Synthesises the full GPU series for `gpu_index` of `job`.
///
/// The per-job signature jitter is derived from job.seed alone, so every
/// GPU of one job shares the job's signature; per-GPU phase offsets and
/// noise streams come from (job.seed, gpu_index), making replicated series
/// correlated but not identical — exactly the structure the real dataset
/// has when a job's label is repeated across its GPUs.
TimeSeries synthesize_gpu_series(const JobSpec& job, int gpu_index,
                                 double sample_hz);

/// Number of samples in the full series of any GPU of `job` at
/// `sample_hz`: floor(duration_s × sample_hz). This is steps() of
/// synthesize_gpu_series, known without synthesising anything.
std::size_t gpu_series_steps(const JobSpec& job, double sample_hz);

/// The first min(max_steps, gpu_series_steps) samples of the full series,
/// bit for bit, without simulating the rest. The challenge builder cuts
/// every window from one of these, synthesised up to the end of the last
/// window it needs.
TimeSeries synthesize_gpu_series_prefix(const JobSpec& job, int gpu_index,
                                        double sample_hz,
                                        std::size_t max_steps);

}  // namespace scwc::telemetry
