#include "core/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "data/split.hpp"
#include "data/window.hpp"
#include "linalg/stats.hpp"
#include "preprocess/pipeline.hpp"
#include "preprocess/scaler.hpp"
#include "telemetry/cpu_synth.hpp"
#include "telemetry/gpu_synth.hpp"

namespace scwc::core {

namespace {

Rng fusion_window_rng(std::uint64_t config_seed, std::uint64_t job_seed,
                      int gpu) {
  return Rng(config_seed ^ (job_seed * 0xbf58476d1ce4e5b9ULL) ^
             static_cast<std::uint64_t>(gpu + 1));
}

}  // namespace

FusedDataset build_fused_dataset(const telemetry::Corpus& corpus,
                                 const ChallengeConfig& challenge,
                                 const FusionConfig& fusion) {
  const double window_s =
      static_cast<double>(challenge.window_steps) / challenge.sample_hz;
  const std::vector<telemetry::JobSpec> jobs = corpus.jobs_running_at_least(
      window_s + 1.0 / challenge.sample_hz);
  SCWC_REQUIRE(!jobs.empty(), "fusion: no jobs long enough for the window");

  std::vector<std::size_t> job_offsets;
  std::size_t total_trials = 0;
  for (const auto& job : jobs) {
    job_offsets.push_back(total_trials);
    total_trials += static_cast<std::size_t>(job.num_gpus);
  }

  const std::size_t gpu_sensor_count = telemetry::kNumGpuSensors;
  const std::size_t cpu_metric_count = telemetry::kNumCpuMetrics;
  data::Tensor3 gpu_windows(total_trials, challenge.window_steps,
                            gpu_sensor_count);
  linalg::Matrix cpu_stats(total_trials, 2 * cpu_metric_count);
  std::vector<int> labels(total_trials, 0);
  std::vector<std::int64_t> job_ids(total_trials, 0);

  parallel_for(
      0, jobs.size(),
      [&](std::size_t j) {
        const telemetry::JobSpec& job = jobs[j];
        for (int g = 0; g < job.num_gpus; ++g) {
          const std::size_t trial =
              job_offsets[j] + static_cast<std::size_t>(g);
          labels[trial] = job.class_id;
          job_ids[trial] = job.job_id;

          const telemetry::TimeSeries gpu_series =
              telemetry::synthesize_gpu_series(job, g, challenge.sample_hz);
          Rng rng = fusion_window_rng(challenge.seed, job.seed, g);
          const auto offset = data::choose_window_offset(
              gpu_series.steps(), challenge.window_steps, fusion.policy, rng);
          SCWC_CHECK(offset.has_value(), "fusion: series too short");
          data::extract_window(gpu_series, *offset, challenge.window_steps,
                               gpu_windows.trial(trial));

          // Matching host context: the node that carries this GPU.
          const int node = g / 2;
          const telemetry::TimeSeries cpu_series =
              telemetry::synthesize_cpu_series(job, node);
          const double t_lo = static_cast<double>(*offset) /
                                  challenge.sample_hz -
                              fusion.cpu_context_s / 2.0;
          const double t_hi = t_lo + window_s + fusion.cpu_context_s;
          const auto lo = static_cast<std::size_t>(std::max(
              0.0, t_lo * cpu_series.sample_hz));
          const auto hi = std::min<std::size_t>(
              cpu_series.steps(),
              static_cast<std::size_t>(
                  std::max(0.0, t_hi * cpu_series.sample_hz)) + 1);
          SCWC_CHECK(hi > lo, "fusion: empty CPU context window");

          auto stats_row = cpu_stats.row(trial);
          for (std::size_t m = 0; m < cpu_metric_count; ++m) {
            std::vector<double> column;
            column.reserve(hi - lo);
            for (std::size_t t = lo; t < hi; ++t) {
              column.push_back(cpu_series.values(t, m));
            }
            stats_row[2 * m] = linalg::mean(column);
            stats_row[2 * m + 1] = linalg::sample_stddev(column);
          }
        }
      },
      1);

  Rng split_rng(challenge.seed ^ 0xF0510ULL);
  const data::SplitIndices split = data::stratified_split(
      labels, job_ids, challenge.test_fraction, challenge.split_unit,
      split_rng);

  // GPU block: the §IV pipeline (scaler fit on train, covariance reduction).
  preprocess::FeaturePipeline gpu_pipeline(
      {preprocess::Reduction::kCovariance, 0});
  const linalg::Matrix gpu_train =
      gpu_pipeline.fit_transform(gpu_windows.gather(split.train));
  const linalg::Matrix gpu_test =
      gpu_pipeline.transform(gpu_windows.gather(split.test));

  // CPU block: summary statistics standardised on the training rows, each
  // row scaled straight into its columns of the fused matrix.
  const auto cpu_rows = [&cpu_stats](const std::vector<std::size_t>& rows) {
    std::vector<std::span<const double>> out;
    out.reserve(rows.size());
    for (const std::size_t r : rows) out.push_back(cpu_stats.row(r));
    return out;
  };
  preprocess::StandardScaler cpu_scaler;
  cpu_scaler.fit(cpu_rows(split.train));

  FusedDataset out;
  out.gpu_features = gpu_train.cols();
  out.cpu_features = cpu_stats.cols();
  const auto fuse = [&](const linalg::Matrix& gpu,
                        const std::vector<std::size_t>& rows) {
    linalg::Matrix m(rows.size(), out.gpu_features + out.cpu_features);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::span<double> dst = m.row(r);
      std::copy(gpu.row(r).begin(), gpu.row(r).end(), dst.begin());
      cpu_scaler.transform_row(cpu_stats.row(rows[r]),
                               dst.subspan(out.gpu_features));
    }
    return m;
  };
  out.x_train = fuse(gpu_train, split.train);
  out.x_test = fuse(gpu_test, split.test);
  out.y_train.reserve(split.train.size());
  out.y_test.reserve(split.test.size());
  for (const auto i : split.train) out.y_train.push_back(labels[i]);
  for (const auto i : split.test) out.y_test.push_back(labels[i]);
  return out;
}

}  // namespace scwc::core
