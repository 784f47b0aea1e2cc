#include "core/challenge.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "data/window.hpp"
#include "telemetry/architectures.hpp"
#include "telemetry/gpu_synth.hpp"
#include "obs/trace.hpp"

namespace scwc::core {

namespace {

using data::WindowPolicy;

/// One dataset to cut: its Table-IV name, policy, the index of the random
/// draw and the salt of its train/test split.
struct WindowSpec {
  std::string name;
  WindowPolicy policy;
  std::size_t random_index;
  std::uint64_t split_salt;
};

/// Table-IV order: start, middle, random 1..random_draws. A spec's split
/// salt is its position in this list plus one.
std::vector<WindowSpec> window_specs(std::size_t random_draws) {
  std::vector<WindowSpec> specs;
  specs.push_back({"60-start-1", WindowPolicy::kStart, 0, 1});
  specs.push_back({"60-middle-1", WindowPolicy::kMiddle, 0, 2});
  for (std::size_t r = 0; r < random_draws; ++r) {
    specs.push_back({"60-random-" + std::to_string(r + 1),
                     WindowPolicy::kRandom, r, 3 + r});
  }
  return specs;
}

/// Deterministic per-trial RNG for the random-window draws.
Rng window_rng(std::uint64_t config_seed, std::size_t random_index,
               std::uint64_t job_seed, int gpu) {
  return Rng(config_seed ^ (0x9e3779b97f4a7c15ULL * (random_index + 1)) ^
             (job_seed * 0xbf58476d1ce4e5b9ULL) ^
             static_cast<std::uint64_t>(gpu + 1));
}

std::vector<telemetry::JobSpec> eligible_jobs(const telemetry::Corpus& corpus,
                                              const ChallengeConfig& config) {
  const double window_s =
      static_cast<double>(config.window_steps) / config.sample_hz;
  std::vector<telemetry::JobSpec> jobs =
      corpus.jobs_running_at_least(window_s + 1.0 / config.sample_hz);
  if (config.max_jobs > 0 && jobs.size() > config.max_jobs) {
    // Uniform thinning preserves the class mix without a reshuffle.
    std::vector<telemetry::JobSpec> kept;
    kept.reserve(config.max_jobs);
    const double stride = static_cast<double>(jobs.size()) /
                          static_cast<double>(config.max_jobs);
    for (std::size_t k = 0; k < config.max_jobs; ++k) {
      kept.push_back(jobs[static_cast<std::size_t>(
          std::floor(static_cast<double>(k) * stride))]);
    }
    jobs = std::move(kept);
  }
  return jobs;
}

/// Builds one dataset per spec. Labels and job ids come from the job list,
/// so every split is drawn before any sample exists. Each GPU series is
/// then synthesised once, only up to the end of the latest window any spec
/// cuts from it, and each window is copied straight into its train or test
/// row.
std::vector<data::ChallengeDataset> build_datasets(
    const telemetry::Corpus& corpus, const ChallengeConfig& config,
    const std::vector<WindowSpec>& specs) {
  const std::vector<telemetry::JobSpec> jobs = eligible_jobs(corpus, config);
  SCWC_REQUIRE(!jobs.empty(), "no jobs long enough for the window");
  // Trials are GPU series, job by job: trial job_offset[j] + g is GPU g.
  std::vector<std::size_t> job_offset;
  std::vector<int> labels;
  std::vector<std::int64_t> job_ids;
  job_offset.reserve(jobs.size());
  for (const auto& job : jobs) {
    job_offset.push_back(labels.size());
    const auto gpus = static_cast<std::size_t>(job.num_gpus);
    labels.insert(labels.end(), gpus, job.class_id);
    job_ids.insert(job_ids.end(), gpus, job.job_id);
  }
  const std::size_t trials = labels.size();
  const std::size_t sensors = telemetry::kNumGpuSensors;
  SCWC_LOG_INFO("challenge builder: " << jobs.size() << " jobs, " << trials
                                      << " GPU trials, " << specs.size()
                                      << " datasets");

  std::vector<data::ChallengeDataset> datasets(specs.size());
  // rows[s][trial]: the train or test row that takes spec s's window.
  std::vector<std::vector<std::span<double>>> rows(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    Rng split_rng(config.seed ^
                  (specs[s].split_salt * 0x94d049bb133111ebULL));
    const data::SplitIndices split = data::stratified_split(
        labels, job_ids, config.test_fraction, config.split_unit, split_rng);
    data::ChallengeDataset& ds = datasets[s];
    ds.name = specs[s].name;
    ds.policy = specs[s].policy;
    rows[s].resize(trials);
    const auto fill = [&](const std::vector<std::size_t>& side,
                          data::Tensor3& x, std::vector<int>& y,
                          std::vector<std::string>& models,
                          std::vector<std::int64_t>& side_jobs) {
      x = data::Tensor3(side.size(), config.window_steps, sensors);
      y.reserve(side.size());
      models.reserve(side.size());
      side_jobs.reserve(side.size());
      for (std::size_t k = 0; k < side.size(); ++k) {
        const std::size_t trial = side[k];
        rows[s][trial] = x.trial(k);
        y.push_back(labels[trial]);
        models.push_back(telemetry::architecture(labels[trial]).name);
        side_jobs.push_back(job_ids[trial]);
      }
    };
    fill(split.train, ds.x_train, ds.y_train, ds.model_train, ds.job_train);
    fill(split.test, ds.x_test, ds.y_test, ds.model_test, ds.job_test);
  }

  parallel_for(
      0, jobs.size(),
      [&](std::size_t j) {
        const telemetry::JobSpec& job = jobs[j];
        const std::size_t series_steps =
            telemetry::gpu_series_steps(job, config.sample_hz);
        std::vector<std::size_t> offsets(specs.size());
        for (int g = 0; g < job.num_gpus; ++g) {
          std::size_t end = 0;
          for (std::size_t s = 0; s < specs.size(); ++s) {
            Rng rng = window_rng(config.seed, specs[s].random_index, job.seed,
                                 g);
            const auto offset = data::choose_window_offset(
                series_steps, config.window_steps, specs[s].policy, rng);
            SCWC_CHECK(offset.has_value(),
                       "eligible job produced a too-short series");
            offsets[s] = *offset;
            end = std::max(end, *offset + config.window_steps);
          }
          const telemetry::TimeSeries series =
              telemetry::synthesize_gpu_series_prefix(job, g, config.sample_hz,
                                                      end);
          const std::size_t trial =
              job_offset[j] + static_cast<std::size_t>(g);
          for (std::size_t s = 0; s < specs.size(); ++s) {
            data::extract_window(series, offsets[s], config.window_steps,
                                 rows[s][trial]);
          }
        }
      },
      1);

  for (const auto& ds : datasets) ds.validate();
  return datasets;
}

}  // namespace

std::vector<std::string> challenge_dataset_names() {
  std::vector<std::string> names;
  for (const auto& spec : window_specs(5)) names.push_back(spec.name);
  return names;
}

ChallengeConfig ChallengeConfig::from_profile(const ScaleProfile& profile,
                                              std::uint64_t seed) {
  ChallengeConfig cfg;
  cfg.window_steps = profile.window_steps;
  cfg.sample_hz = profile.sample_hz;
  cfg.seed = seed;
  return cfg;
}

std::vector<data::ChallengeDataset> build_challenge_datasets(
    const telemetry::Corpus& corpus, const ChallengeConfig& config) {
  return build_datasets(corpus, config, window_specs(config.random_draws));
}

data::ChallengeDataset build_challenge_dataset(const telemetry::Corpus& corpus,
                                               const ChallengeConfig& config,
                                               data::WindowPolicy policy,
                                               std::size_t random_index) {
  const obs::TraceSpan span("core.build_challenge_dataset");
  // The spec this policy has in the Table-IV list that runs up to this
  // random draw, so the name and split salt come from one formula.
  const std::vector<WindowSpec> specs = window_specs(random_index + 1);
  const WindowSpec& spec = policy == WindowPolicy::kStart    ? specs.front()
                           : policy == WindowPolicy::kMiddle ? specs[1]
                                                             : specs.back();
  return std::move(build_datasets(corpus, config, {spec}).front());
}

}  // namespace scwc::core
