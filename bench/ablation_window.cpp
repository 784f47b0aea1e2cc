// Ablation A2 — window placement sweep.
//
// The paper observes that start windows are the hardest ("the compute
// occurring at this time is not necessarily correlated uniquely with the
// specific neural network model"). This bench sweeps the window offset as a
// fraction of each job's duration and traces RF-cov accuracy, exposing the
// accuracy ramp out of the generic startup phase.
#include <iostream>

#include "common/env.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "data/split.hpp"
#include "data/window.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/corpus.hpp"
#include "telemetry/gpu_synth.hpp"

int main() {
  using namespace scwc;

  const ScaleProfile profile = ScaleProfile::from_env("tiny");
  core::print_profile_banner(std::cout, profile,
                             "A2 — window-placement sweep");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  const core::ChallengeConfig config =
      core::ChallengeConfig::from_profile(profile);

  const double window_s =
      static_cast<double>(config.window_steps) / config.sample_hz;
  const std::vector<telemetry::JobSpec> jobs =
      corpus.jobs_running_at_least(window_s + 1.0 / config.sample_hz);

  // Trial bookkeeping (same layout as the challenge builder).
  std::vector<std::size_t> offsets;
  std::size_t total_trials = 0;
  for (const auto& job : jobs) {
    offsets.push_back(total_trials);
    total_trials += static_cast<std::size_t>(job.num_gpus);
  }

  const std::vector<double> fractions{0.0,  0.1, 0.2, 0.3, 0.4,
                                      0.5,  0.6, 0.7, 0.8, 0.9};

  TextTable table("RF-cov accuracy by window offset (fraction of job)");
  table.set_header({"Offset fraction", "Test acc (%)"});

  for (const double frac : fractions) {
    data::Tensor3 x(total_trials, config.window_steps,
                    telemetry::kNumGpuSensors);
    std::vector<int> labels(total_trials, 0);
    std::vector<std::int64_t> job_ids(total_trials, 0);
    parallel_for(
        0, jobs.size(),
        [&](std::size_t j) {
          const auto& job = jobs[j];
          for (int g = 0; g < job.num_gpus; ++g) {
            const std::size_t trial =
                offsets[j] + static_cast<std::size_t>(g);
            labels[trial] = job.class_id;
            job_ids[trial] = job.job_id;
            const telemetry::TimeSeries series =
                telemetry::synthesize_gpu_series(job, g, config.sample_hz);
            const std::size_t slack =
                series.steps() - config.window_steps;
            const auto offset = static_cast<std::size_t>(
                frac * static_cast<double>(slack));
            data::extract_window(series, offset, config.window_steps,
                                 x.trial(trial));
          }
        },
        1);

    Rng split_rng(config.seed + static_cast<std::uint64_t>(frac * 1000));
    const data::SplitIndices split = data::stratified_split(
        labels, job_ids, 0.2, data::SplitUnit::kTrial, split_rng);

    data::ChallengeDataset ds;
    ds.x_train = x.gather(split.train);
    ds.x_test = x.gather(split.test);
    std::vector<int> y_train;
    std::vector<int> y_test;
    for (const auto i : split.train) y_train.push_back(labels[i]);
    for (const auto i : split.test) y_test.push_back(labels[i]);

    preprocess::FeaturePipeline pipeline(
        {preprocess::Reduction::kCovariance, 0});
    const linalg::Matrix train = pipeline.fit_transform(ds.x_train);
    const linalg::Matrix test = pipeline.transform(ds.x_test);
    ml::RandomForestConfig forest_config;
    forest_config.n_estimators = 100;
    ml::RandomForest forest(forest_config);
    forest.fit(train, y_train);
    const double acc = ml::accuracy(y_test, forest.predict(test));
    table.add_row({format_fixed(frac, 1), format_fixed(acc * 100.0, 2)});
  }
  std::cout << table;
  std::cout << "expected shape: lowest accuracy at offset 0.0 (startup "
               "phase), roughly flat afterwards — the mechanism behind the "
               "paper's start-vs-middle gap.\n";
  return 0;
}
