// Quickstart: the whole pipeline in ~60 lines.
//
// Generates a small labelled corpus with the telemetry simulator, builds
// the 60-middle-1 challenge dataset, trains the paper's strongest baseline
// (random forest on covariance features) and reports test accuracy with a
// per-family breakdown.
//
//   ./quickstart [--scale tiny|small|full] [--seed N]
#include <iostream>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "ml/random_forest.hpp"
#include "core/baselines.hpp"
#include "core/challenge.hpp"
#include "ml/metrics.hpp"
#include "telemetry/architectures.hpp"
#include "telemetry/corpus.hpp"

int main(int argc, char** argv) {
  using namespace scwc;

  CliParser cli("SCWC quickstart: simulate → build dataset → classify.");
  cli.add_flag("scale", "tiny", "scale profile: tiny|small|full");
  cli.add_flag("seed", "2022", "corpus generation seed");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const ScaleProfile profile = ScaleProfile::named(cli.get_string("scale"));
  std::cout << "1) generating labelled corpus (profile " << profile.name
            << ")...\n";
  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  corpus_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  std::cout << "   " << corpus.size() << " jobs, "
            << corpus.total_gpu_series() << " GPU series across "
            << telemetry::kNumClasses << " classes\n";

  std::cout << "2) building the 60-middle-1 challenge dataset...\n";
  const core::ChallengeConfig challenge_config =
      core::ChallengeConfig::from_profile(profile);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, challenge_config, data::WindowPolicy::kMiddle);
  std::cout << "   train " << ds.train_trials() << " / test "
            << ds.test_trials() << " trials of " << ds.steps() << "x"
            << ds.sensors() << '\n';

  std::cout << "3) training RF on covariance features (the paper's best "
               "baseline)...\n";
  core::ClassicalConfig config = core::ClassicalConfig::from_profile(
      profile, core::ClassicalModel::kRandomForest,
      preprocess::Reduction::kCovariance);
  const core::ClassicalOutcome outcome =
      core::run_classical_experiment(ds, config);
  std::cout << "   test accuracy: " << outcome.test_accuracy * 100.0
            << "% (best " << outcome.best_params << ", CV "
            << outcome.cv_accuracy * 100.0 << "%)\n";

  // Per-family recall breakdown, which is what a datacenter operator would
  // read: "which workload families can we recognise?"
  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  const linalg::Matrix train_features = pipeline.fit_transform(ds.x_train);
  const linalg::Matrix test_features = pipeline.transform(ds.x_test);
  ml::RandomForestConfig forest_config;
  forest_config.n_estimators = 100;
  ml::RandomForest forest(forest_config);
  forest.fit(train_features, ds.y_train);
  const std::vector<int> pred = forest.predict(test_features);
  const ml::ClassReport report =
      ml::classification_report(ds.y_test, pred, telemetry::kNumClasses);

  TextTable table("Per-class recall (test split)");
  table.set_header({"Class", "Family", "Support", "Recall", "F1"});
  for (const auto& arch : telemetry::architecture_registry()) {
    const auto c = static_cast<std::size_t>(arch.class_id);
    table.add_row({arch.name, std::string(family_name(arch.family)),
                   std::to_string(report.support[c]),
                   format_fixed(report.recall[c] * 100.0, 1),
                   format_fixed(report.f1[c] * 100.0, 1)});
  }
  std::cout << table;
  std::cout << "macro F1: " << report.macro_f1 * 100.0 << "%\n";
  return 0;
}
