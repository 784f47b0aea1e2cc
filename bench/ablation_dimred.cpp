// Ablation A1 — dimensionality reduction: accuracy vs cost.
//
// Section IV-A: "the time complexity for the covariance dataset, with a
// feature space in R^28, was significantly less than the PCA datasets with
// larger feature spaces." This bench quantifies that trade-off: RF accuracy
// and end-to-end time (reduction fit + transform + forest fit + predict)
// for covariance features, several PCA widths and the raw flattened window.
#include <iostream>

#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/corpus.hpp"

int main() {
  using namespace scwc;

  const ScaleProfile profile = ScaleProfile::from_env("small");
  core::print_profile_banner(std::cout, profile,
                             "A1 — dimensionality-reduction ablation");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, core::ChallengeConfig::from_profile(profile),
      data::WindowPolicy::kRandom, 0);

  struct Arm {
    std::string name;
    preprocess::FeaturePipelineConfig config;
  };
  std::vector<Arm> arms{
      {"covariance (R^28)", {preprocess::Reduction::kCovariance, 0}},
      {"PCA k=28", {preprocess::Reduction::kPca, 28}},
      {"PCA k=64", {preprocess::Reduction::kPca, 64}},
      {"PCA k=256", {preprocess::Reduction::kPca, 256}},
      {"raw flatten", {preprocess::Reduction::kNone, 0}},
  };

  TextTable table("RF(100 trees) on 60-random-1 by feature reduction");
  table.set_header({"Features", "Dim", "Test acc (%)", "Reduce (s)",
                    "Train (s)", "Predict (s)"});
  for (const auto& arm : arms) {
    preprocess::FeaturePipeline pipeline(arm.config);
    Stopwatch timer;
    const linalg::Matrix train = pipeline.fit_transform(ds.x_train);
    const linalg::Matrix test = pipeline.transform(ds.x_test);
    const double reduce_s = timer.lap();

    ml::RandomForestConfig forest_config;
    forest_config.n_estimators = 100;
    ml::RandomForest forest(forest_config);
    forest.fit(train, ds.y_train);
    const double train_s = timer.lap();

    const auto pred = forest.predict(test);
    const double predict_s = timer.lap();

    table.add_row({arm.name, std::to_string(pipeline.output_dim()),
                   format_fixed(ml::accuracy(ds.y_test, pred) * 100.0, 2),
                   format_fixed(reduce_s, 3), format_fixed(train_s, 3),
                   format_fixed(predict_s, 3)});
  }
  std::cout << table;
  std::cout << "expected shape: covariance matches or beats PCA at a "
               "fraction of the cost (the paper's §IV-A conclusion).\n";
  return 0;
}
