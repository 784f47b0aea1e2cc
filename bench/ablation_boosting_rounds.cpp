// Ablation A5 — boosting-round curve.
//
// Section IV-B: "model performance plateaus after around 40 boosting rounds
// and the model is overfitting as the training set error is very close to
// zero." This bench traces train and test accuracy as a function of the
// number of boosting rounds on 60-random-1 covariance features.
#include <iostream>

#include "common/env.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "ml/gbt.hpp"
#include "ml/metrics.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/corpus.hpp"

int main() {
  using namespace scwc;

  const ScaleProfile profile = ScaleProfile::from_env("small");
  core::print_profile_banner(std::cout, profile,
                             "A5 — XGBoost boosting-round curve");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, core::ChallengeConfig::from_profile(profile),
      data::WindowPolicy::kRandom, 0);

  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  const linalg::Matrix train_f = pipeline.fit_transform(ds.x_train);
  const linalg::Matrix test_f = pipeline.transform(ds.x_test);

  // One long run gives the train curve; separate fits give test points
  // (each prefix of rounds is a valid model, but we refit to keep the
  // implementation honest about determinism).
  TextTable table("Accuracy vs boosting rounds (60-random-1, cov features)");
  table.set_header({"Rounds", "Train acc (%)", "Test acc (%)"});
  for (const std::size_t rounds : {2u, 5u, 10u, 20u, 40u, 60u}) {
    ml::GbtConfig config;
    config.n_rounds = rounds;
    ml::GradientBoostedTrees gbt(config);
    std::vector<double> history;
    gbt.fit_with_history(train_f, ds.y_train, &history);
    const double train_acc = history.back();
    const double test_acc =
        ml::accuracy(ds.y_test, gbt.predict(test_f));
    table.add_row({std::to_string(rounds),
                   format_fixed(train_acc * 100.0, 2),
                   format_fixed(test_acc * 100.0, 2)});
  }
  std::cout << table;
  std::cout << "expected shape: train accuracy -> ~100% while test "
               "accuracy plateaus near the 40-round mark (paper's overfit "
               "observation).\n";
  return 0;
}
