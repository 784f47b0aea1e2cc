// Ablation A6 — the wider baseline ladder.
//
// §III-C asks "Would traditional machine learning techniques be better
// suited for this problem?". This bench ranks the full model ladder on the
// same covariance features of 60-random-1: logistic regression, kNN,
// single CART tree, SVM, random forest and gradient boosting — under both
// the released trial-level split and the leakage-free job-level split
// (the kNN row is the clearest leakage detector: sibling series are
// near-duplicates, so 1-NN thrives on the trial split and collapses on
// the job split).
#include <iostream>
#include <memory>

#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;

struct Arm {
  std::string name;
  std::function<std::unique_ptr<ml::Classifier>()> make;
};

}  // namespace

int main() {
  const ScaleProfile profile = ScaleProfile::from_env("tiny");
  core::print_profile_banner(std::cout, profile,
                             "A6 — baseline ladder on covariance features");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);

  const std::vector<Arm> arms{
      {"LogReg", [] { return std::make_unique<ml::LogisticRegression>(); }},
      {"1-NN", [] { return std::make_unique<ml::Knn>(ml::KnnConfig{.k = 1}); }},
      {"5-NN",
       [] {
         return std::make_unique<ml::Knn>(
             ml::KnnConfig{.k = 5, .distance_weighted = true});
       }},
      {"CART tree", [] { return std::make_unique<ml::DecisionTree>(); }},
      {"SVM (rbf)", [] { return std::make_unique<ml::Svm>(); }},
      {"RF (100)",
       [] {
         ml::RandomForestConfig forest_config;
         forest_config.n_estimators = 100;
         return std::make_unique<ml::RandomForest>(forest_config);
       }},
      {"XGB (40)",
       [] {
         return std::make_unique<ml::GradientBoostedTrees>(
             ml::GbtConfig{.n_rounds = 40});
       }},
  };

  TextTable table(
      "Model ladder on 60-random-1 covariance features (accuracy %)");
  table.set_header({"Model", "Trial split (paper)", "Job split", "Fit (s)"});

  core::ChallengeConfig trial_config =
      core::ChallengeConfig::from_profile(profile);
  core::ChallengeConfig job_config = trial_config;
  job_config.split_unit = data::SplitUnit::kJob;

  const auto trial_ds = core::build_challenge_dataset(
      corpus, trial_config, data::WindowPolicy::kRandom, 0);
  const auto job_ds = core::build_challenge_dataset(
      corpus, job_config, data::WindowPolicy::kRandom, 0);

  const auto featurise = [](const data::ChallengeDataset& ds) {
    preprocess::FeaturePipeline pipeline(
        {preprocess::Reduction::kCovariance, 0});
    linalg::Matrix train = pipeline.fit_transform(ds.x_train);
    linalg::Matrix test = pipeline.transform(ds.x_test);
    return std::make_pair(std::move(train), std::move(test));
  };
  const auto [trial_train, trial_test] = featurise(trial_ds);
  const auto [job_train, job_test] = featurise(job_ds);

  for (const Arm& arm : arms) {
    Stopwatch fit_timer;
    auto model = arm.make();
    model->fit(trial_train, trial_ds.y_train);
    const double fit_s = fit_timer.seconds();
    const double trial_acc =
        ml::accuracy(trial_ds.y_test, model->predict(trial_test));

    auto job_model = arm.make();
    job_model->fit(job_train, job_ds.y_train);
    const double job_acc =
        ml::accuracy(job_ds.y_test, job_model->predict(job_test));

    table.add_row({arm.name, format_fixed(trial_acc * 100.0, 2),
                   format_fixed(job_acc * 100.0, 2),
                   format_fixed(fit_s, 2)});
  }
  std::cout << table;
  std::cout << "reading guide: the trial/job gap measures sibling-series "
               "leakage per model; memorisers (1-NN) gain the most from "
               "the released protocol, ensembles the least.\n";
  return 0;
}
