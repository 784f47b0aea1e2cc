// Tests for the classical/XGBoost experiment drivers and report rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/baselines.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "core/rnn_experiments.hpp"
#include "linalg/stats.hpp"

namespace scwc::core {
namespace {

const data::ChallengeDataset& micro_dataset() {
  static const data::ChallengeDataset ds = [] {
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = 0.01;
    corpus_config.min_jobs_per_class = 3;
    corpus_config.seed = 5;
    const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
    ChallengeConfig config;
    config.window_steps = 30;
    config.sample_hz = 0.5;
    return build_challenge_dataset(corpus, config,
                                   data::WindowPolicy::kMiddle);
  }();
  return ds;
}

ClassicalConfig quick_classical(ClassicalModel model,
                                preprocess::Reduction reduction) {
  ClassicalConfig config;
  config.model = model;
  config.reduction = reduction;
  config.cv_folds = 3;
  config.grid_row_cap = 200;
  config.rf_trees_grid = {20};
  config.svm_c_grid = {1.0};
  config.pca_grid = {10};
  return config;
}

TEST(Baselines, RfCovarianceBeatsChanceByALot) {
  const auto outcome = run_classical_experiment(
      micro_dataset(),
      quick_classical(ClassicalModel::kRandomForest,
                      preprocess::Reduction::kCovariance));
  EXPECT_EQ(outcome.model_label, "RF Cov.");
  EXPECT_EQ(outcome.dataset, "60-middle-1");
  EXPECT_GT(outcome.test_accuracy, 0.5);  // chance is ~1/26 ≈ 0.04
  EXPECT_GT(outcome.cv_accuracy, 0.2);
  EXPECT_NE(outcome.best_params.find("cov28"), std::string::npos);
  EXPECT_GT(outcome.seconds, 0.0);
}

TEST(Baselines, SvmPcaRunsAndLabelsCorrectly) {
  const auto outcome = run_classical_experiment(
      micro_dataset(),
      quick_classical(ClassicalModel::kSvm, preprocess::Reduction::kPca));
  EXPECT_EQ(outcome.model_label, "SVM PCA");
  EXPECT_GT(outcome.test_accuracy, 0.3);
  EXPECT_NE(outcome.best_params.find("pca10"), std::string::npos);
  EXPECT_NE(outcome.best_params.find("C=1"), std::string::npos);
}

TEST(Baselines, PcaGridClampsToDataWidth) {
  ClassicalConfig config = quick_classical(ClassicalModel::kRandomForest,
                                           preprocess::Reduction::kPca);
  config.pca_grid = {512, 9999};  // wider than 30×7=210 flattened dims
  const auto outcome = run_classical_experiment(micro_dataset(), config);
  EXPECT_GT(outcome.test_accuracy, 0.3);
}

TEST(Baselines, ConfigLabelsMatchTableVRows) {
  EXPECT_EQ(quick_classical(ClassicalModel::kSvm,
                            preprocess::Reduction::kPca)
                .label(),
            "SVM PCA");
  EXPECT_EQ(quick_classical(ClassicalModel::kSvm,
                            preprocess::Reduction::kCovariance)
                .label(),
            "SVM Cov.");
  EXPECT_EQ(quick_classical(ClassicalModel::kRandomForest,
                            preprocess::Reduction::kPca)
                .label(),
            "RF PCA");
  EXPECT_EQ(quick_classical(ClassicalModel::kRandomForest,
                            preprocess::Reduction::kCovariance)
                .label(),
            "RF Cov.");
}

TEST(Baselines, XgboostExperimentProducesImportances) {
  XgbConfig config;
  config.gamma_grid = {0.0};
  config.alpha_grid = {0.1};
  config.lambda_grid = {1.0};
  config.n_rounds = 8;
  config.cv_folds = 3;
  config.grid_row_cap = 150;
  config.top_features = 3;
  const auto outcome = run_xgboost_experiment(micro_dataset(), config);
  EXPECT_GT(outcome.test_accuracy, 0.4);
  EXPECT_GT(outcome.train_accuracy, outcome.test_accuracy - 0.05);
  ASSERT_EQ(outcome.top_features.size(), 3u);
  for (const auto& [name, gain] : outcome.top_features) {
    EXPECT_TRUE(name.find("var(") == 0 || name.find("cov(") == 0) << name;
    EXPECT_GT(gain, 0.0);
  }
  EXPECT_EQ(outcome.train_accuracy_per_round.size(), 8u);
}

TEST(Baselines, FromProfileUsesProfileKnobs) {
  const ScaleProfile profile = ScaleProfile::named("tiny");
  const ClassicalConfig config = ClassicalConfig::from_profile(
      profile, ClassicalModel::kSvm, preprocess::Reduction::kCovariance);
  EXPECT_EQ(config.cv_folds, profile.cv_folds);
  EXPECT_EQ(config.grid_row_cap, profile.grid_row_cap);
  // Paper grids survive profile scaling.
  EXPECT_EQ(config.svm_c_grid.size(), 3u);
  EXPECT_EQ(config.rf_trees_grid.size(), 3u);
  EXPECT_EQ(config.pca_grid.size(), 4u);
}

/// The Section-V preprocessing as it was written before the shared helper,
/// kept as the reference: gather the capped rows, flatten them into a
/// trials×(steps·sensors) matrix, fit the column means and population stds
/// (unit scale for a constant column), scale both splits, then reshape the
/// rows back into tensors.
RnnSplits reference_rnn_splits(const data::ChallengeDataset& ds,
                               std::size_t max_train_trials) {
  const std::size_t n = ds.train_trials();
  const std::size_t cap =
      max_train_trials == 0 ? n : std::min(n, max_train_trials);
  std::vector<std::size_t> rows;
  const double stride = static_cast<double>(n) / static_cast<double>(cap);
  for (std::size_t k = 0; k < cap; ++k) {
    rows.push_back(static_cast<std::size_t>(static_cast<double>(k) * stride));
  }
  const auto flatten = [](const data::Tensor3& x) {
    linalg::Matrix flat(x.trials(), x.steps() * x.sensors());
    std::copy(x.raw().begin(), x.raw().end(), flat.flat().begin());
    return flat;
  };
  const linalg::Matrix train = flatten(ds.x_train.gather(rows));
  const linalg::Vector mean = linalg::column_means(train);
  linalg::Vector scale = linalg::column_stddevs(train);
  for (double& sd : scale) {
    if (sd <= 0.0 || !std::isfinite(sd)) sd = 1.0;
  }
  const auto scaled_tensor = [&](const linalg::Matrix& flat) {
    data::Tensor3 out(flat.rows(), ds.steps(), ds.sensors());
    for (std::size_t r = 0; r < flat.rows(); ++r) {
      for (std::size_t c = 0; c < flat.cols(); ++c) {
        out.trial(r)[c] = (flat(r, c) - mean[c]) / scale[c];
      }
    }
    return out;
  };
  RnnSplits out;
  out.x_train = scaled_tensor(train);
  for (const std::size_t r : rows) out.y_train.push_back(ds.y_train[r]);
  out.x_val = scaled_tensor(flatten(ds.x_test));
  return out;
}

TEST(RnnPrep, MatchesFlattenScaleReshapeReference) {
  const data::ChallengeDataset& ds = micro_dataset();
  ASSERT_GT(ds.train_trials(), 40u);
  for (const std::size_t cap : {std::size_t{0}, std::size_t{40},
                                ds.train_trials(), ds.train_trials() + 1}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    const RnnSplits got = prepare_rnn_splits(ds, cap);
    const RnnSplits want = reference_rnn_splits(ds, cap);
    EXPECT_EQ(got.y_train, want.y_train);
    for (const auto& [a, b] : {std::pair{&got.x_train, &want.x_train},
                               std::pair{&got.x_val, &want.x_val}}) {
      ASSERT_EQ(a->trials(), b->trials());
      ASSERT_EQ(a->steps(), b->steps());
      ASSERT_EQ(a->sensors(), b->sensors());
      std::size_t mismatches = 0;
      for (std::size_t k = 0; k < a->raw().size(); ++k) {
        if (!(a->raw()[k] == b->raw()[k])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
  EXPECT_EQ(prepare_rnn_splits(ds, 40).x_train.trials(), 40u);
}

TEST(Report, Table5LayoutContainsRowsAndColumns) {
  std::vector<ClassicalOutcome> outcomes;
  ClassicalOutcome o;
  o.model_label = "RF Cov.";
  o.dataset = "60-middle-1";
  o.test_accuracy = 0.9302;
  outcomes.push_back(o);
  o.dataset = "60-start-1";
  o.test_accuracy = 0.818;
  outcomes.push_back(o);

  std::ostringstream os;
  print_table5(os, outcomes, {"60-start-1", "60-middle-1"});
  const std::string out = os.str();
  EXPECT_NE(out.find("RF Cov."), std::string::npos);
  EXPECT_NE(out.find("Start"), std::string::npos);
  EXPECT_NE(out.find("Middle"), std::string::npos);
  EXPECT_NE(out.find("93.02"), std::string::npos);
  EXPECT_NE(out.find("81.80"), std::string::npos);
}

TEST(Report, Table6LayoutContainsModels) {
  std::vector<RnnOutcome> outcomes;
  RnnOutcome o;
  o.model_label = "LSTM (h=128)";
  o.dataset = "60-random-1";
  o.best_val_accuracy = 0.9081;
  outcomes.push_back(o);
  std::ostringstream os;
  print_table6(os, outcomes, {"60-random-1"});
  const std::string out = os.str();
  EXPECT_NE(out.find("LSTM (h=128)"), std::string::npos);
  EXPECT_NE(out.find("90.81"), std::string::npos);
}

TEST(Report, XgboostReportMentionsPaperBaseline) {
  XgbOutcome o;
  o.dataset = "60-random-1";
  o.test_accuracy = 0.88;
  o.train_accuracy = 0.999;
  o.best_params = "gamma=0";
  o.top_features = {{"var(utilization_gpu_pct)", 10.0}};
  o.train_accuracy_per_round = {0.5, 0.9, 0.99};
  std::ostringstream os;
  print_xgboost_report(os, o);
  const std::string out = os.str();
  EXPECT_NE(out.find("88.47%"), std::string::npos);  // paper reference
  EXPECT_NE(out.find("var(utilization_gpu_pct)"), std::string::npos);
}

TEST(Report, ProfileBannerWarnsOffFullScale) {
  std::ostringstream os;
  print_profile_banner(os, ScaleProfile::named("tiny"), "T5");
  EXPECT_NE(os.str().find("tiny"), std::string::npos);
  EXPECT_NE(os.str().find("SCWC_SCALE=full"), std::string::npos);
  std::ostringstream os_full;
  print_profile_banner(os_full, ScaleProfile::named("full"), "T5");
  EXPECT_EQ(os_full.str().find("SCWC_SCALE=full"), std::string::npos);
}

}  // namespace
}  // namespace scwc::core
