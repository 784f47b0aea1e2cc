#include "core/baselines.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "ml/metrics.hpp"
#include "ml/model_selection.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "preprocess/covariance_features.hpp"
#include "preprocess/pca.hpp"
#include "preprocess/pipeline.hpp"

namespace scwc::core {

namespace {

using linalg::Matrix;

ml::ClassifierFactory make_factory(const ClassicalConfig& config,
                                   double svm_c, std::size_t rf_trees,
                                   std::uint64_t seed) {
  if (config.model == ClassicalModel::kSvm) {
    return [svm_c, seed] {
      ml::SvmConfig sc;
      sc.c = svm_c;
      sc.seed = seed;
      return std::make_unique<ml::Svm>(sc);
    };
  }
  return [rf_trees, seed] {
    ml::RandomForestConfig rc;
    rc.n_estimators = rf_trees;
    rc.seed = seed;
    return std::make_unique<ml::RandomForest>(rc);
  };
}

}  // namespace

ClassicalConfig ClassicalConfig::from_profile(const ScaleProfile& profile,
                                              ClassicalModel model,
                                              preprocess::Reduction reduction) {
  ClassicalConfig cfg;
  cfg.model = model;
  cfg.reduction = reduction;
  cfg.cv_folds = profile.cv_folds;
  cfg.grid_row_cap = profile.grid_row_cap;
  cfg.svm_train_cap = profile.svm_max_train;
  if (profile.name != "full") {
    // Reduced profiles halve the forest sizes: accuracy saturates well
    // below 250 trees at these corpus sizes while fit/predict cost scales
    // linearly in the tree count.
    cfg.rf_trees_grid = {25, 50, 125};
  }
  return cfg;
}

std::string ClassicalConfig::label() const {
  std::string out = model == ClassicalModel::kSvm ? "SVM" : "RF";
  out += ' ';
  out += preprocess::reduction_name(reduction);
  return out;
}

ClassicalOutcome run_classical_experiment(const data::ChallengeDataset& ds,
                                          const ClassicalConfig& config) {
  const Stopwatch timer;
  const obs::TraceSpan experiment_span("classical.experiment");
  ClassicalOutcome outcome;
  outcome.model_label = config.label();
  outcome.dataset = ds.name;

  // Hyper-parameter axis for the classifier itself.
  const std::vector<double>& c_grid = config.svm_c_grid;
  const std::vector<std::size_t>& trees_grid = config.rf_trees_grid;
  const std::size_t model_axis = config.model == ClassicalModel::kSvm
                                     ? c_grid.size()
                                     : trees_grid.size();

  // Candidate feature matrices: one per PCA width, or the single covariance
  // reduction, each standardised on the training split first (the paper
  // applies the scaler before either reduction). PCA is fit on the full
  // training split (transform-only inside CV), matching the paper's
  // pipeline ordering at a fraction of the cost.
  struct FeatureSet {
    std::string tag;
    Matrix train;
    Matrix test;
  };
  std::vector<FeatureSet> feature_sets;
  if (config.reduction == preprocess::Reduction::kCovariance) {
    preprocess::FeaturePipeline pipeline(
        {preprocess::Reduction::kCovariance, 0});
    FeatureSet fs;
    fs.tag = "cov28";
    fs.train = pipeline.fit_transform(ds.x_train);
    fs.test = pipeline.transform(ds.x_test);
    feature_sets.push_back(std::move(fs));
  } else {
    // kNone is the scaler alone: the scaled steps·sensors-wide rows.
    preprocess::FeaturePipeline scaler({preprocess::Reduction::kNone, 0});
    const Matrix train_scaled = scaler.fit_transform(ds.x_train);
    const Matrix test_scaled = scaler.transform(ds.x_test);
    const std::size_t max_k =
        std::min(train_scaled.rows() - 1, train_scaled.cols());
    std::vector<std::size_t> widths;
    for (const std::size_t k : config.pca_grid) {
      const std::size_t kk = std::min(k, max_k);
      if (std::find(widths.begin(), widths.end(), kk) == widths.end()) {
        widths.push_back(kk);
      }
    }
    std::sort(widths.begin(), widths.end());
    // PCA projections are nested: the first k columns of the widest
    // projection ARE the k-component projection, so one eigen solve at the
    // largest width serves the whole grid.
    preprocess::Pca pca(widths.back());
    const Matrix train_full = pca.fit_transform(train_scaled);
    const Matrix test_full = pca.transform(test_scaled);
    const auto slice_columns = [](const Matrix& m, std::size_t k) {
      Matrix out(m.rows(), k);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        const auto src = m.row(r);
        std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(k),
                  out.row(r).begin());
      }
      return out;
    };
    for (const std::size_t k : widths) {
      FeatureSet fs;
      fs.tag = "pca" + std::to_string(k);
      fs.train = slice_columns(train_full, k);
      fs.test = slice_columns(test_full, k);
      feature_sets.push_back(std::move(fs));
    }
  }

  // Full grid: feature set × model hyper-parameter.
  const std::size_t n_configs = feature_sets.size() * model_axis;
  const std::vector<std::size_t> cv_rows =
      ml::capped_rows(ds.train_trials(), config.grid_row_cap);
  std::vector<Matrix> cv_features;
  cv_features.reserve(feature_sets.size());
  for (const auto& fs : feature_sets) {
    cv_features.push_back(ml::take_rows(fs.train, cv_rows));
  }
  const std::vector<int> cv_labels = ml::take_labels(ds.y_train, cv_rows);
  const std::vector<ml::Fold> folds =
      ml::kfold(cv_rows.size(), config.cv_folds, /*shuffle=*/true,
                config.seed);

  const ml::GridSearchResult grid = [&] {
    const obs::TraceSpan grid_span("classical.grid_search");
    return ml::grid_search(
      n_configs, [&](std::size_t i) {
        const std::size_t fs_idx = i / model_axis;
        const std::size_t hp_idx = i % model_axis;
        const double svm_c =
            config.model == ClassicalModel::kSvm ? c_grid[hp_idx] : 0.0;
        const std::size_t rf_trees =
            config.model == ClassicalModel::kSvm ? 0 : trees_grid[hp_idx];
        return ml::cross_val_accuracy(
            cv_features[fs_idx], cv_labels, folds,
            make_factory(config, svm_c, rf_trees, config.seed + i));
      });
  }();

  const std::size_t best_fs = grid.best_index / model_axis;
  const std::size_t best_hp = grid.best_index % model_axis;
  outcome.cv_accuracy = grid.best_score;

  // Final refit on the full training split with the winning configuration.
  const double best_c =
      config.model == ClassicalModel::kSvm ? c_grid[best_hp] : 0.0;
  const std::size_t best_trees =
      config.model == ClassicalModel::kSvm ? 0 : trees_grid[best_hp];
  const obs::TraceSpan refit_span("classical.refit");
  auto model =
      make_factory(config, best_c, best_trees, config.seed + 777)();
  if (config.model == ClassicalModel::kSvm && config.svm_train_cap > 0 &&
      ds.train_trials() > config.svm_train_cap) {
    const std::vector<std::size_t> rows =
        ml::capped_rows(ds.train_trials(), config.svm_train_cap);
    const Matrix x_fit = ml::take_rows(feature_sets[best_fs].train, rows);
    const std::vector<int> y_fit = ml::take_labels(ds.y_train, rows);
    model->fit(x_fit, y_fit);
  } else {
    model->fit(feature_sets[best_fs].train, ds.y_train);
  }
  outcome.test_accuracy =
      ml::accuracy(ds.y_test, model->predict(feature_sets[best_fs].test));

  std::ostringstream params;
  params << feature_sets[best_fs].tag << ", ";
  if (config.model == ClassicalModel::kSvm) {
    params << "C=" << best_c;
  } else {
    params << "trees=" << best_trees;
  }
  outcome.best_params = params.str();
  outcome.seconds = timer.seconds();
  SCWC_LOG_INFO(outcome.model_label << " on " << ds.name << ": test "
                                    << outcome.test_accuracy * 100.0 << "% ("
                                    << outcome.best_params << ", "
                                    << outcome.seconds << "s)");
  return outcome;
}

XgbConfig XgbConfig::from_profile(const ScaleProfile& profile) {
  XgbConfig cfg;
  cfg.cv_folds = std::min<std::size_t>(5, profile.cv_folds);
  cfg.grid_row_cap = profile.grid_row_cap;
  return cfg;
}

XgbOutcome run_xgboost_experiment(const data::ChallengeDataset& ds,
                                  const XgbConfig& config) {
  const Stopwatch timer;
  const obs::TraceSpan experiment_span("xgb.experiment");
  XgbOutcome outcome;
  outcome.dataset = ds.name;

  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  const auto [train_features, test_features] = [&] {
    const obs::TraceSpan features_span("xgb.features");
    // Fit first: the order make_pair's arguments are evaluated in is
    // unspecified.
    Matrix train = pipeline.fit_transform(ds.x_train);
    return std::make_pair(std::move(train), pipeline.transform(ds.x_test));
  }();

  struct Cell {
    double gamma;
    double alpha;
    double lambda;
  };
  std::vector<Cell> cells;
  for (const double g : config.gamma_grid) {
    for (const double a : config.alpha_grid) {
      for (const double l : config.lambda_grid) {
        cells.push_back({g, a, l});
      }
    }
  }

  const std::vector<std::size_t> cv_rows =
      ml::capped_rows(ds.train_trials(), config.grid_row_cap);
  const Matrix cv_features = ml::take_rows(train_features, cv_rows);
  const std::vector<int> cv_labels = ml::take_labels(ds.y_train, cv_rows);
  const std::vector<ml::Fold> folds =
      ml::kfold(cv_rows.size(), config.cv_folds, /*shuffle=*/true,
                config.seed);

  const auto make_gbt = [&config](const Cell& cell) {
    ml::GbtConfig gc;
    gc.n_rounds = config.n_rounds;
    gc.max_depth = config.max_depth;
    gc.learning_rate = config.learning_rate;
    gc.gamma = cell.gamma;
    gc.reg_alpha = cell.alpha;
    gc.reg_lambda = cell.lambda;
    gc.seed = config.seed;
    return gc;
  };

  const ml::GridSearchResult grid = [&] {
    const obs::TraceSpan grid_span("xgb.grid_search");
    return ml::grid_search(
        cells.size(), [&](std::size_t i) {
          return ml::cross_val_accuracy(
              cv_features, cv_labels, folds, [&, i] {
                return std::make_unique<ml::GradientBoostedTrees>(
                    make_gbt(cells[i]));
              });
        });
  }();

  const Cell best = cells[grid.best_index];
  outcome.cv_accuracy = grid.best_score;

  ml::GradientBoostedTrees model(make_gbt(best));
  {
    const obs::TraceSpan fit_span("xgb.final_fit");
    model.fit_with_history(train_features, ds.y_train,
                           &outcome.train_accuracy_per_round);
  }
  outcome.train_accuracy = outcome.train_accuracy_per_round.back();
  outcome.test_accuracy =
      ml::accuracy(ds.y_test, model.predict(test_features));

  const ml::FeatureImportance& imp = model.feature_importance();
  const std::vector<std::size_t> ranking = imp.ranking_by_gain();
  for (std::size_t i = 0;
       i < std::min(config.top_features, ranking.size()); ++i) {
    outcome.top_features.emplace_back(
        preprocess::covariance_feature_name(ranking[i], ds.sensors()),
        imp.total_gain[ranking[i]]);
  }

  std::ostringstream params;
  params << "gamma=" << best.gamma << ", alpha=" << best.alpha
         << ", lambda=" << best.lambda;
  outcome.best_params = params.str();
  outcome.seconds = timer.seconds();
  SCWC_LOG_INFO("XGBoost on " << ds.name << ": test "
                              << outcome.test_accuracy * 100.0 << "% ("
                              << outcome.best_params << ")");
  return outcome;
}

}  // namespace scwc::core
