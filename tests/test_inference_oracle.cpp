// Differential oracle for the RF-on-covariance inference path. The compiled
// forest and the fused standardise→covariance transform are checked against
// their references — DecisionTree::predict_proba summed in tree order, and
// StandardScaler::transform followed by covariance_features_flat — with ==
// on every double, on a seeded corpus at FaultInjector severities {0, 0.5,
// 1} after imputation, plus rows carrying NaN and ±inf features.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/challenge.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/covariance_features.hpp"
#include "preprocess/pipeline.hpp"
#include "robust/fault.hpp"
#include "robust/robust_window.hpp"

namespace scwc {
namespace {

using linalg::Matrix;

struct OracleWorld {
  data::ChallengeDataset ds;
  preprocess::FeaturePipeline pipeline{
      preprocess::FeaturePipelineConfig{preprocess::Reduction::kCovariance, 0}};
  // Depth-capped, so most leaves hold a mixed distribution and the order
  // of the per-row sums shows in the last bits.
  ml::RandomForest forest{[] {
    ml::RandomForestConfig config;
    config.n_estimators = 40;
    config.tree.max_depth = 6;
    return config;
  }()};
  std::vector<double> priors;
};

const OracleWorld& world() {
  static const OracleWorld w = [] {
    OracleWorld out;
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = 0.02;
    corpus_config.min_jobs_per_class = 4;
    corpus_config.seed = 7;
    const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
    core::ChallengeConfig config;
    config.window_steps = 45;
    config.sample_hz = 0.75;
    config.seed = 4321;
    out.ds = core::build_challenge_dataset(corpus, config,
                                           data::WindowPolicy::kRandom, 0);
    out.forest.fit(out.pipeline.fit_transform(out.ds.x_train),
                   out.ds.y_train);
    out.priors = robust::sensor_prior_means(out.ds.x_train);
    return out;
  }();
  return w;
}

/// The test windows corrupted at `severity` and repaired by linear
/// imputation.
data::Tensor3 repaired_test_set(const OracleWorld& w, double severity) {
  const robust::FaultInjector injector(
      robust::FaultProfile::at_severity(severity));
  robust::ImputationConfig repair;
  repair.policy = robust::Imputation::kLinear;
  repair.sensor_prior_means = w.priors;
  const data::ChallengeDataset& ds = w.ds;
  data::Tensor3 out(ds.test_trials(), ds.steps(), ds.sensors());
  for (std::size_t i = 0; i < ds.test_trials(); ++i) {
    telemetry::TimeSeries series;
    series.sample_hz = 0.75;
    series.values = ds.x_test.trial_matrix(i);
    Rng rng(0xC0FFEEULL + 31 * i);
    injector.corrupt(series, rng);
    robust::robust_window(series, 0, ds.steps(), repair, out.trial(i));
  }
  return out;
}

/// Feature rows for every severity, then copies of the first rows with NaN,
/// +inf and −inf planted in a rotating column.
Matrix oracle_features(const OracleWorld& w) {
  std::vector<Matrix> parts;
  for (const double severity : {0.0, 0.5, 1.0}) {
    parts.push_back(w.pipeline.transform(repaired_test_set(w, severity)));
  }
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  const std::size_t cols = parts.front().cols();
  Matrix odd(3 * cols, cols);
  for (std::size_t r = 0; r < odd.rows(); ++r) {
    const auto src = parts.front().row(r % parts.front().rows());
    std::copy(src.begin(), src.end(), odd.row(r).begin());
    odd(r, r % cols) = specials[r / cols];
  }
  parts.push_back(odd);
  std::size_t rows = 0;
  for (const Matrix& m : parts) rows += m.rows();
  Matrix out(rows, cols);
  std::size_t at = 0;
  for (const Matrix& m : parts) {
    for (std::size_t r = 0; r < m.rows(); ++r, ++at) {
      std::copy(m.row(r).begin(), m.row(r).end(), out.row(at).begin());
    }
  }
  return out;
}

/// Count of cells where a != b (shapes must match).
std::size_t mismatches(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.flat().size();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    if (!(a.flat()[i] == b.flat()[i])) ++bad;
  }
  return bad;
}

std::string saved(const ml::RandomForest& forest) {
  std::stringstream out;
  forest.save(out);
  return out.str();
}

/// Mean of DecisionTree::predict_proba over the trees of an SCWC_RF1
/// stream, summed in tree order and scaled by 1/T.
Matrix reference_proba(const std::string& stream, const Matrix& x) {
  std::stringstream in(stream);
  in.ignore(16);  // magic, class count
  std::uint64_t trees = 0;
  for (int i = 0; i < 8; ++i) {
    trees |= static_cast<std::uint64_t>(static_cast<unsigned char>(in.get()))
             << (8 * i);
  }
  Matrix sum;
  for (std::uint64_t t = 0; t < trees; ++t) {
    ml::DecisionTree tree;
    tree.load(in);
    if (t == 0) sum = Matrix(x.rows(), tree.num_classes());
    sum += tree.predict_proba(x);
  }
  sum *= 1.0 / static_cast<double>(trees);
  return sum;
}

TEST(InferenceOracle, FusedTransformAndCompiledForestMatchReferences) {
  const OracleWorld& w = world();
  for (const double severity : {0.0, 0.5, 1.0}) {
    const data::Tensor3 windows = repaired_test_set(w, severity);
    const Matrix fused = w.pipeline.transform(windows);
    const Matrix reference = preprocess::covariance_features_flat(
        w.pipeline.scaler().transform(windows.flatten()), windows.steps(),
        windows.sensors());
    EXPECT_EQ(mismatches(fused, reference), 0u) << "severity " << severity;
  }

  const Matrix x = oracle_features(w);
  const std::string stream = saved(w.forest);
  const Matrix expected = reference_proba(stream, x);
  EXPECT_EQ(mismatches(w.forest.predict_proba(x), expected), 0u);
  ml::RandomForest loaded;
  std::stringstream in(stream);
  loaded.load(in);
  EXPECT_EQ(mismatches(loaded.predict_proba(x), expected), 0u);
  EXPECT_EQ(saved(loaded), stream) << "save(load(save(f))) must be stable";
}

TEST(InferenceOracle, BuildOrderStreamCompilesToTheSamePredictions) {
  // Streams whose trees are in DecisionTree build order (pre-order, the
  // layout earlier releases wrote) load and predict like their trees.
  const OracleWorld& w = world();
  const Matrix train = w.pipeline.transform(w.ds.x_train);
  constexpr std::uint64_t kTrees = 5;
  std::stringstream stream;
  stream << saved(w.forest).substr(0, 16);  // magic, class count
  for (int i = 0; i < 8; ++i) stream.put(static_cast<char>(kTrees >> (8 * i)));
  for (std::uint64_t t = 0; t < kTrees; ++t) {
    ml::DecisionTreeConfig config;
    config.max_features = 4;
    ml::DecisionTree tree(config, 100 + t);
    tree.fit(train, w.ds.y_train);  // same labels → same class count
    tree.save(stream);
  }
  const std::string build_order = stream.str();
  ml::RandomForest forest;
  forest.load(stream);
  const Matrix x = oracle_features(w);
  EXPECT_EQ(
      mismatches(forest.predict_proba(x), reference_proba(build_order, x)),
      0u);
}

TEST(InferenceOracle, ProbabilitiesDoNotDependOnTheCallingThread) {
  const OracleWorld& w = world();
  const Matrix x = oracle_features(w);
  ASSERT_GT(x.rows(), 128u);  // big enough to split into row blocks
  const Matrix from_main = w.forest.predict_proba(x);

  Matrix from_worker;
  ThreadPool pool(4);
  pool.submit([&] { from_worker = w.forest.predict_proba(x); }).get();
  EXPECT_EQ(mismatches(from_main, from_worker), 0u);

  Matrix one_by_one(x.rows(), from_main.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix one(1, x.cols());
    std::copy(x.row(r).begin(), x.row(r).end(), one.row(0).begin());
    const Matrix p = w.forest.predict_proba(one);
    std::copy(p.row(0).begin(), p.row(0).end(), one_by_one.row(r).begin());
  }
  EXPECT_EQ(mismatches(from_main, one_by_one), 0u);
}

}  // namespace
}  // namespace scwc
