// Differential oracle for the RF-on-covariance inference path. The compiled
// forest and the fused standardise→covariance transform are checked against
// their references — DecisionTree::predict_proba summed in tree order, and
// a test-owned element-wise (x − mean) / scale followed by the pair-by-pair
// covariance loop (or Pca::transform) — with == on every double, on a seeded corpus at FaultInjector severities {0, 0.5,
// 1} after imputation, plus rows carrying NaN and ±inf features. The
// forest runs in a depth-capped world whose impure leaves take the summed
// path, and in one-hot worlds at 60×7 and 540×7 that count integer votes
// and stop early; crafted forests add rows that tie exactly and rows
// decided only by the last tree, and pin the walks early exit skips. The
// one-pass repair (WindowRepairer) is checked bit for bit, QualityReport
// included, against the column-by-column repair it replaced, and the lane
// covariance kernel against the pair-by-pair loop it replaced; both run
// every compiled instance (SSE2, AVX2) the CPU supports. The view
// entries — a batch of separately owned windows, as the service holds its
// requests — are checked against the tensor entries and the references.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/challenge.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "preprocess/covariance_features.hpp"
#include "preprocess/covariance_kernel.hpp"
#include "preprocess/pipeline.hpp"
#include "robust/fault.hpp"
#include "robust/guarded_classifier.hpp"
#include "robust/repair_kernel.hpp"
#include "robust/robust_window.hpp"

namespace scwc {
namespace {

using linalg::Matrix;

struct OracleWorld {
  data::ChallengeDataset ds;
  double sample_hz = 0.0;
  preprocess::FeaturePipeline pipeline{
      preprocess::FeaturePipelineConfig{preprocess::Reduction::kCovariance, 0}};
  ml::RandomForest forest;
  std::vector<double> priors;
};

/// A seeded corpus cut into `steps`-step windows at `sample_hz`, the
/// covariance pipeline fitted on its training split and `config`'s forest
/// on the pipeline's features.
OracleWorld make_world(std::size_t steps, double sample_hz,
                       const ml::RandomForestConfig& config) {
  OracleWorld out;
  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = 0.02;
  corpus_config.min_jobs_per_class = 4;
  corpus_config.seed = 7;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  core::ChallengeConfig challenge;
  challenge.window_steps = steps;
  challenge.sample_hz = sample_hz;
  challenge.seed = 4321;
  out.ds = core::build_challenge_dataset(corpus, challenge,
                                         data::WindowPolicy::kRandom, 0);
  out.sample_hz = sample_hz;
  out.forest = ml::RandomForest(config);
  out.forest.fit(out.pipeline.fit_transform(out.ds.x_train), out.ds.y_train);
  out.priors = robust::sensor_prior_means(out.ds.x_train);
  return out;
}

/// Depth-capped, so most leaves hold a mixed distribution and the order
/// of the per-row sums shows in the last bits: the forest sums fractions.
const OracleWorld& world() {
  static const OracleWorld w = [] {
    ml::RandomForestConfig config;
    config.n_estimators = 40;
    config.tree.max_depth = 6;
    return make_world(45, 0.75, config);
  }();
  return w;
}

/// The served forest's shape: 100 trees with no depth cap, whose leaves
/// are all one-hot, so the forest counts votes. 60×7 is the tiny profile's
/// window, 540×7 the paper's (60 s at 9 Hz).
const OracleWorld& one_hot_world(std::size_t steps) {
  static const OracleWorld short_windows = make_world(60, 1.0, {});
  static const OracleWorld long_windows = make_world(540, 9.0, {});
  return steps == 60 ? short_windows : long_windows;
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
    series.sample_hz = w.sample_hz;
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
  ByteWriter out;
  forest.save(out);
  return out.take();
}

/// Mean of DecisionTree::predict_proba over the trees of an SCWC_RF1
/// stream, summed in tree order and scaled by 1/T.
Matrix reference_proba(const std::string& stream, const Matrix& x) {
  ByteReader in(stream, "model");
  (void)in.bytes(16);  // magic, class count
  const std::uint64_t trees = in.u64();
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

/// Every trial of `x` copied into its own vector, as served windows arrive.
std::vector<std::vector<double>> owned_windows(const data::Tensor3& x) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < x.trials(); ++i) {
    out.emplace_back(x.trial(i).begin(), x.trial(i).end());
  }
  return out;
}

/// The pair-by-pair loop the lane kernel replaced, kept as its reference:
/// one scalar sum per upper-triangle pair (i ≤ j, row-major triangle
/// order), steps added in order from +0.0.
std::vector<double> pairwise_covariance(std::span<const double> block,
                                        std::size_t steps,
                                        std::size_t sensors) {
  std::vector<double> out;
  for (std::size_t i = 0; i < sensors; ++i) {
    for (std::size_t j = i; j < sensors; ++j) {
      double s = 0.0;
      const double* p = block.data();
      for (std::size_t t = 0; t < steps; ++t, p += sensors) {
        s += p[i] * p[j];
      }
      out.push_back(s);
    }
  }
  return out;
}

TEST(InferenceOracle, FusedTransformAndCompiledForestMatchReferences) {
  const OracleWorld& w = world();
  // The reference for every reduction, owned by this test: scale each
  // trial element by element with the fitted means and scales, then reduce
  // the scaled rows pair by pair (kCovariance) or project them (kPca).
  const auto reference = [](const preprocess::FeaturePipeline& pipeline,
                            const data::Tensor3& x) {
    const linalg::Vector& mean = pipeline.scaler().means();
    const linalg::Vector& scale = pipeline.scaler().scales();
    const std::size_t width = x.steps() * x.sensors();
    Matrix scaled(x.trials(), width);
    for (std::size_t i = 0; i < x.trials(); ++i) {
      for (std::size_t c = 0; c < width; ++c) {
        scaled(i, c) = (x.trial(i)[c] - mean[c]) / scale[c];
      }
    }
    switch (pipeline.config().reduction) {
      case preprocess::Reduction::kCovariance: {
        Matrix out(x.trials(),
                   preprocess::covariance_feature_count(x.sensors()));
        for (std::size_t i = 0; i < x.trials(); ++i) {
          const std::vector<double> row =
              pairwise_covariance(scaled.row(i), x.steps(), x.sensors());
          std::copy(row.begin(), row.end(), out.row(i).begin());
        }
        return out;
      }
      case preprocess::Reduction::kPca:
        return pipeline.pca()->transform(scaled);
      case preprocess::Reduction::kNone:
        break;
    }
    return scaled;
  };
  std::vector<preprocess::FeaturePipeline> pipelines = {
      w.pipeline,
      preprocess::FeaturePipeline({preprocess::Reduction::kPca, 6}),
      preprocess::FeaturePipeline({preprocess::Reduction::kNone, 0})};
  pipelines[1].fit(w.ds.x_train);
  pipelines[2].fit(w.ds.x_train);
  for (const preprocess::FeaturePipeline& pipeline : pipelines) {
    for (const double severity : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE(testing::Message()
                   << preprocess::reduction_name(pipeline.config().reduction)
                   << ", severity " << severity);
      const data::Tensor3 windows = repaired_test_set(w, severity);
      const Matrix fused = pipeline.transform(windows);
      EXPECT_EQ(mismatches(fused, reference(pipeline, windows)), 0u);
      // Separately owned windows through the view entry.
      const std::vector<std::vector<double>> owned = owned_windows(windows);
      const std::vector<std::span<const double>> views(owned.begin(),
                                                       owned.end());
      EXPECT_EQ(mismatches(pipeline.transform(views), fused), 0u);
    }
  }

  // A NaN in view k is refused, naming trial k.
  const std::vector<std::vector<double>> clean =
      owned_windows(repaired_test_set(w, 0.0));
  for (const std::size_t k : {std::size_t{0}, clean.size() / 2,
                              clean.size() - 1}) {
    std::vector<std::vector<double>> bad = clean;
    bad[k][bad[k].size() / 3] = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::span<const double>> views(bad.begin(), bad.end());
    try {
      (void)w.pipeline.transform(views);
      ADD_FAILURE() << "a NaN in view " << k << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("for trial " + std::to_string(k) +
                                           " "),
                std::string::npos)
          << e.what();
    }
  }

  const Matrix x = oracle_features(w);
  const std::string stream = saved(w.forest);
  const Matrix expected = reference_proba(stream, x);
  EXPECT_EQ(mismatches(w.forest.predict_proba(x), expected), 0u);
  ml::RandomForest loaded;
  ByteReader in(stream, "model");
  loaded.load(in);
  EXPECT_EQ(mismatches(loaded.predict_proba(x), expected), 0u);
  EXPECT_EQ(saved(loaded), stream) << "save(load(save(f))) must be stable";
}

/// Cells of `row` whose bits differ from `expected` (== plus the sign of
/// zero; every value here is finite).
std::size_t bit_mismatches(std::span<const double> row,
                           const std::vector<double>& expected) {
  EXPECT_EQ(row.size(), expected.size());
  if (row.size() != expected.size()) return row.size() + expected.size();
  std::size_t bad = 0;
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (!(row[k] == expected[k]) ||
        std::signbit(row[k]) != std::signbit(expected[k])) {
      ++bad;
    }
  }
  return bad;
}

/// Unit normals, with about one value in four replaced by −0.0, +0.0, a
/// subnormal or a magnitude up to 1e150 (products stay below 1e300, so 540
/// of them still sum to a finite value).
double awkward_value(Rng& rng) {
  const double v = rng.normal();
  switch (rng.uniform_index(16)) {
    case 0:
      return -0.0;
    case 1:
      return 0.0;
    case 2:
      return v * std::numeric_limits<double>::denorm_min() * 1e3;
    case 3:
      return v * 1e150;
    default:
      return v;
  }
}

/// Mean 0 and scale 1: (x − 0) / 1 keeps every value's bits, −0.0 and
/// subnormals included, so the fused entry point reduces the raw windows.
preprocess::StandardScaler identity_scaler(std::size_t width) {
  return preprocess::StandardScaler::restore(linalg::Vector(width, 0.0),
                                             linalg::Vector(width, 1.0));
}

/// Runs `check` on every instance in `kernels` this CPU supports, and says
/// which it skipped and why.
template <typename Kernel, typename Check>
void for_each_instance(std::span<const Kernel> kernels, const Check& check) {
  for (const Kernel& kernel : kernels) {
    if (!kernel.supported) {
      std::printf("[  SKIPPED ] the %s instance: this CPU does not support "
                  "it\n",
                  kernel.name);
      continue;
    }
    SCOPED_TRACE(testing::Message() << "the " << kernel.name << " instance");
    check(kernel);
  }
}

using preprocess::covariance_kernels;
using preprocess::CovarianceKernel;

TEST(InferenceOracle, LaneKernelMatchesPairByPairLoop) {
  for_each_instance(covariance_kernels(), [](const CovarianceKernel& kernel) {
    Rng rng(0x1A7E5ULL);
    for (const std::size_t sensors : {1u, 2u, 3u, 4u, 7u, 8u, 13u, 70u}) {
      for (const std::size_t steps : {1u, 2u, 60u, 540u}) {
        SCOPED_TRACE(testing::Message() << sensors << " sensors, " << steps
                                        << " steps");
        // Each window in its own vector, so its last row ends where its
        // allocation does, as do the scaler's means and scales: a kernel
        // that reads past any of them trips AddressSanitizer.
        std::vector<std::vector<double>> x(3);
        for (std::vector<double>& window : x) {
          window.resize(steps * sensors);
          for (double& v : window) v = awkward_value(rng);
        }
        const std::vector<std::span<const double>> views(x.begin(), x.end());
        const Matrix raw = preprocess::standardized_covariance_features(
            kernel, views, steps, sensors, identity_scaler(steps * sensors));
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(bit_mismatches(raw.row(i),
                                   pairwise_covariance(x[i], steps, sensors)),
                    0u);
        }
        linalg::Vector means(steps * sensors), scales(steps * sensors);
        for (double& m : means) m = rng.normal();
        for (double& sc : scales) sc = rng.uniform(0.5, 2.0);
        const auto scaler = preprocess::StandardScaler::restore(means, scales);
        const Matrix fused = preprocess::standardized_covariance_features(
            kernel, views, steps, sensors, scaler);
        std::vector<double> scaled(steps * sensors);
        for (std::size_t i = 0; i < x.size(); ++i) {
          scaler.transform_row(x[i], scaled);
          EXPECT_EQ(bit_mismatches(fused.row(i), pairwise_covariance(
                                                     scaled, steps, sensors)),
                    0u);
        }
      }
    }
  });
}

TEST(InferenceOracle, LaneKernelNeverFusesMultiplyAdd) {
  // Two steps of 7 sensors through an identity scaler. Pair (0, 1) sums
  // 1·(−1) and then (1 + 2⁻³⁰)(1 − 2⁻³⁰) = 1 − 2⁻⁶⁰: rounded to 1.0 on
  // its own the sum is exactly +0.0, while a fused multiply-add keeps the
  // product exact and gives −2⁻⁶⁰.
  const double eps = std::ldexp(1.0, -30);
  const std::vector<double> window = {
      1.0,       -1.0,      0.5, 0.25, 2.0,  -3.0,  4.0,  // step 0
      1.0 + eps, 1.0 - eps, 0.0, 1.0,  -1.0, 0.125, 8.0,  // step 1
  };
  const std::vector<std::span<const double>> views = {window};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr std::uint64_t kPlusZero = 0;
  const std::vector<double> want = pairwise_covariance(window, 2, 7);
  ASSERT_EQ(bits(want[1]), kPlusZero);
  for_each_instance(covariance_kernels(), [&](const CovarianceKernel& kernel) {
    const Matrix got = preprocess::standardized_covariance_features(
        kernel, views, 2, 7, identity_scaler(window.size()));
    EXPECT_EQ(bits(got(0, 1)), kPlusZero)
        << got(0, 1) << ": a multiply-add was fused";
    EXPECT_EQ(bit_mismatches(got.row(0), want), 0u);
  });
}

TEST(InferenceOracle, LaneKernelMatchesPairByPairLoopOnRepairedWindows) {
  const OracleWorld& w = world();
  for (const double severity : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(testing::Message() << "severity " << severity);
    const data::Tensor3 windows = repaired_test_set(w, severity);
    const std::size_t steps = windows.steps(), sensors = windows.sensors();
    const Matrix served = w.pipeline.transform(windows);
    for_each_instance(covariance_kernels(), [&](const auto& kernel) {
      const Matrix raw = preprocess::standardized_covariance_features(
          kernel, windows.trial_views(), steps, sensors,
          identity_scaler(steps * sensors));
      const Matrix fused = preprocess::standardized_covariance_features(
          kernel, windows.trial_views(), steps, sensors,
          w.pipeline.scaler());
      std::vector<double> scaled(steps * sensors);
      for (std::size_t i = 0; i < windows.trials(); ++i) {
        EXPECT_EQ(bit_mismatches(raw.row(i), pairwise_covariance(
                                                 windows.trial(i), steps,
                                                 sensors)),
                  0u);
        w.pipeline.scaler().transform_row(windows.trial(i), scaled);
        const std::vector<double> want =
            pairwise_covariance(scaled, steps, sensors);
        EXPECT_EQ(bit_mismatches(fused.row(i), want), 0u);
        EXPECT_EQ(bit_mismatches(served.row(i), want), 0u);
      }
    });
  }
}

TEST(InferenceOracle, LaneKernelRefusesEveryNonFiniteInputPosition) {
  constexpr std::size_t kTrials = 3, kSteps = 5, kSensors = 7, kBad = 1;
  Rng rng(0xBADULL);
  data::Tensor3 clean(kTrials, kSteps, kSensors);
  for (double& v : clean.raw()) v = rng.normal();
  linalg::Vector ones(kSteps * kSensors, 1.0);
  const auto scaler = preprocess::StandardScaler::restore(ones, ones);
  const std::string names_trial = "for trial " + std::to_string(kBad) + " ";
  const auto expect_refused = [&](const auto& call, const char* entry) {
    try {
      (void)call();
      ADD_FAILURE() << entry << " accepted a non-finite input";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(names_trial), std::string::npos)
          << entry << ": " << e.what();
    }
  };
  for_each_instance(covariance_kernels(), [&](const CovarianceKernel& kernel) {
    for (const double special : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()}) {
      for (std::size_t cell = 0; cell < kSteps * kSensors; ++cell) {
        SCOPED_TRACE(testing::Message() << special << " at step "
                                        << cell / kSensors << ", sensor "
                                        << cell % kSensors);
        data::Tensor3 x = clean;
        x.trial(kBad)[cell] = special;
        expect_refused(
            [&] {
              return preprocess::standardized_covariance_features(
                  kernel, x.trial_views(), kSteps, kSensors, scaler);
            },
            "standardized_covariance_features");
      }
    }
  });
}

TEST(InferenceOracle, BuildOrderStreamCompilesToTheSamePredictions) {
  // Streams whose trees are in DecisionTree build order (pre-order, the
  // layout earlier releases wrote) load and predict like their trees.
  const OracleWorld& w = world();
  const Matrix train = w.pipeline.transform(w.ds.x_train);
  constexpr std::uint64_t kTrees = 5;
  ByteWriter stream(saved(w.forest).substr(0, 16));  // magic, class count
  stream.u64(kTrees);
  for (std::uint64_t t = 0; t < kTrees; ++t) {
    ml::DecisionTreeConfig config;
    config.max_features = 4;
    ml::DecisionTree tree(config, 100 + t);
    tree.fit(train, w.ds.y_train);  // same labels → same class count
    tree.save(stream);
  }
  const std::string build_order = stream.take();
  ml::RandomForest forest;
  ByteReader in(build_order, "model");
  forest.load(in);
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

// --------------------------------------------------------------- vote path

/// Each row's column of largest value, the lowest column on a tie.
std::vector<int> argmax_rows(const Matrix& p) {
  std::vector<int> out;
  for (std::size_t r = 0; r < p.rows(); ++r) {
    const auto row = p.row(r);
    out.push_back(static_cast<int>(std::max_element(row.begin(), row.end()) -
                                   row.begin()));
  }
  return out;
}

/// predict_proba equals the summed reference on every double, predict is
/// its argmax, and 64 rows labelled in one batch get the labels they get
/// one batch at a time.
void expect_forest_matches_reference(const ml::RandomForest& forest,
                                     const Matrix& x) {
  const Matrix proba = forest.predict_proba(x);
  EXPECT_EQ(mismatches(proba, reference_proba(saved(forest), x)), 0u);
  EXPECT_EQ(forest.predict(x), argmax_rows(proba));
  Matrix batch(64, x.cols());
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    const auto src = x.row(r % x.rows());
    std::copy(src.begin(), src.end(), batch.row(r).begin());
  }
  std::vector<int> alone;
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    Matrix one(1, x.cols());
    std::copy(batch.row(r).begin(), batch.row(r).end(), one.row(0).begin());
    alone.push_back(forest.predict(one).front());
  }
  EXPECT_EQ(forest.predict(batch), alone);
  EXPECT_EQ(alone, argmax_rows(forest.predict_proba(batch)));
}

TEST(InferenceOracle, VoteCountsAndEarlyExitMatchTheSummedReference) {
  struct Case {
    const char* name;
    const OracleWorld& w;
    bool one_hot;
  };
  const Case cases[] = {{"depth-capped 45x7", world(), false},
                        {"one-hot 60x7", one_hot_world(60), true},
                        {"one-hot 540x7", one_hot_world(540), true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.w.forest.one_hot(), c.one_hot);
    for (const double severity : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE(testing::Message() << "severity " << severity);
      expect_forest_matches_reference(
          c.w.forest, c.w.pipeline.transform(repaired_test_set(c.w, severity)));
    }
    // Every severity at once (more than one row block), plus NaN and ±inf.
    expect_forest_matches_reference(c.w.forest, oracle_features(c.w));
  }
}

/// An SCWC_RF1 stream of 3-class trees, one per column of `votes`. Every
/// tree splits feature 0 at 1.5, then at 0.5 and 2.5, so a row whose
/// feature 0 is v ∈ {0, 1, 2, 3} reaches leaf v, which in tree t stores
/// 1.0 for class votes[v][t] (`first` instead in tree 0's leaf 1). Every
/// node stores majority 0, which the forest must ignore.
std::string crafted_forest(const std::vector<std::vector<int>>& votes,
                           double first = 1.0) {
  constexpr std::uint64_t kClasses = 3;
  const std::size_t trees = votes.front().size();
  ByteWriter w;
  w.u64(0x534357435F524631ULL);  // "SCWC_RF1"
  w.u64(kClasses);
  w.u64(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    w.u64(kClasses);
    w.u64(2);  // depth
    w.u64(7);  // nodes
    for (const auto& [threshold, left] :
         {std::pair{1.5, 1}, std::pair{0.5, 3}, std::pair{2.5, 5}}) {
      w.i64(0);
      w.f64(threshold);
      w.i64(left);
      w.i64(left + 1);
      w.i64(0);
      w.u64(0);
    }
    for (std::size_t v = 0; v < 4; ++v) {
      w.i64(-1);
      w.f64(0.0);
      w.i64(-1);
      w.i64(-1);
      w.i64(0);
      w.u64(kClasses);
      for (std::size_t c = 0; c < kClasses; ++c) {
        const bool voted = static_cast<int>(c) == votes[v][t];
        w.f64(!voted ? 0.0 : t == 0 && v == 1 ? first : 1.0);
      }
    }
  }
  return w.take();
}

// Row kind v votes kVotes[v][t] in tree t.
const std::vector<std::vector<int>> kVotes = {
    {2, 2, 2, 2, 2, 1, 0, 0, 0, 0, 0},  // 5:5 tie of classes 2 and 0 → 0
    {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1},  // level until the last tree → 1
    {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2},  // the last tree leaves a tie → 0
    {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},  // unanimous → 1
};
const std::vector<int> kWinners = {0, 1, 0, 1};

ml::RandomForest load_forest(const std::string& stream) {
  ml::RandomForest forest;
  ByteReader in(stream, "model");
  forest.load(in);
  return forest;
}

/// 64 rows cycling through the four row kinds of crafted_forest.
Matrix crafted_rows() {
  Matrix x(64, 1);
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 0) = static_cast<double>(r % 4);
  return x;
}

TEST(InferenceOracle, CraftedVotesTieToTheLowestClassAndCountTheLastTree) {
  const ml::RandomForest forest = load_forest(crafted_forest(kVotes));
  ASSERT_TRUE(forest.one_hot());
  const Matrix x = crafted_rows();
  std::vector<int> want;
  for (std::size_t r = 0; r < x.rows(); ++r) want.push_back(kWinners[r % 4]);
  EXPECT_EQ(forest.predict(x), want);
  expect_forest_matches_reference(forest, x);

  // One stored fraction of 0.5 makes a leaf impure: the forest sums
  // fractions, and row kind 1 scores 5.5/11 for class 1, not 6/11.
  const ml::RandomForest half = load_forest(crafted_forest(kVotes, 0.5));
  EXPECT_FALSE(half.one_hot());
  EXPECT_EQ(half.predict(x), want);
  expect_forest_matches_reference(half, x);
}

TEST(InferenceOracle, EarlyExitSkipsExactlyTheWalksThatCannotMatter) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics are off (SCWC_OBS)";
  const ml::RandomForest forest = load_forest(crafted_forest(kVotes));
  const auto counts = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    return std::pair{
        obs::counter_value(snap, "scwc_ml_rf_tree_walks_total"),
        obs::counter_value(snap, "scwc_ml_rf_tree_walks_skipped_total")};
  };
  const auto walks_of = [&](const ml::RandomForest& model, const Matrix& x) {
    const auto [walks, skipped] = counts();
    (void)model.predict(x);
    const auto [walks_after, skipped_after] = counts();
    return std::pair{walks_after - walks, skipped_after - skipped};
  };
  // A block is checked after every tree. The 16 unanimous rows are decided
  // after 6 trees (6 − 0 > 11 − 6, but not 5 − 0 > 11 − 5); the other 48
  // walk all 11.
  EXPECT_EQ(walks_of(forest, crafted_rows()),
            (std::pair<std::uint64_t, std::uint64_t>{16 * 6 + 48 * 11,
                                                     16 * 5}));
  // A single row is checked after every 8 trees: the unanimous row stops
  // after 8 (8 > 3); the others walk all 11.
  for (std::size_t v = 0; v < 4; ++v) {
    Matrix one(1, 1);
    one(0, 0) = static_cast<double>(v);
    const std::uint64_t walked = v == 3 ? 8 : 11;
    EXPECT_EQ(walks_of(forest, one),
              (std::pair<std::uint64_t, std::uint64_t>{walked, 11 - walked}))
        << "row kind " << v;
  }
  // predict_proba walks every tree.
  const auto [walks, skipped] = counts();
  (void)forest.predict_proba(crafted_rows());
  EXPECT_EQ(counts(),
            (std::pair<std::uint64_t, std::uint64_t>{walks + 64 * 11, skipped}));
  // On the served geometry early exit fires on real windows.
  const OracleWorld& w = one_hot_world(60);
  const Matrix features = w.pipeline.transform(w.ds.x_test);
  const auto [served_walks, served_skipped] = walks_of(w.forest, features);
  EXPECT_EQ(served_walks + served_skipped,
            features.rows() * w.forest.tree_count());
  EXPECT_GT(served_skipped, 0u);
}

// ------------------------------------------------------------------ repair

/// The column-by-column repair and its separate counting pass, as the
/// guard ran them before the one-pass WindowRepairer: each sensor column is
/// walked at stride `sensors` and repaired from the list of its finite
/// steps.
namespace column_repair {

double prior_for(const robust::ImputationConfig& config, std::size_t sensor) {
  if (sensor < config.sensor_prior_means.size()) {
    const double m = config.sensor_prior_means[sensor];
    if (std::isfinite(m)) return m;
  }
  return 0.0;
}

template <typename Get, typename Set>
void repair_column(std::size_t steps, const std::vector<std::size_t>& finite,
                   robust::Imputation policy, double prior, const Get& value,
                   const Set& set) {
  if (finite.empty()) {
    for (std::size_t t = 0; t < steps; ++t) set(t, prior);
    return;
  }
  if (policy == robust::Imputation::kPriorMean) {
    for (std::size_t t = 0; t < steps; ++t) {
      if (!std::isfinite(value(t))) set(t, prior);
    }
    return;
  }
  std::size_t next_idx = 0;
  bool have_prev = false;
  std::size_t prev = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    if (next_idx < finite.size() && finite[next_idx] == t) {
      prev = t;
      have_prev = true;
      ++next_idx;
      continue;
    }
    if (!have_prev) {
      set(t, value(finite.front()));
    } else if (next_idx >= finite.size()) {
      set(t, value(prev));
    } else if (policy == robust::Imputation::kForwardFill) {
      set(t, value(prev));
    } else {
      const std::size_t next = finite[next_idx];
      const double lo_v = value(prev);
      const double hi_v = value(next);
      const double frac = static_cast<double>(t - prev) /
                          static_cast<double>(next - prev);
      set(t, lo_v + (hi_v - lo_v) * frac);
    }
  }
}

void impute_window(std::span<double> window, std::size_t steps,
                   std::size_t sensors, const robust::ImputationConfig& config,
                   robust::QualityReport& report) {
  for (std::size_t s = 0; s < sensors; ++s) {
    std::vector<std::size_t> finite;
    std::size_t missing = 0;
    for (std::size_t t = 0; t < steps; ++t) {
      if (std::isfinite(window[t * sensors + s])) {
        finite.push_back(t);
      } else {
        ++missing;
      }
    }
    if (missing == 0) continue;
    repair_column(
        steps, finite, config.policy, prior_for(config, s),
        [&](std::size_t t) { return window[t * sensors + s]; },
        [&](std::size_t t, double v) {
          window[t * sensors + s] = v;
          ++report.repaired_values;
        });
  }
}

/// Missing values, fully-missing steps and dead sensors.
void account(std::span<const double> window, std::size_t steps,
             std::size_t sensors, robust::QualityReport& report) {
  std::vector<std::size_t> finite_per_sensor(sensors, 0);
  for (std::size_t t = 0; t < steps; ++t) {
    std::size_t missing_here = 0;
    for (std::size_t s = 0; s < sensors; ++s) {
      if (std::isfinite(window[t * sensors + s])) {
        ++finite_per_sensor[s];
      } else {
        ++missing_here;
      }
    }
    report.missing_values += missing_here;
    if (missing_here == sensors) ++report.missing_steps;
  }
  for (std::size_t s = 0; s < sensors; ++s) {
    if (finite_per_sensor[s] == 0) ++report.dead_sensors;
  }
}

}  // namespace column_repair

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr robust::Imputation kPolicies[] = {robust::Imputation::kForwardFill,
                                            robust::Imputation::kLinear,
                                            robust::Imputation::kPriorMean};

void expect_same_report(const robust::QualityReport& got,
                        const robust::QualityReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.sensors, want.sensors) << what;
  EXPECT_EQ(got.missing_values, want.missing_values) << what;
  EXPECT_EQ(got.missing_steps, want.missing_steps) << what;
  EXPECT_EQ(got.dead_sensors, want.dead_sensors) << what;
  EXPECT_EQ(got.truncated_steps, want.truncated_steps) << what;
  EXPECT_EQ(got.repaired_values, want.repaired_values) << what;
  EXPECT_EQ(got.shape_ok, want.shape_ok) << what;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Priors for `sensors` sensors, deliberately partial (the last sensor has
/// none, so it falls back to 0) and with one non-finite entry.
std::vector<double> test_priors(std::size_t sensors) {
  std::vector<double> priors(sensors > 0 ? sensors - 1 : 0);
  for (std::size_t s = 0; s < priors.size(); ++s) {
    priors[s] = 3.25 * static_cast<double>(s) - 1.5;
  }
  if (priors.size() > 2) priors[2] = kNaN;
  return priors;
}

using robust::repair_kernels;
using robust::RepairKernel;

/// Repairs `raw` (steps×sensors) under every policy through `kernel`'s
/// instance of the one-pass WindowRepairer and through impute_window, and
/// checks both against the column-by-column reference bit for bit.
void expect_repair_matches(const RepairKernel& kernel,
                           std::span<const double> raw, std::size_t steps,
                           std::size_t sensors, const std::string& what) {
  for (const robust::Imputation policy : kPolicies) {
    const std::string label = what + " / " + robust::imputation_name(policy);
    robust::ImputationConfig config;
    config.policy = policy;
    config.sensor_prior_means = test_priors(sensors);

    std::vector<double> want(raw.begin(), raw.end());
    robust::QualityReport want_report;
    column_repair::account(want, steps, sensors, want_report);
    column_repair::impute_window(want, steps, sensors, config, want_report);

    std::vector<double> got(raw.begin(), raw.end());
    robust::QualityReport got_report;
    robust::WindowRepairer repairer(sensors, config);
    kernel.repair(repairer, got, steps, got_report);
    EXPECT_TRUE(same_bits(got, want)) << label;
    expect_same_report(got_report, want_report, label);

    // The same repairer is reusable: its scratch is clean after a window.
    std::vector<double> again(raw.begin(), raw.end());
    robust::QualityReport again_report;
    kernel.repair(repairer, again, steps, again_report);
    EXPECT_TRUE(same_bits(again, want)) << label << " (reused)";
    expect_same_report(again_report, want_report, label + " (reused)");

    // impute_window is the same kernel and adds only repaired_values.
    std::vector<double> imputed(raw.begin(), raw.end());
    robust::QualityReport only_repairs;
    robust::impute_window(imputed, steps, sensors, config, only_repairs);
    robust::QualityReport want_repairs;
    want_repairs.repaired_values = want_report.repaired_values;
    EXPECT_TRUE(same_bits(imputed, want)) << label << " (impute_window)";
    expect_same_report(only_repairs, want_repairs, label + " (impute_window)");
  }
}

/// `steps`×`sensors` readings of a synthetic series, corrupted by
/// FaultInjector at `severity` and extracted through robust_extract_window
/// (so truncated tails arrive NaN-padded). Checks the extraction's counts
/// against the reference counting pass.
std::vector<double> faulted_window(std::size_t steps, std::size_t sensors,
                                   double severity, std::uint64_t seed) {
  telemetry::TimeSeries series;
  series.sample_hz = 1.0;
  series.values = Matrix(steps, sensors);
  Rng rng(seed);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t s = 0; s < sensors; ++s) {
      series.values(t, s) = 10.0 * static_cast<double>(s) + rng.normal();
    }
  }
  const robust::FaultInjector injector(
      robust::FaultProfile::at_severity(severity));
  injector.corrupt(series, rng);
  std::vector<double> window(steps * sensors);
  const robust::QualityReport extracted =
      robust::robust_extract_window(series, 0, steps, window);
  robust::QualityReport want;
  want.steps = steps;
  want.sensors = sensors;
  want.truncated_steps = steps - std::min(steps, series.steps());
  column_repair::account(window, steps, sensors, want);
  expect_same_report(extracted, want, "robust_extract_window");
  return window;
}

TEST(InferenceOracle, OnePassRepairMatchesColumnRepairUnderFaults) {
  struct Geometry {
    std::size_t steps, sensors, windows;
  };
  for_each_instance(repair_kernels(), [](const RepairKernel& kernel) {
    for (const Geometry g : {Geometry{540, 7, 24}, Geometry{60, 7, 48},
                             Geometry{45, 70, 8}}) {
      for (const double severity : {0.0, 0.25, 0.5, 1.0}) {
        for (std::size_t i = 0; i < g.windows; ++i) {
          const std::string what = std::to_string(g.steps) + "x" +
                                   std::to_string(g.sensors) + " severity " +
                                   std::to_string(severity) + " window " +
                                   std::to_string(i);
          const std::vector<double> raw = faulted_window(
              g.steps, g.sensors, severity, 0xFA17ULL + 97 * i);
          expect_repair_matches(kernel, raw, g.steps, g.sensors, what);
        }
      }
    }
  });
}

TEST(InferenceOracle, OnePassRepairMatchesColumnRepairOnEdgeCases) {
  for_each_instance(repair_kernels(), [](const RepairKernel& kernel) {
    // 6 steps × 3 sensors, one row per line.
    const std::vector<std::vector<double>> cases = {
        // dead sensor 1
        {1, kNaN, 2, 3, kNaN, 4, 5, kNaN, 6, 7, kNaN, 8, 9, kNaN, 1, 2, kNaN,
         3},
        // leading gaps of different lengths, trailing gaps, interior gaps
        {kNaN, kNaN, 1, kNaN, 2, 3, 4, 5, kNaN, kNaN, 6, kNaN, 7, kNaN, kNaN,
         8, 9, kNaN},
        // ±inf count as missing and never anchor a repair
        {kInf, 1, -kInf, 2, kInf, 3, -kInf, kNaN, 4, 5, 6, kInf, kNaN, -kInf,
         7, 8, 9, -kInf},
        // one finite reading per sensor: first step, last step, middle
        {1, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN, 3, kNaN, kNaN, kNaN,
         kNaN, kNaN, kNaN, kNaN, 2, kNaN},
        // NaN-padded truncated tail
        {1, 2, 3, 4, kNaN, 6, 7, 8, 9, kNaN, kNaN, kNaN, kNaN, kNaN, kNaN,
         kNaN, kNaN, kNaN},
        // all NaN
        std::vector<double>(18, kNaN),
        // nothing missing
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
      expect_repair_matches(kernel, cases[c], 6, 3,
                            "case " + std::to_string(c));
    }
    // 1-step windows: a lone finite value cannot anchor across steps.
    expect_repair_matches(kernel, std::vector<double>{kNaN, 1.0, -kInf}, 1, 3,
                          "1 step");
    expect_repair_matches(kernel, std::vector<double>(3, kNaN), 1, 3,
                          "1 step, all NaN");
    expect_repair_matches(kernel, std::vector<double>{1.0, 2.0, 3.0}, 1, 3,
                          "1 step, clean");
    // 70 sensors: more than one 64-bit word of per-sensor state. Sensor s is
    // missing on steps where (t + s) % (s % 5 + 2) == 0; sensors 64 and 69
    // are dead.
    constexpr std::size_t kSteps = 12, kSensors = 70;
    std::vector<double> wide(kSteps * kSensors);
    for (std::size_t t = 0; t < kSteps; ++t) {
      for (std::size_t s = 0; s < kSensors; ++s) {
        const bool missing =
            s == 64 || s == 69 || (t + s) % (s % 5 + 2) == 0;
        wide[t * kSensors + s] =
            missing ? kNaN : static_cast<double>(t * 100 + s) / 7.0;
      }
    }
    expect_repair_matches(kernel, wide, kSteps, kSensors, "70 sensors");

    // 7 sensors, the width the wider instances are built for: every one of
    // the 128 missing patterns is a row, with NaN of either sign and ±inf as
    // the missing readings and −0.0, subnormals and ±DBL_MAX (finite, the
    // largest magnitudes a row mask must pass) among the present ones.
    constexpr std::size_t kGpu = 7, kPatterns = 128;
    const double missing[] = {kNaN, -kNaN, kInf, -kInf};
    const double present[] = {-0.0,
                              0.0,
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::min() / 3,
                              std::numeric_limits<double>::max(),
                              -std::numeric_limits<double>::max(),
                              1e300,
                              -2.5};
    std::vector<double> patterns(kPatterns * kGpu);
    for (std::size_t t = 0; t < kPatterns; ++t) {
      for (std::size_t s = 0; s < kGpu; ++s) {
        patterns[t * kGpu + s] = ((t >> s) & 1) != 0
                                     ? missing[(t + s) % 4]
                                     : present[(3 * t + s) % 8];
      }
    }
    // Reversed too, so the last row (all missing) is not the only tail.
    std::vector<double> reversed(patterns.size());
    for (std::size_t t = 0; t < kPatterns; ++t) {
      std::copy_n(patterns.begin() + static_cast<std::ptrdiff_t>(t * kGpu),
                  kGpu,
                  reversed.end() - static_cast<std::ptrdiff_t>((t + 1) * kGpu));
    }
    expect_repair_matches(kernel, patterns, kPatterns, kGpu,
                          "7 sensors, every pattern");
    expect_repair_matches(kernel, reversed, kPatterns, kGpu,
                          "7 sensors, every pattern, reversed");
    for (std::size_t steps = 1; steps <= 3; ++steps) {
      expect_repair_matches(
          kernel, std::span<const double>(reversed).first(steps * kGpu), steps,
          kGpu, "7 sensors, " + std::to_string(steps) + " steps");
    }
  });
}

TEST(InferenceOracle, ClassifyBatchRepairsAsTheColumnRepairAndKeepsConstInput) {
  const OracleWorld& w = world();
  const data::ChallengeDataset& ds = w.ds;
  robust::GuardedConfig config;
  config.window_steps = ds.steps();
  config.sensors = ds.sensors();
  config.min_quality = 0.6;
  config.imputation.sensor_prior_means = w.priors;
  const robust::GuardedClassifier guard(w.pipeline, w.forest, config);

  std::size_t gated_batches = 0;  // batches where survivors != count
  for (const double severity : {0.0, 0.25, 0.5, 1.0}) {
    const robust::FaultInjector injector(
        robust::FaultProfile::at_severity(severity));
    data::Tensor3 damaged(ds.test_trials(), ds.steps(), ds.sensors());
    for (std::size_t i = 0; i < ds.test_trials(); ++i) {
      telemetry::TimeSeries series;
      series.sample_hz = w.sample_hz;
      series.values = ds.x_test.trial_matrix(i);
      Rng rng(0xBADULL + 13 * i);
      injector.corrupt(series, rng);
      (void)robust::robust_extract_window(series, 0, ds.steps(),
                                          damaged.trial(i));
    }
    const data::Tensor3& input = damaged;
    const std::vector<double> before(input.raw().begin(), input.raw().end());
    const std::vector<robust::GuardedPrediction> from_const =
        guard.classify_batch(input);
    EXPECT_TRUE(same_bits(input.raw(), before))
        << "classify_batch changed a const tensor, severity " << severity;

    data::Tensor3 moved = damaged;
    const std::vector<robust::GuardedPrediction> from_moved =
        guard.classify_batch(std::move(moved));
    // The view entry, each window in its own vector as a request holds it.
    std::vector<std::vector<double>> owned = owned_windows(damaged);
    const std::vector<std::span<double>> views(owned.begin(), owned.end());
    const std::vector<robust::GuardedPrediction> from_views =
        guard.classify_batch(views, ds.steps(), ds.sensors());
    ASSERT_EQ(from_const.size(), ds.test_trials());
    ASSERT_EQ(from_moved.size(), ds.test_trials());
    ASSERT_EQ(from_views.size(), ds.test_trials());
    // The reference: column repair, quality gate, then the model on the
    // survivors.
    data::Tensor3 repaired = damaged;
    std::vector<robust::QualityReport> want(ds.test_trials());
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < ds.test_trials(); ++i) {
      want[i].steps = ds.steps();
      want[i].sensors = ds.sensors();
      column_repair::account(repaired.trial(i), ds.steps(), ds.sensors(),
                             want[i]);
      column_repair::impute_window(repaired.trial(i), ds.steps(),
                                   ds.sensors(), config.imputation, want[i]);
      if (want[i].usable(config.min_quality)) survivors.push_back(i);
    }
    if (survivors.size() != ds.test_trials()) ++gated_batches;
    const std::vector<int> labels =
        survivors.empty() ? std::vector<int>{}
                          : w.forest.predict(w.pipeline.transform(
                                repaired.gather(survivors)));
    std::size_t next = 0;
    for (std::size_t i = 0; i < ds.test_trials(); ++i) {
      const std::string what = "severity " + std::to_string(severity) +
                               " window " + std::to_string(i);
      const bool answered = next < survivors.size() && survivors[next] == i;
      EXPECT_EQ(from_const[i].abstained, !answered) << what;
      if (answered) {
        EXPECT_EQ(from_const[i].label, labels[next++]) << what;
      }
      expect_same_report(from_const[i].report, want[i], what);
      expect_same_report(from_moved[i].report, want[i], what + " (moved)");
      expect_same_report(from_views[i].report, want[i], what + " (views)");
      EXPECT_EQ(from_const[i].label, from_moved[i].label) << what;
      EXPECT_EQ(from_const[i].reason, from_moved[i].reason) << what;
      EXPECT_EQ(from_views[i].label, from_const[i].label) << what;
      EXPECT_EQ(from_views[i].abstained, !answered) << what;
      EXPECT_EQ(from_views[i].reason, from_const[i].reason) << what;
      // The view entry repaired each caller's buffer in place.
      EXPECT_TRUE(same_bits(owned[i], repaired.trial(i))) << what;
    }
  }
  EXPECT_GT(gated_batches, 0u) << "no batch exercised the quality gate";
}

}  // namespace
}  // namespace scwc
