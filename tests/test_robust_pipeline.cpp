// Robust-ingestion subsystem tests: fault injection determinism, gap
// extraction, imputation policies, quality gating, guarded inference, and
// the end-to-end degradation bound on 60-random-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/challenge.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/pipeline.hpp"
#include "robust/fault.hpp"
#include "robust/guarded_classifier.hpp"
#include "robust/quality.hpp"
#include "robust/robust_window.hpp"

namespace scwc::robust {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

telemetry::TimeSeries make_series(std::size_t steps, std::size_t sensors,
                                  std::uint64_t seed = 7) {
  telemetry::TimeSeries series;
  series.sample_hz = 1.0;
  series.values = linalg::Matrix(steps, sensors);
  Rng rng(seed);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t s = 0; s < sensors; ++s) {
      series.values(t, s) = 10.0 * static_cast<double>(s) + rng.normal();
    }
  }
  return series;
}

bool bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, ZeroSeverityIsBitForBitNoOp) {
  const telemetry::TimeSeries clean = make_series(64, 5);
  telemetry::TimeSeries series = clean;
  const FaultProfile profile = FaultProfile::at_severity(0.0);
  EXPECT_TRUE(profile.empty());
  Rng rng(123);
  const FaultSummary summary = FaultInjector(profile).corrupt(series, rng);
  EXPECT_EQ(summary.missing_values(5), 0u);
  EXPECT_EQ(summary.truncated_steps, 0u);
  EXPECT_TRUE(bitwise_equal(series.values, clean.values));
}

TEST(FaultInjector, SameSeedSameCorruption) {
  const FaultInjector injector(FaultProfile::at_severity(0.6));
  telemetry::TimeSeries a = make_series(120, 6);
  telemetry::TimeSeries b = a;
  Rng ra(555);
  Rng rb(555);
  injector.corrupt(a, ra);
  injector.corrupt(b, rb);
  ASSERT_EQ(a.values.rows(), b.values.rows());
  // NaN != NaN, so compare representations, not values.
  EXPECT_TRUE(bitwise_equal(a.values, b.values));
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  const FaultInjector injector(FaultProfile::at_severity(0.6));
  telemetry::TimeSeries a = make_series(120, 6);
  telemetry::TimeSeries b = a;
  Rng ra(1);
  Rng rb(2);
  injector.corrupt(a, ra);
  injector.corrupt(b, rb);
  EXPECT_FALSE(bitwise_equal(a.values, b.values));
}

TEST(FaultInjector, SummaryMatchesInjectedNaNs) {
  FaultProfile profile;  // dropout + NaN runs only → every loss is a NaN
  profile.dropout_fraction = 0.2;
  profile.nan_fraction = 0.1;
  telemetry::TimeSeries series = make_series(200, 4);
  Rng rng(42);
  const FaultSummary summary = FaultInjector(profile).corrupt(series, rng);
  std::size_t nan_count = 0;
  for (std::size_t t = 0; t < series.steps(); ++t) {
    for (std::size_t s = 0; s < series.sensors(); ++s) {
      if (!std::isfinite(series.values(t, s))) ++nan_count;
    }
  }
  EXPECT_EQ(nan_count, summary.missing_values(series.sensors()));
  EXPECT_GT(nan_count, 0u);
}

TEST(FaultInjector, TruncationKeepsAtLeastMinFraction) {
  FaultProfile profile;
  profile.truncation_probability = 1.0;
  profile.min_kept_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    telemetry::TimeSeries series = make_series(100, 3);
    Rng rng(seed);
    const FaultSummary summary = FaultInjector(profile).corrupt(series, rng);
    EXPECT_GE(series.steps(), 50u);
    EXPECT_LT(series.steps(), 100u);
    EXPECT_EQ(summary.truncated_steps, 100u - series.steps());
  }
}

// ------------------------------------------------------------- extraction

TEST(RobustWindow, ExtractPadsTruncatedTailWithNaN) {
  const telemetry::TimeSeries series = make_series(30, 3);
  std::vector<double> window(40 * 3);
  const QualityReport report =
      robust_extract_window(series, 0, 40, window);
  EXPECT_EQ(report.truncated_steps, 10u);
  EXPECT_EQ(report.missing_steps, 10u);
  EXPECT_EQ(report.missing_values, 30u);
  for (std::size_t t = 30; t < 40; ++t) {
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_TRUE(std::isnan(window[t * 3 + s]));
    }
  }
  // The present prefix is a plain copy.
  EXPECT_EQ(window[0], series.values(0, 0));
  EXPECT_EQ(window[29 * 3 + 2], series.values(29, 2));
}

TEST(RobustWindow, OffsetPastSeriesEndYieldsFullyMissingWindow) {
  const telemetry::TimeSeries series = make_series(10, 2);
  std::vector<double> window(5 * 2);
  const QualityReport report = robust_extract_window(series, 50, 5, window);
  EXPECT_EQ(report.missing_steps, 5u);
  EXPECT_EQ(report.dead_sensors, 2u);
  EXPECT_DOUBLE_EQ(report.quality(), 0.0);
  EXPECT_FALSE(report.usable(0.1));
}

// -------------------------------------------------------------- imputation

TEST(Imputation, LinearInterpolatesBetweenOriginalAnchors) {
  // One sensor: finite at t=1 (2.0) and t=4 (8.0), NaN in between.
  std::vector<double> window{kNaN, 2.0, kNaN, kNaN, 8.0, kNaN};
  ImputationConfig config;
  config.policy = Imputation::kLinear;
  QualityReport report;
  impute_window(window, 6, 1, config, report);
  EXPECT_DOUBLE_EQ(window[0], 2.0);  // leading gap backfills first finite
  EXPECT_DOUBLE_EQ(window[2], 4.0);
  EXPECT_DOUBLE_EQ(window[3], 6.0);
  EXPECT_DOUBLE_EQ(window[5], 8.0);  // trailing gap holds last finite
  EXPECT_EQ(report.repaired_values, 4u);
}

TEST(Imputation, ForwardFillHoldsLastFiniteReading) {
  std::vector<double> window{kNaN, 3.0, kNaN, kNaN, 9.0, kNaN};
  ImputationConfig config;
  config.policy = Imputation::kForwardFill;
  QualityReport report;
  impute_window(window, 6, 1, config, report);
  EXPECT_DOUBLE_EQ(window[0], 3.0);
  EXPECT_DOUBLE_EQ(window[2], 3.0);
  EXPECT_DOUBLE_EQ(window[3], 3.0);
  EXPECT_DOUBLE_EQ(window[5], 9.0);
}

TEST(Imputation, PriorMeanFillsFromTrainingPriors) {
  std::vector<double> window{kNaN, 1.0, kNaN, 5.0};  // 2 steps × 2 sensors
  ImputationConfig config;
  config.policy = Imputation::kPriorMean;
  config.sensor_prior_means = {100.0, 200.0};
  QualityReport report;
  impute_window(window, 2, 2, config, report);
  EXPECT_DOUBLE_EQ(window[0], 100.0);
  EXPECT_DOUBLE_EQ(window[1], 1.0);
  EXPECT_DOUBLE_EQ(window[2], 100.0);
  EXPECT_DOUBLE_EQ(window[3], 5.0);
}

TEST(Imputation, DeadSensorFallsBackToPriorForAllPolicies) {
  for (const Imputation policy :
       {Imputation::kForwardFill, Imputation::kLinear,
        Imputation::kPriorMean}) {
    std::vector<double> window{kNaN, 7.0, kNaN, 7.0, kNaN, 7.0};
    ImputationConfig config;
    config.policy = policy;
    config.sensor_prior_means = {42.0, 0.0};
    QualityReport report;
    impute_window(window, 3, 2, config, report);
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(window[t * 2], 42.0) << imputation_name(policy);
      EXPECT_DOUBLE_EQ(window[t * 2 + 1], 7.0) << imputation_name(policy);
    }
  }
}

TEST(Imputation, CleanColumnsAreLeftUntouchedBitForBit) {
  const telemetry::TimeSeries series = make_series(20, 4);
  std::vector<double> expected(series.values.data(),
                               series.values.data() + 20 * 4);
  std::vector<double> window = expected;
  window[5 * 4 + 1] = kNaN;  // poison one value in sensor 1 only
  ImputationConfig config;
  config.policy = Imputation::kLinear;
  QualityReport report;
  impute_window(window, 20, 4, config, report);
  EXPECT_EQ(report.repaired_values, 1u);
  for (std::size_t t = 0; t < 20; ++t) {
    for (std::size_t s = 0; s < 4; ++s) {
      if (s == 1) continue;
      // Bitwise identity, not just numeric closeness.
      EXPECT_EQ(std::memcmp(&window[t * 4 + s], &expected[t * 4 + s],
                            sizeof(double)),
                0);
    }
  }
  EXPECT_TRUE(std::isfinite(window[5 * 4 + 1]));
}

TEST(Imputation, SensorPriorMeansMatchManualAverage) {
  data::Tensor3 x(2, 2, 2);
  x(0, 0, 0) = 1.0;
  x(0, 1, 0) = 3.0;
  x(1, 0, 0) = 5.0;
  x(1, 1, 0) = 7.0;
  x(0, 0, 1) = -2.0;
  x(0, 1, 1) = -2.0;
  x(1, 0, 1) = -4.0;
  x(1, 1, 1) = -4.0;
  const std::vector<double> priors = sensor_prior_means(x);
  ASSERT_EQ(priors.size(), 2u);
  EXPECT_DOUBLE_EQ(priors[0], 4.0);
  EXPECT_DOUBLE_EQ(priors[1], -3.0);
}

// ----------------------------------------------------------- quality model

TEST(QualityReport, QualityFallsWithMissingness) {
  QualityReport clean;
  clean.steps = 10;
  clean.sensors = 2;
  clean.shape_ok = true;
  EXPECT_DOUBLE_EQ(clean.quality(), 1.0);
  EXPECT_TRUE(clean.usable(0.99));

  QualityReport half = clean;
  half.missing_values = 10;  // 50 % of 20 values
  EXPECT_LT(half.quality(), clean.quality());
  EXPECT_DOUBLE_EQ(half.missing_fraction(), 0.5);

  QualityReport bad = clean;
  bad.shape_ok = false;
  EXPECT_DOUBLE_EQ(bad.quality(), 0.0);
  EXPECT_FALSE(bad.usable(0.0001));
}

TEST(QualityReport, MajorityLabelBreaksTiesTowardSmallestId) {
  const std::vector<int> labels{3, 1, 3, 1, 2};
  EXPECT_EQ(majority_label(labels), 1);
  EXPECT_EQ(majority_label(std::vector<int>{}), GuardedConfig::kNoLabel);
  EXPECT_EQ(majority_label(std::vector<int>{9, 9, 4}), 9);
}

// ---------------------------------------------------- end-to-end pipeline

struct RobustWorld {
  data::ChallengeDataset ds;
  preprocess::FeaturePipeline pipeline{
      preprocess::FeaturePipelineConfig{preprocess::Reduction::kCovariance, 0}};
  ml::RandomForest forest{[] {
    ml::RandomForestConfig config;
    config.n_estimators = 60;
    return config;
  }()};
  linalg::Matrix test_clean;
  std::vector<int> clean_pred;
  std::vector<double> priors;
};

const RobustWorld& world() {
  static const RobustWorld w = [] {
    RobustWorld out;
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = 0.02;
    corpus_config.min_jobs_per_class = 4;
    corpus_config.seed = 99;
    const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
    core::ChallengeConfig config;
    config.window_steps = 45;
    config.sample_hz = 0.75;
    config.seed = 1234;
    out.ds = core::build_challenge_dataset(corpus, config,
                                           data::WindowPolicy::kRandom, 0);
    const linalg::Matrix train = out.pipeline.fit_transform(out.ds.x_train);
    out.test_clean = out.pipeline.transform(out.ds.x_test);
    out.forest.fit(train, out.ds.y_train);
    out.clean_pred = out.forest.predict(out.test_clean);
    out.priors = sensor_prior_means(out.ds.x_train);
    return out;
  }();
  return w;
}

/// Corrupts every test trial with `profile` (seeded per trial) and repairs
/// it through robust_window with the given policy.
data::Tensor3 corrupted_test_set(const data::ChallengeDataset& ds,
                                 const FaultProfile& profile,
                                 Imputation policy,
                                 const std::vector<double>& priors,
                                 std::uint64_t seed) {
  const FaultInjector injector(profile);
  ImputationConfig repair;
  repair.policy = policy;
  repair.sensor_prior_means = priors;
  data::Tensor3 out(ds.test_trials(), ds.steps(), ds.sensors());
  for (std::size_t i = 0; i < ds.test_trials(); ++i) {
    telemetry::TimeSeries series;
    series.sample_hz = 0.75;
    series.values = ds.x_test.trial_matrix(i);
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    injector.corrupt(series, rng);
    robust_window(series, 0, ds.steps(), repair, out.trial(i));
  }
  return out;
}

TEST(RobustPipeline, ZeroCorruptionPredictionsAreIdenticalToCleanPipeline) {
  const RobustWorld& w = world();
  const data::Tensor3 repaired = corrupted_test_set(
      w.ds, FaultProfile::at_severity(0.0), Imputation::kLinear, w.priors, 1);
  const linalg::Matrix features = w.pipeline.transform(repaired);
  ASSERT_EQ(features.rows(), w.test_clean.rows());
  ASSERT_EQ(features.cols(), w.test_clean.cols());
  // Bit-for-bit features → bit-for-bit predictions.
  EXPECT_EQ(std::memcmp(features.data(), w.test_clean.data(),
                        features.rows() * features.cols() * sizeof(double)),
            0);
  EXPECT_EQ(w.forest.predict(features), w.clean_pred);
}

TEST(RobustPipeline, TwentyPercentDropoutWithLinearImputationDegradesLittle) {
  // Acceptance bound from the issue: ≥20 % sample dropout repaired by
  // linear interpolation costs < 10 accuracy points absolute on the
  // 60-random-1 covariance-RF arm.
  const RobustWorld& w = world();
  FaultProfile profile;
  profile.dropout_fraction = 0.25;  // comfortably ≥ the 20 % bound
  const data::Tensor3 repaired = corrupted_test_set(
      w.ds, profile, Imputation::kLinear, w.priors, 777);
  const double clean_acc = ml::accuracy(w.ds.y_test, w.clean_pred);
  const double degraded_acc = ml::accuracy(
      w.ds.y_test, w.forest.predict(w.pipeline.transform(repaired)));
  EXPECT_GT(clean_acc, 0.4);  // the arm actually works at micro scale
  EXPECT_LT(clean_acc - degraded_acc, 0.10)
      << "clean " << clean_acc << " vs degraded " << degraded_acc;
}

TEST(RobustPipeline, ImputationBeatsNothingUnderHeavyCorruption) {
  // The repaired tensor must stay finite and classifiable even at high
  // severity — the raw corrupted tensor would make the pipeline throw.
  const RobustWorld& w = world();
  const data::Tensor3 repaired =
      corrupted_test_set(w.ds, FaultProfile::at_severity(0.8),
                         Imputation::kForwardFill, w.priors, 31);
  for (const double v : repaired.raw()) ASSERT_TRUE(std::isfinite(v));
  const double acc = ml::accuracy(
      w.ds.y_test, w.forest.predict(w.pipeline.transform(repaired)));
  EXPECT_GT(acc, 1.5 / 26.0);  // still clearly above chance
}

// ------------------------------------------------------ guarded inference

TEST(GuardedClassifier, NeverThrowsOnMalformedInput) {
  const RobustWorld& w = world();
  GuardedConfig config;
  config.window_steps = w.ds.steps();
  config.sensors = w.ds.sensors();
  config.fallback_label = majority_label(w.ds.y_train);
  config.imputation.sensor_prior_means = w.priors;
  const GuardedClassifier guarded(w.pipeline, w.forest, config);

  const std::size_t n = w.ds.steps() * w.ds.sensors();

  // All-NaN window.
  const std::vector<double> all_nan(n, kNaN);
  GuardedPrediction p;
  EXPECT_NO_THROW(p = guarded.classify(all_nan, w.ds.steps(),
                                       w.ds.sensors()));
  EXPECT_TRUE(p.abstained);
  EXPECT_EQ(p.label, config.fallback_label);

  // Empty input.
  EXPECT_NO_THROW(p = guarded.classify(std::span<const double>{},
                                       w.ds.steps(), w.ds.sensors()));
  EXPECT_TRUE(p.abstained);
  EXPECT_FALSE(p.report.shape_ok);

  // Wrong shape: too few values / transposed dims / zero dims.
  const std::vector<double> short_window(n / 2, 1.0);
  EXPECT_NO_THROW(
      p = guarded.classify(short_window, w.ds.steps(), w.ds.sensors()));
  EXPECT_TRUE(p.abstained);
  EXPECT_NO_THROW(p = guarded.classify(all_nan, w.ds.sensors(),
                                       w.ds.steps()));
  EXPECT_TRUE(p.abstained);
  EXPECT_NO_THROW(p = guarded.classify(std::span<const double>{}, 0, 0));
  EXPECT_TRUE(p.abstained);

  // Infinities are as hostile as NaN.
  std::vector<double> infs(n, std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(p = guarded.classify(infs, w.ds.steps(), w.ds.sensors()));
  EXPECT_TRUE(p.abstained);

  // A wrong-shape 2×2 matrix, passed as its row-major values.
  const linalg::Matrix tiny(2, 2);
  EXPECT_NO_THROW(p = guarded.classify(tiny.flat(), tiny.rows(), tiny.cols()));
  EXPECT_TRUE(p.abstained);

  // A view batch whose middle view is too short: that window abstains with
  // kShape, untouched; its neighbours are classified as on their own.
  std::vector<double> first(w.ds.x_test.trial(0).begin(),
                            w.ds.x_test.trial(0).end());
  std::vector<double> last(w.ds.x_test.trial(1).begin(),
                           w.ds.x_test.trial(1).end());
  std::vector<double> cut(n / 2, kNaN);
  const std::vector<std::span<double>> views = {first, cut, last};
  std::vector<GuardedPrediction> batch;
  EXPECT_NO_THROW(batch = guarded.classify_batch(views, w.ds.steps(),
                                                 w.ds.sensors()));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].reason, AbstainReason::kShape);
  EXPECT_FALSE(batch[1].report.shape_ok);
  EXPECT_TRUE(std::isnan(cut.front()));
  const auto expect_alone = [&](const GuardedPrediction& got,
                                std::size_t trial) {
    const GuardedPrediction alone = guarded.classify(
        w.ds.x_test.trial(trial), w.ds.steps(), w.ds.sensors());
    EXPECT_EQ(got.label, alone.label) << "trial " << trial;
    EXPECT_EQ(got.reason, alone.reason) << "trial " << trial;
  };
  expect_alone(batch[0], 0);
  expect_alone(batch[2], 1);
}

TEST(GuardedClassifier, CleanWindowMatchesDirectPipeline) {
  const RobustWorld& w = world();
  GuardedConfig config;
  config.window_steps = w.ds.steps();
  config.sensors = w.ds.sensors();
  config.imputation.sensor_prior_means = w.priors;
  const GuardedClassifier guarded(w.pipeline, w.forest, config);
  for (std::size_t i = 0; i < std::min<std::size_t>(w.ds.test_trials(), 10);
       ++i) {
    const GuardedPrediction p = guarded.classify(
        w.ds.x_test.trial(i), w.ds.steps(), w.ds.sensors());
    EXPECT_FALSE(p.abstained);
    EXPECT_EQ(p.label, w.clean_pred[i]) << "trial " << i;
    EXPECT_DOUBLE_EQ(p.report.quality(), 1.0);
  }
}

TEST(GuardedClassifier, AbstainsBelowQualityThreshold) {
  const RobustWorld& w = world();
  GuardedConfig config;
  config.window_steps = w.ds.steps();
  config.sensors = w.ds.sensors();
  config.min_quality = 0.9;
  config.fallback_label = majority_label(w.ds.y_train);
  config.imputation.sensor_prior_means = w.priors;
  const GuardedClassifier guarded(w.pipeline, w.forest, config);

  // Poison 20 % of values: quality 0.8 < 0.9 → must abstain.
  std::vector<double> window(w.ds.x_test.trial(0).begin(),
                             w.ds.x_test.trial(0).end());
  const std::size_t poisoned = window.size() / 5;
  for (std::size_t i = 0; i < poisoned; ++i) window[i * 5] = kNaN;
  const GuardedPrediction p =
      guarded.classify(window, w.ds.steps(), w.ds.sensors());
  EXPECT_TRUE(p.abstained);
  EXPECT_EQ(p.label, config.fallback_label);
  EXPECT_GT(p.report.missing_values, 0u);
}

TEST(GuardedClassifier, BatchTimingsIncludeRepairTime) {
  const RobustWorld& w = world();
  GuardedConfig config;
  config.window_steps = w.ds.steps();
  config.sensors = w.ds.sensors();
  config.imputation.sensor_prior_means = w.priors;
  const GuardedClassifier guarded(w.pipeline, w.forest, config);

  // Every window of the batch loses a run of values in sensor 0.
  const std::size_t count = std::min<std::size_t>(w.ds.test_trials(), 8);
  data::Tensor3 batch(count, w.ds.steps(), w.ds.sensors());
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(w.ds.x_test.trial(i).begin(), w.ds.x_test.trial(i).end(),
              batch.trial(i).begin());
    for (std::size_t t = 3; t < 9; ++t) {
      batch.trial(i)[t * batch.sensors()] = kNaN;
    }
  }
  BatchPhaseTimings timings;
  const std::vector<GuardedPrediction> out =
      guarded.classify_batch(std::move(batch), &timings);
  ASSERT_EQ(out.size(), count);
  EXPECT_EQ(out.front().report.repaired_values, 6u);
  EXPECT_GT(timings.impute_s, 0.0);
  EXPECT_GT(timings.transform_s, 0.0);
  EXPECT_GT(timings.predict_s, 0.0);

  BatchPhaseTimings empty{1.0, 1.0, 1.0};
  const data::Tensor3 none(0, w.ds.steps(), w.ds.sensors());
  EXPECT_TRUE(guarded.classify_batch(none, &empty).empty());
  EXPECT_DOUBLE_EQ(empty.impute_s, 0.0);
  EXPECT_DOUBLE_EQ(empty.transform_s, 0.0);
  EXPECT_DOUBLE_EQ(empty.predict_s, 0.0);
}

}  // namespace
}  // namespace scwc::robust
