// Tests for the challenge dataset builder (Table IV pipeline).
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/challenge.hpp"
#include "data/split.hpp"
#include "data/window.hpp"
#include "telemetry/architectures.hpp"
#include "telemetry/gpu_synth.hpp"

namespace scwc::core {
namespace {

telemetry::Corpus micro_corpus(std::uint64_t seed = 11) {
  telemetry::CorpusConfig config;
  config.jobs_per_class_scale = 0.01;  // min_jobs_per_class dominates
  config.min_jobs_per_class = 3;
  config.seed = seed;
  return telemetry::generate_corpus(config);
}

ChallengeConfig micro_config() {
  ChallengeConfig config;
  config.window_steps = 30;
  config.sample_hz = 0.5;  // 60 s windows of 30 samples
  config.seed = 77;
  return config;
}

TEST(Challenge, DatasetNamesMatchPaperNaming) {
  const auto names = challenge_dataset_names();
  ASSERT_EQ(names.size(), 7u);  // Table IV: seven datasets
  EXPECT_EQ(names[0], "60-start-1");
  EXPECT_EQ(names[1], "60-middle-1");
  EXPECT_EQ(names[2], "60-random-1");
  EXPECT_EQ(names[6], "60-random-5");
}

TEST(Challenge, BuildsSevenConsistentDatasets) {
  const auto datasets =
      build_challenge_datasets(micro_corpus(), micro_config());
  ASSERT_EQ(datasets.size(), 7u);
  for (const auto& ds : datasets) {
    EXPECT_NO_THROW(ds.validate());
    EXPECT_EQ(ds.steps(), 30u);
    EXPECT_EQ(ds.sensors(), telemetry::kNumGpuSensors);
    EXPECT_GT(ds.train_trials(), 0u);
    EXPECT_GT(ds.test_trials(), 0u);
  }
  // All datasets cut from the same trial universe → same trial totals.
  const std::size_t total =
      datasets[0].train_trials() + datasets[0].test_trials();
  for (const auto& ds : datasets) {
    EXPECT_EQ(ds.train_trials() + ds.test_trials(), total);
  }
}

TEST(Challenge, SplitRatioIsEightyTwenty) {
  const auto datasets =
      build_challenge_datasets(micro_corpus(), micro_config());
  for (const auto& ds : datasets) {
    const double frac =
        static_cast<double>(ds.test_trials()) /
        static_cast<double>(ds.train_trials() + ds.test_trials());
    EXPECT_NEAR(frac, 0.2, 0.05) << ds.name;
  }
}

TEST(Challenge, EveryClassAppearsOnBothSides) {
  const auto ds = build_challenge_dataset(micro_corpus(), micro_config(),
                                          data::WindowPolicy::kMiddle);
  std::set<int> train_classes(ds.y_train.begin(), ds.y_train.end());
  std::set<int> test_classes(ds.y_test.begin(), ds.y_test.end());
  EXPECT_EQ(train_classes.size(), telemetry::kNumClasses);
  EXPECT_EQ(test_classes.size(), telemetry::kNumClasses);
}

/// The reference algorithm, kept as an oracle for the builders: synthesise
/// every GPU's full series, cut the window with choose_window_offset +
/// extract_window into a whole-trial tensor, then split it with
/// stratified_split and gather both sides. `random_index` seeds the window
/// draw and `split_salt` the split, as documented for the builders.
data::ChallengeDataset reference_dataset(const telemetry::Corpus& corpus,
                                         const ChallengeConfig& config,
                                         const std::string& name,
                                         data::WindowPolicy policy,
                                         std::size_t random_index,
                                         std::uint64_t split_salt) {
  EXPECT_EQ(config.max_jobs, 0u) << "the reference does not thin jobs";
  const std::vector<telemetry::JobSpec> jobs = corpus.jobs_running_at_least(
      static_cast<double>(config.window_steps) / config.sample_hz +
      1.0 / config.sample_hz);
  std::size_t trials = 0;
  for (const auto& job : jobs) trials += static_cast<std::size_t>(job.num_gpus);
  data::Tensor3 x(trials, config.window_steps, telemetry::kNumGpuSensors);
  std::vector<int> labels;
  std::vector<std::int64_t> job_ids;
  for (const auto& job : jobs) {
    for (int g = 0; g < job.num_gpus; ++g) {
      const telemetry::TimeSeries series =
          telemetry::synthesize_gpu_series(job, g, config.sample_hz);
      Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (random_index + 1)) ^
              (job.seed * 0xbf58476d1ce4e5b9ULL) ^
              static_cast<std::uint64_t>(g + 1));
      const auto offset = data::choose_window_offset(
          series.steps(), config.window_steps, policy, rng);
      EXPECT_TRUE(offset.has_value());
      data::extract_window(series, offset.value_or(0), config.window_steps,
                           x.trial(labels.size()));
      labels.push_back(job.class_id);
      job_ids.push_back(job.job_id);
    }
  }
  Rng split_rng(config.seed ^ (split_salt * 0x94d049bb133111ebULL));
  const data::SplitIndices split = data::stratified_split(
      labels, job_ids, config.test_fraction, config.split_unit, split_rng);

  data::ChallengeDataset out;
  out.name = name;
  out.policy = policy;
  out.x_train = x.gather(split.train);
  out.x_test = x.gather(split.test);
  for (const std::size_t r : split.train) {
    out.y_train.push_back(labels[r]);
    out.model_train.push_back(telemetry::architecture(labels[r]).name);
    out.job_train.push_back(job_ids[r]);
  }
  for (const std::size_t r : split.test) {
    out.y_test.push_back(labels[r]);
    out.model_test.push_back(telemetry::architecture(labels[r]).name);
    out.job_test.push_back(job_ids[r]);
  }
  return out;
}

/// Byte equality of the window tensors (shape and every double's bits).
bool same_bytes(const data::Tensor3& a, const data::Tensor3& b) {
  return a.trials() == b.trials() && a.steps() == b.steps() &&
         a.sensors() == b.sensors() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(double)) == 0;
}

void expect_same(const data::ChallengeDataset& got,
                 const data::ChallengeDataset& want) {
  SCOPED_TRACE(want.name);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_TRUE(same_bytes(got.x_train, want.x_train));
  EXPECT_TRUE(same_bytes(got.x_test, want.x_test));
  EXPECT_EQ(got.y_train, want.y_train);
  EXPECT_EQ(got.y_test, want.y_test);
  EXPECT_EQ(got.model_train, want.model_train);
  EXPECT_EQ(got.model_test, want.model_test);
  EXPECT_EQ(got.job_train, want.job_train);
  EXPECT_EQ(got.job_test, want.job_test);
}

TEST(Challenge, BuildersMatchFullSeriesReference) {
  const telemetry::Corpus corpus = micro_corpus();
  for (const data::SplitUnit unit :
       {data::SplitUnit::kTrial, data::SplitUnit::kJob}) {
    ChallengeConfig config = micro_config();
    config.split_unit = unit;
    SCOPED_TRACE(unit == data::SplitUnit::kTrial ? "kTrial" : "kJob");

    // Start, middle and random draws 0..6 with split salts 1..9: the first
    // seven are the Table-IV datasets, the last two lie past random_draws
    // and only the single-dataset builder makes them.
    const auto datasets = build_challenge_datasets(corpus, config);
    ASSERT_EQ(datasets.size(), 7u);
    for (std::size_t k = 0; k < 9; ++k) {
      const data::WindowPolicy policy =
          k == 0 ? data::WindowPolicy::kStart
          : k == 1 ? data::WindowPolicy::kMiddle
                   : data::WindowPolicy::kRandom;
      const std::size_t r = k < 2 ? 0 : k - 2;
      const std::string name = k == 0   ? "60-start-1"
                               : k == 1 ? "60-middle-1"
                                        : "60-random-" + std::to_string(r + 1);
      const data::ChallengeDataset want =
          reference_dataset(corpus, config, name, policy, r, k + 1);
      if (k < datasets.size()) expect_same(datasets[k], want);
      expect_same(build_challenge_dataset(corpus, config, policy, r), want);
    }
  }
}

TEST(Challenge, RandomDrawsDifferAcrossDatasets) {
  const auto datasets =
      build_challenge_datasets(micro_corpus(), micro_config());
  // 60-random-1 vs 60-random-2 must have different window contents.
  const auto& r1 = datasets[2];
  const auto& r2 = datasets[3];
  double diff = 0.0;
  const std::size_t n =
      std::min(r1.x_train.raw().size(), r2.x_train.raw().size());
  for (std::size_t i = 0; i < n; ++i) {
    diff += std::abs(r1.x_train.raw()[i] - r2.x_train.raw()[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Challenge, BuilderIsDeterministic) {
  const auto a = build_challenge_dataset(micro_corpus(), micro_config(),
                                         data::WindowPolicy::kRandom, 2);
  const auto b = build_challenge_dataset(micro_corpus(), micro_config(),
                                         data::WindowPolicy::kRandom, 2);
  EXPECT_EQ(a.y_train, b.y_train);
  ASSERT_EQ(a.x_train.raw().size(), b.x_train.raw().size());
  for (std::size_t i = 0; i < a.x_train.raw().size(); ++i) {
    EXPECT_EQ(a.x_train.raw()[i], b.x_train.raw()[i]);
  }
}

TEST(Challenge, SingleDatasetMatchesBatchBuilderMetadata) {
  const telemetry::Corpus corpus = micro_corpus();
  const ChallengeConfig config = micro_config();
  const auto batch = build_challenge_datasets(corpus, config);
  ASSERT_EQ(batch.size(), 7u);
  const auto single = build_challenge_dataset(corpus, config,
                                              data::WindowPolicy::kStart);
  EXPECT_EQ(single.name, batch[0].name);
  EXPECT_EQ(single.train_trials(), batch[0].train_trials());
  EXPECT_EQ(single.y_train, batch[0].y_train);
  // Every dataset of the batch equals its one-at-a-time build.
  expect_same(single, batch[0]);
  expect_same(build_challenge_dataset(corpus, config,
                                      data::WindowPolicy::kMiddle),
              batch[1]);
  for (std::size_t r = 0; r < 5; ++r) {
    expect_same(build_challenge_dataset(corpus, config,
                                        data::WindowPolicy::kRandom, r),
                batch[2 + r]);
  }
}

/// FNV-1a (64-bit) over a dataset's name, policy, tensors (shape and
/// bytes), labels, class names and job ids.
std::uint64_t fnv1a(const data::ChallengeDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  const auto mix_side = [&](const data::Tensor3& x, const std::vector<int>& y,
                            const std::vector<std::string>& models,
                            const std::vector<std::int64_t>& jobs) {
    const std::size_t shape[3] = {x.trials(), x.steps(), x.sensors()};
    mix(shape, sizeof shape);
    mix(x.raw().data(), x.raw().size() * sizeof(double));
    mix(y.data(), y.size() * sizeof(int));
    for (const std::string& m : models) mix(m.c_str(), m.size() + 1);
    mix(jobs.data(), jobs.size() * sizeof(std::int64_t));
  };
  mix(ds.name.c_str(), ds.name.size() + 1);
  const int policy = static_cast<int>(ds.policy);
  mix(&policy, sizeof policy);
  mix_side(ds.x_train, ds.y_train, ds.model_train, ds.job_train);
  mix_side(ds.x_test, ds.y_test, ds.model_test, ds.job_test);
  return h;
}

TEST(Challenge, MicroCorpusDatasetsHashToPinnedValues) {
  // Computed at commit b129141, whose builders still synthesised every
  // full series and gathered train/test out of a whole-trial tensor (the
  // reference_dataset algorithm above), so any change to a window, label,
  // name or the train/test order of any Table-IV dataset shows here.
  const std::uint64_t pinned[7] = {
      0xc2c67b36f5424267ULL,  // 60-start-1
      0x7e0dfc3295e5dfecULL,  // 60-middle-1
      0x703fc9668baf5179ULL,  // 60-random-1
      0x80b627980b5e4588ULL,  // 60-random-2
      0xa738f498addb5f3cULL,  // 60-random-3
      0xd3a98bed2b6e5856ULL,  // 60-random-4
      0x6a520bc58ab7b60bULL,  // 60-random-5
  };
  const auto datasets =
      build_challenge_datasets(micro_corpus(), micro_config());
  ASSERT_EQ(datasets.size(), 7u);
  for (std::size_t s = 0; s < datasets.size(); ++s) {
    EXPECT_EQ(fnv1a(datasets[s]), pinned[s])
        << datasets[s].name << ": 0x" << std::hex << fnv1a(datasets[s]);
  }
}

TEST(Challenge, ShortJobsAreFilteredOut) {
  const telemetry::Corpus corpus = micro_corpus();
  const ChallengeConfig config = micro_config();
  const double window_s = 30.0 / 0.5;
  std::size_t eligible_series = 0;
  for (const auto& j : corpus.jobs()) {
    if (j.duration_s >= window_s + 2.0) {
      eligible_series += static_cast<std::size_t>(j.num_gpus);
    }
  }
  const auto ds = build_challenge_dataset(corpus, config,
                                          data::WindowPolicy::kMiddle);
  // All built trials come from eligible jobs (within rounding margin).
  EXPECT_LE(ds.train_trials() + ds.test_trials(), eligible_series + 32);
}

TEST(Challenge, MaxJobsCapIsHonoured) {
  ChallengeConfig config = micro_config();
  config.max_jobs = 30;
  const auto ds = build_challenge_dataset(micro_corpus(), config,
                                          data::WindowPolicy::kMiddle);
  std::set<std::int64_t> jobs(ds.job_train.begin(), ds.job_train.end());
  jobs.insert(ds.job_test.begin(), ds.job_test.end());
  EXPECT_LE(jobs.size(), 30u);
}

TEST(Challenge, JobLevelSplitHasNoJobOverlap) {
  ChallengeConfig config = micro_config();
  config.split_unit = data::SplitUnit::kJob;
  const auto ds = build_challenge_dataset(micro_corpus(), config,
                                          data::WindowPolicy::kMiddle);
  const std::set<std::int64_t> train_jobs(ds.job_train.begin(),
                                          ds.job_train.end());
  for (const auto j : ds.job_test) {
    EXPECT_EQ(train_jobs.count(j), 0u);
  }
}

TEST(Challenge, FromProfileCopiesWindowParams) {
  const ScaleProfile profile = ScaleProfile::named("tiny");
  const ChallengeConfig config = ChallengeConfig::from_profile(profile);
  EXPECT_EQ(config.window_steps, profile.window_steps);
  EXPECT_DOUBLE_EQ(config.sample_hz, profile.sample_hz);
}

}  // namespace
}  // namespace scwc::core
