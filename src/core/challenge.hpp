// The Workload Classification Challenge dataset builder.
//
// Builds the seven Table-IV datasets (or any one of them) from a labelled
// corpus in one pass. Each train/test split is drawn from the job list
// before any sample is synthesised; each GPU series is then synthesised
// once, only up to the end of the latest of its 60-second windows (start,
// middle, random×5), and each window is written straight into its split.
// Trials are GPU series — a job with eight GPUs contributes eight labelled
// trials, as in the released npz files.
#pragma once

#include <cstdint>
#include <vector>

#include "common/env.hpp"
#include "data/challenge_dataset.hpp"
#include "data/split.hpp"
#include "telemetry/corpus.hpp"

namespace scwc::core {

/// Names of the seven datasets, in Table-IV order.
std::vector<std::string> challenge_dataset_names();

/// Builder configuration.
struct ChallengeConfig {
  std::size_t window_steps = 540;     ///< samples per window (paper: 540)
  double sample_hz = 9.0;             ///< GPU sensor sampling rate
  std::size_t random_draws = 5;       ///< number of 60-random-k datasets
  double test_fraction = 0.2;         ///< 80/20 split
  data::SplitUnit split_unit = data::SplitUnit::kTrial;  ///< paper-faithful
  std::uint64_t seed = 31337;
  /// Optional cap on total trials (0 = no cap); applied uniformly at the
  /// job level so class balance is preserved. Used by tests.
  std::size_t max_jobs = 0;

  /// Derives window parameters from a scale profile.
  static ChallengeConfig from_profile(const ScaleProfile& profile,
                                      std::uint64_t seed = 31337);
};

/// Builds all seven datasets (start, middle, random 1..5).
std::vector<data::ChallengeDataset> build_challenge_datasets(
    const telemetry::Corpus& corpus, const ChallengeConfig& config);

/// Builds a single dataset for one policy (random_index selects which of
/// the independent random draws, 0-based; ignored for start/middle). It
/// equals the same-named dataset of build_challenge_datasets byte for byte.
data::ChallengeDataset build_challenge_dataset(
    const telemetry::Corpus& corpus, const ChallengeConfig& config,
    data::WindowPolicy policy, std::size_t random_index = 0);

}  // namespace scwc::core
