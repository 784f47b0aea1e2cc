// RNN baseline drivers (Section V / Table VI).
//
// table6_model_suite enumerates the six Table-VI rows with widths scaled by
// the active profile; run_rnn_experiment standardises a challenge dataset,
// trains one model with the Section-V protocol (Adam, cyclical cosine LR,
// dropout 0.5, early stopping) and reports the paper's metric — best
// validation accuracy — alongside held-out test accuracy.
#pragma once

#include <string>
#include <vector>

#include "common/env.hpp"
#include "data/challenge_dataset.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"

namespace scwc::core {

/// One Table-VI row: the model configuration plus its display label.
struct RnnExperimentSpec {
  nn::RnnModelConfig model;
  std::string label;
};

/// The six Table-VI models, widths scaled by `profile.rnn_hidden_scale`
/// (1.0 reproduces the paper's 128/256/512 exactly). `seq_len` is the
/// window length of the dataset the models will see.
std::vector<RnnExperimentSpec> table6_model_suite(const ScaleProfile& profile,
                                                  std::size_t seq_len);

/// Run configuration derived from the profile.
struct RnnRunConfig {
  nn::TrainerConfig trainer;
  std::size_t max_train_trials = 0;  ///< 0 = use the full training split
  std::uint64_t seed = 1618;

  static RnnRunConfig from_profile(const ScaleProfile& profile);
};

/// The Section-V inputs of an RNN run: the training split capped at
/// `max_train_trials` rows (ml::capped_rows, 0 = all) and the test split,
/// both standardised in place with a scaler fit on the capped training
/// rows — the paper's only RNN preprocessing.
struct RnnSplits {
  data::Tensor3 x_train;
  std::vector<int> y_train;
  data::Tensor3 x_val;
};

RnnSplits prepare_rnn_splits(const data::ChallengeDataset& ds,
                             std::size_t max_train_trials);

/// Outcome of one Table-VI cell.
struct RnnOutcome {
  std::string model_label;
  std::string dataset;
  double best_val_accuracy = 0.0;  ///< the number Table VI reports
  double test_accuracy = 0.0;      ///< extra: accuracy on the test split
  std::size_t epochs_run = 0;
  std::size_t best_epoch = 0;
  std::size_t parameters = 0;
  double seconds = 0.0;
};

RnnOutcome run_rnn_experiment(const data::ChallengeDataset& ds,
                              const RnnExperimentSpec& spec,
                              const RnnRunConfig& run);

}  // namespace scwc::core
