#include "core/rnn_experiments.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "ml/model_selection.hpp"
#include "obs/trace.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::core {

namespace {

std::size_t scaled_hidden(std::size_t paper_hidden, double scale) {
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(
             static_cast<double>(paper_hidden) * scale)));
}

/// Conv front-end geometry adapted to short scaled windows: the paper's
/// stride-2 kernels assume 540 steps; on shorter windows we shrink kernels
/// so the pooled sequence keeps at least a handful of steps.
void configure_conv(nn::RnnModelConfig& m, std::size_t seq_len) {
  m.use_cnn = true;
  if (seq_len >= 256) {
    // Paper geometry: 540 → 65 steps (~8× shorter).
    m.conv1_kernel = 7;
    m.conv1_stride = 2;
    m.conv2_kernel = 5;
    m.conv2_stride = 2;
    m.pool = 2;
  } else {
    // Short scaled windows: strides of 2 everywhere would collapse the
    // sequence to a handful of steps and starve the LSTM; use unit strides
    // with a single pool (60 → ~26 steps, ~2.3× shorter).
    m.conv1_kernel = 5;
    m.conv1_stride = 1;
    m.conv2_kernel = 3;
    m.conv2_stride = 1;
    m.pool = 2;
  }
}

void configure_small_kernel(nn::RnnModelConfig& m) {
  // "smaller kernel and step size (and thus a longer sequence output
  //  length to be fed into the LSTM)"
  m.conv1_kernel = 3;
  m.conv1_stride = 1;
  m.conv2_kernel = 3;
  m.conv2_stride = 1;
  m.pool = 2;
}

}  // namespace

std::vector<RnnExperimentSpec> table6_model_suite(const ScaleProfile& profile,
                                                  std::size_t seq_len) {
  const double s = profile.rnn_hidden_scale;
  const std::size_t h128 = scaled_hidden(128, s);
  const std::size_t h256 = scaled_hidden(256, s);
  const std::size_t h512 = scaled_hidden(512, s);
  const std::size_t conv_ch = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(32.0 * std::sqrt(s))));

  nn::RnnModelConfig base;
  base.input_features = telemetry::kNumGpuSensors;
  base.seq_len = seq_len;
  base.num_classes = telemetry::kNumClasses;
  base.dropout = 0.5;
  base.conv_channels = conv_ch;

  std::vector<RnnExperimentSpec> suite;
  {
    nn::RnnModelConfig m = base;
    m.hidden = h128;
    suite.push_back({m, "LSTM (h=128)"});
  }
  {
    nn::RnnModelConfig m = base;
    m.hidden = h128;
    m.lstm_layers = 2;
    suite.push_back({m, "LSTM (h=128, 2-layer)"});
  }
  {
    nn::RnnModelConfig m = base;
    m.hidden = h128;
    configure_conv(m, seq_len);
    suite.push_back({m, "CNN-LSTM (h=128)"});
  }
  {
    nn::RnnModelConfig m = base;
    m.hidden = h256;
    configure_conv(m, seq_len);
    suite.push_back({m, "CNN-LSTM (h=256)"});
  }
  {
    nn::RnnModelConfig m = base;
    m.hidden = h512;
    configure_conv(m, seq_len);
    suite.push_back({m, "CNN-LSTM (h=512)"});
  }
  {
    nn::RnnModelConfig m = base;
    m.hidden = h512;
    configure_conv(m, seq_len);
    configure_small_kernel(m);
    suite.push_back({m, "CNN-LSTM (h=512, small kernel)"});
  }
  // Give every model its own deterministic seed.
  for (std::size_t i = 0; i < suite.size(); ++i) {
    suite[i].model.seed = 0xF00D + 101 * i;
  }
  return suite;
}

RnnRunConfig RnnRunConfig::from_profile(const ScaleProfile& profile) {
  RnnRunConfig run;
  run.trainer.max_epochs = profile.max_epochs;
  run.trainer.patience = profile.patience;
  run.trainer.batch_size = 32;
  run.trainer.max_lr = 6e-3;
  run.trainer.min_lr = 4e-4;
  run.trainer.cycle_epochs = 4;
  run.max_train_trials = profile.rnn_max_train;
  return run;
}

RnnSplits prepare_rnn_splits(const data::ChallengeDataset& ds,
                             std::size_t max_train_trials) {
  const std::vector<std::size_t> rows =
      ml::capped_rows(ds.train_trials(), max_train_trials);
  RnnSplits out{ds.x_train.gather(rows),
                ml::take_labels(ds.y_train, rows), ds.x_test};
  // kNone fits the scaler alone; its transform_row scales each trial where
  // it lies.
  preprocess::FeaturePipeline pipeline({preprocess::Reduction::kNone, 0});
  pipeline.fit(out.x_train);
  for (data::Tensor3* x : {&out.x_train, &out.x_val}) {
    for (std::size_t i = 0; i < x->trials(); ++i) {
      pipeline.scaler().transform_row(x->trial(i), x->trial(i));
    }
  }
  return out;
}

RnnOutcome run_rnn_experiment(const data::ChallengeDataset& ds,
                              const RnnExperimentSpec& spec,
                              const RnnRunConfig& run) {
  const Stopwatch timer;
  const obs::TraceSpan experiment_span("rnn.experiment");

  const RnnSplits splits = prepare_rnn_splits(ds, run.max_train_trials);
  const data::Tensor3& x_train = splits.x_train;
  const data::Tensor3& x_val = splits.x_val;
  const std::vector<int>& y_train = splits.y_train;

  nn::RnnModelConfig model_config = spec.model;
  model_config.seq_len = ds.steps();
  nn::SequenceClassifier model(model_config);

  nn::TrainerConfig trainer_config = run.trainer;
  trainer_config.seed = run.seed ^ (spec.model.seed * 31);
  nn::Trainer trainer(trainer_config);
  const nn::TrainResult result =
      trainer.fit(model, x_train, y_train, x_val, ds.y_test);

  RnnOutcome outcome;
  outcome.model_label = spec.label;
  outcome.dataset = ds.name;
  outcome.best_val_accuracy = result.best_val_accuracy;
  outcome.test_accuracy = nn::Trainer::evaluate(model, x_val, ds.y_test);
  outcome.epochs_run = result.epochs_run;
  outcome.best_epoch = result.best_epoch;
  outcome.parameters = model.parameter_count();
  outcome.seconds = timer.seconds();
  SCWC_LOG_INFO(spec.label << " on " << ds.name << ": best val "
                           << outcome.best_val_accuracy * 100.0 << "% in "
                           << outcome.epochs_run << " epochs ("
                           << outcome.seconds << "s)");
  return outcome;
}

}  // namespace scwc::core
