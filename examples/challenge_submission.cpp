// End-to-end challenge participation: build the released datasets, persist
// them (the .scb counterpart of the challenge npz files), train a model,
// emit a submission file and score it with the challenge metric
// (classification accuracy, §III-B).
//
//   ./challenge_submission [--scale tiny|small|full] [--out DIR]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/string_util.hpp"
#include "core/challenge.hpp"
#include "data/serialize.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "preprocess/pipeline.hpp"
#include "telemetry/architectures.hpp"
#include "telemetry/corpus.hpp"

int main(int argc, char** argv) {
  using namespace scwc;

  CliParser cli("Produce and score a WCC submission end to end.");
  cli.add_flag("scale", "tiny", "scale profile: tiny|small|full");
  cli.add_flag("out", "/tmp/scwc_challenge", "output directory");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const ScaleProfile profile = ScaleProfile::named(cli.get_string("scale"));
  const std::filesystem::path out_dir(cli.get_string("out"));
  std::filesystem::create_directories(out_dir);

  // 1) Organiser side: generate the corpus and release the seven datasets.
  std::cout << "building the seven challenge datasets...\n";
  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  const std::vector<data::ChallengeDataset> datasets =
      core::build_challenge_datasets(
          corpus, core::ChallengeConfig::from_profile(profile));
  for (const auto& ds : datasets) {
    const auto path = out_dir / (ds.name + ".scb");
    data::save_scb(ds, path);
    std::cout << "  " << path.string() << "  (train " << ds.train_trials()
              << ", test " << ds.test_trials() << ")\n";
  }

  // 2) Participant side: load a released dataset, train, predict the test
  //    split, write a submission CSV.
  const data::ChallengeDataset loaded =
      data::load_scb(out_dir / "60-random-1.scb");
  std::cout << "\ntraining a submission model on " << loaded.name << "...\n";
  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  const linalg::Matrix train_features = pipeline.fit_transform(loaded.x_train);
  const linalg::Matrix test_features = pipeline.transform(loaded.x_test);
  ml::RandomForestConfig forest_config;
  forest_config.n_estimators = 250;
  ml::RandomForest forest(forest_config);
  forest.fit(train_features, loaded.y_train);
  const std::vector<int> predictions = forest.predict(test_features);

  const auto submission_path = out_dir / "submission.csv";
  {
    std::ofstream os(submission_path);
    os << "trial,predicted_label,predicted_model\n";
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      os << i << ',' << predictions[i] << ','
         << telemetry::architecture(predictions[i]).name << '\n';
    }
  }
  std::cout << "wrote " << submission_path.string() << " ("
            << predictions.size() << " rows)\n";

  // 3) Organiser side again: score the submission.
  const double score = ml::accuracy(loaded.y_test, predictions);
  std::cout << "challenge score (test accuracy): "
            << format_fixed(score * 100.0, 2) << "%\n"
            << "paper baselines to beat on random windows: RF Cov. 90.05%, "
               "LSTM 90.81%, XGBoost 88.47%\n";
  return 0;
}
