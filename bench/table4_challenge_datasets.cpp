// Reproduces Table IV — the seven challenge datasets with their train/test
// trial counts, samples per trial and sensor count.
#include <iostream>

#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "telemetry/corpus.hpp"

int main() {
  using namespace scwc;

  const ScaleProfile profile = ScaleProfile::from_env("small");
  core::print_profile_banner(std::cout, profile,
                             "T4 — challenge datasets (Table IV)");

  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);

  const Stopwatch timer;
  const auto datasets = core::build_challenge_datasets(
      corpus, core::ChallengeConfig::from_profile(profile));
  const double build_s = timer.seconds();

  TextTable table("Table IV — Workload Classification Challenge datasets");
  table.set_header({"Dataset", "Training Trials", "Testing Trials", "Samples",
                    "Sensors"});
  for (const auto& ds : datasets) {
    table.add_row({ds.name, std::to_string(ds.train_trials()),
                   std::to_string(ds.test_trials()),
                   std::to_string(ds.steps()),
                   std::to_string(ds.sensors())});
  }
  std::cout << table;
  std::cout << "paper (full scale): 14,590/3,648 … 14,193/3,549 trials of "
               "540 samples x 7 sensors\n";
  std::cout << "built all seven datasets in " << build_s << " s ("
            << datasets[0].train_trials() + datasets[0].test_trials()
            << " GPU series long enough for a window, of the corpus's "
            << corpus.total_gpu_series() << "; each synthesised once, up to "
            << "the end of the last of its seven windows)\n";
  return 0;
}
