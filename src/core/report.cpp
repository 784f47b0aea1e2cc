#include "core/report.hpp"

#include <algorithm>
#include <ostream>

#include "common/string_util.hpp"
#include "common/table.hpp"

namespace scwc::core {

void print_profile_banner(std::ostream& os, const ScaleProfile& profile,
                          const std::string& experiment_id) {
  os << "== " << experiment_id << " ==\n"
     << "scale profile: " << profile.name << " (jobs/class x"
     << profile.jobs_per_class << ", window " << profile.window_steps
     << " steps @ " << profile.sample_hz << " Hz, rnn hidden x"
     << profile.rnn_hidden_scale << ")\n";
  if (profile.name != "full") {
    os << "note: substrate is a telemetry simulator at reduced scale; "
          "compare orderings/shapes to the paper, not absolute values. "
          "Run with SCWC_SCALE=full for paper-sized experiments.\n";
  }
}

namespace {

/// Short column header for a dataset name ("60-random-3" → "R3").
std::string dataset_column(const std::string& name) {
  if (name.find("start") != std::string::npos) return "Start";
  if (name.find("middle") != std::string::npos) return "Middle";
  const auto dash = name.rfind('-');
  // append, not "R" + substr: GCC 12 reports a false -Wrestrict for that.
  return std::string("R").append(name, dash + 1);
}

}  // namespace

void print_table5(std::ostream& os,
                  const std::vector<ClassicalOutcome>& outcomes,
                  const std::vector<std::string>& dataset_names) {
  TextTable table("Table V — SVM and RF test accuracy (%)");
  std::vector<std::string> header{"Model"};
  for (const auto& d : dataset_names) header.push_back(dataset_column(d));
  table.set_header(header);

  // Preserve the paper's row order.
  std::vector<std::string> row_order;
  for (const auto& o : outcomes) {
    if (std::find(row_order.begin(), row_order.end(), o.model_label) ==
        row_order.end()) {
      row_order.push_back(o.model_label);
    }
  }
  for (const auto& label : row_order) {
    std::vector<std::string> row{label};
    for (const auto& d : dataset_names) {
      std::string cell = "-";
      for (const auto& o : outcomes) {
        if (o.model_label == label && o.dataset == d) {
          cell = format_fixed(o.test_accuracy * 100.0, 2);
          break;
        }
      }
      row.push_back(cell);
    }
    table.add_row(row);
  }
  os << table;
}

void print_table6(std::ostream& os, const std::vector<RnnOutcome>& outcomes,
                  const std::vector<std::string>& dataset_names) {
  TextTable table("Table VI — RNN best validation accuracy (%)");
  std::vector<std::string> header{"Model"};
  for (const auto& d : dataset_names) {
    header.push_back(dataset_column(d) + " Dataset");
  }
  table.set_header(header);

  std::vector<std::string> row_order;
  for (const auto& o : outcomes) {
    if (std::find(row_order.begin(), row_order.end(), o.model_label) ==
        row_order.end()) {
      row_order.push_back(o.model_label);
    }
  }
  for (const auto& label : row_order) {
    std::vector<std::string> row{label};
    for (const auto& d : dataset_names) {
      std::string cell = "-";
      for (const auto& o : outcomes) {
        if (o.model_label == label && o.dataset == d) {
          cell = format_fixed(o.best_val_accuracy * 100.0, 2);
          break;
        }
      }
      row.push_back(cell);
    }
    table.add_row(row);
  }
  os << table;
}

void print_xgboost_report(std::ostream& os, const XgbOutcome& outcome) {
  os << "XGBoost on " << outcome.dataset << " (covariance features)\n"
     << "  best params: " << outcome.best_params << '\n'
     << "  CV accuracy: " << format_fixed(outcome.cv_accuracy * 100.0, 2)
     << "%\n"
     << "  test accuracy: "
     << format_fixed(outcome.test_accuracy * 100.0, 2) << "%  (paper: 88.47%)\n"
     << "  final train accuracy: "
     << format_fixed(outcome.train_accuracy * 100.0, 2)
     << "%  (paper: ~100%, overfit)\n";
  os << "  top feature importances by gain (paper: cov(gpu,mem util), "
        "var(gpu util), var(power)):\n";
  for (const auto& [name, gain] : outcome.top_features) {
    os << "    " << name << "  gain=" << format_fixed(gain, 3) << '\n';
  }
  os << "  train accuracy per boosting round:";
  for (std::size_t r = 0; r < outcome.train_accuracy_per_round.size(); ++r) {
    if (r % 5 == 0) {
      os << ' ' << r << ':'
         << format_fixed(outcome.train_accuracy_per_round[r] * 100.0, 1);
    }
  }
  os << '\n';
}

}  // namespace scwc::core
