#include "robust/guarded_classifier.hpp"

#include <chrono>
#include <map>

#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"

namespace scwc::robust {

namespace {

struct GuardCounters {
  obs::CounterHandle classified;
  obs::CounterHandle answered;
  obs::CounterHandle abstain_shape;
  obs::CounterHandle abstain_quality;
  obs::CounterHandle abstain_error;
};

GuardCounters& guard_counters() {
  static GuardCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    GuardCounters out;
    out.classified = reg.counter("scwc_robust_guard_classified_total");
    out.answered = reg.counter("scwc_robust_guard_answered_total");
    out.abstain_shape = reg.counter("scwc_robust_guard_abstain_shape_total");
    out.abstain_quality =
        reg.counter("scwc_robust_guard_abstain_quality_total");
    out.abstain_error = reg.counter("scwc_robust_guard_abstain_error_total");
    return out;
  }();
  return c;
}

}  // namespace

const char* abstain_reason_name(AbstainReason reason) noexcept {
  switch (reason) {
    case AbstainReason::kNone:
      return "none";
    case AbstainReason::kShape:
      return "shape";
    case AbstainReason::kQuality:
      return "quality";
    case AbstainReason::kModelError:
      return "error";
    case AbstainReason::kDegraded:
      return "degraded";
  }
  return "?";
}

int majority_label(std::span<const int> labels) {
  if (labels.empty()) return GuardedConfig::kNoLabel;
  std::map<int, std::size_t> counts;
  for (const int y : labels) ++counts[y];
  int best = labels.front();
  std::size_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {  // map order → ties resolve to smallest id
      best = label;
      best_count = count;
    }
  }
  return best;
}

GuardedPrediction GuardedClassifier::abstain(AbstainReason reason,
                                             QualityReport report) const {
  GuardedPrediction out;
  out.label = config_.fallback_label;
  out.abstained = true;
  out.reason = reason;
  out.report = report;
  GuardCounters& c = guard_counters();
  switch (reason) {
    case AbstainReason::kShape:
      c.abstain_shape.inc();
      break;
    case AbstainReason::kQuality:
      c.abstain_quality.inc();
      break;
    default:
      c.abstain_error.inc();
      break;
  }
  return out;
}

bool GuardedClassifier::fits(std::size_t steps,
                             std::size_t sensors) const noexcept {
  return steps == config_.window_steps && sensors == config_.sensors &&
         steps != 0 && sensors != 0;
}

GuardedPrediction GuardedClassifier::shape_abstain(std::size_t steps,
                                                   std::size_t sensors) const {
  QualityReport report;
  report.steps = steps;
  report.sensors = sensors;
  report.shape_ok = false;
  return abstain(AbstainReason::kShape, report);
}

GuardedPrediction GuardedClassifier::classify(std::span<const double> window,
                                              std::size_t steps,
                                              std::size_t sensors) const {
  // Only the geometry is checked here: a window that fits the declared
  // shape becomes a batch of one, so single == batch by construction.
  if (!fits(steps, sensors) || window.size() != steps * sensors) {
    guard_counters().classified.inc();
    return shape_abstain(steps, sensors);
  }
  std::vector<double> owned(window.begin(), window.end());
  const std::span<double> view(owned);
  return std::move(classify_batch({&view, 1}, steps, sensors).front());
}

std::vector<GuardedPrediction> GuardedClassifier::classify_batch(
    data::Tensor3 windows, BatchPhaseTimings* timings) const {
  std::vector<std::span<double>> views;
  views.reserve(windows.trials());
  for (std::size_t i = 0; i < windows.trials(); ++i) {
    views.push_back(windows.trial(i));
  }
  return classify_batch(views, windows.steps(), windows.sensors(), timings);
}

std::vector<GuardedPrediction> GuardedClassifier::classify_batch(
    std::span<const std::span<double>> windows, std::size_t steps,
    std::size_t sensors, BatchPhaseTimings* timings) const {
  if (timings != nullptr) *timings = BatchPhaseTimings{};
  const std::size_t count = windows.size();
  std::vector<GuardedPrediction> out(count);
  if (count == 0) return out;
  guard_counters().classified.inc(count);

  // 1. Shape gate — the batch declares one geometry, so a mismatch
  // abstains every window (the serving layer routes odd-shaped requests
  // through classify(), which abstains them before batching).
  if (!fits(steps, sensors)) {
    for (GuardedPrediction& p : out) p = shape_abstain(steps, sensors);
    return out;
  }

  // 2. Per-window accounting, repair in place and quality gating. The
  // survivors go on to the pipeline as views of the caller's buffers.
  std::vector<std::size_t> survivors;
  std::vector<std::span<const double>> kept;
  survivors.reserve(count);
  kept.reserve(count);
  WindowRepairer repairer(sensors, config_.imputation);
  const auto r0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    if (windows[i].size() != steps * sensors) {
      out[i] = shape_abstain(steps, sensors);
      continue;
    }
    QualityReport& report = out[i].report;
    report.steps = steps;
    report.sensors = sensors;
    repairer.account_and_repair(windows[i], steps, report);
    if (report.usable(config_.min_quality)) {
      survivors.push_back(i);
      kept.push_back(windows[i]);
    } else {
      out[i] = abstain(AbstainReason::kQuality, report);
    }
  }
  if (timings != nullptr) {
    timings->impute_s =
        obs::seconds_between(r0, std::chrono::steady_clock::now());
  }
  if (survivors.empty()) return out;

  try {
    // 3. One featurise + one predict for every survivor. Each window's
    // features depend only on its own values, so row r of the batch equals
    // the features a batch of one (classify()) would produce for that
    // window.
    const auto t0 = std::chrono::steady_clock::now();
    const linalg::Matrix features = pipeline_.transform(kept);
    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<int> predicted = model_.predict(features);
    if (timings != nullptr) {
      timings->transform_s = obs::seconds_between(t0, t1);
      timings->predict_s =
          obs::seconds_between(t1, std::chrono::steady_clock::now());
    }
    if (predicted.size() != survivors.size()) {
      for (const std::size_t i : survivors) {
        out[i] = abstain(AbstainReason::kModelError, out[i].report);
      }
      return out;
    }
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      GuardedPrediction& p = out[survivors[j]];
      p.label = predicted[j];
      p.abstained = false;
      p.reason = AbstainReason::kNone;
    }
    guard_counters().answered.inc(survivors.size());
    return out;
  } catch (...) {
    // The guarded path never throws.
    for (const std::size_t i : survivors) {
      out[i] = abstain(AbstainReason::kModelError, out[i].report);
    }
    return out;
  }
}

}  // namespace scwc::robust
