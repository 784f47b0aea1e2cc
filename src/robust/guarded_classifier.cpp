#include "robust/guarded_classifier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

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

namespace {

/// Counts non-finite values / fully-missing steps / dead sensors of a
/// steps×sensors window into `report`, then repairs it in place. Shared by
/// the single and batched classify paths so both see identical windows.
void account_and_impute(std::span<double> window, std::size_t steps,
                        std::size_t sensors, const ImputationConfig& config,
                        QualityReport& report) {
  std::vector<std::size_t> finite_per_sensor(sensors, 0);
  for (std::size_t t = 0; t < steps; ++t) {
    std::size_t missing_here = 0;
    for (std::size_t s = 0; s < sensors; ++s) {
      if (std::isfinite(window[t * sensors + s])) {
        ++finite_per_sensor[s];
      } else {
        ++missing_here;
      }
    }
    report.missing_values += missing_here;
    if (missing_here == sensors) ++report.missing_steps;
  }
  for (std::size_t s = 0; s < sensors; ++s) {
    if (finite_per_sensor[s] == 0) ++report.dead_sensors;
  }
  impute_window(window, steps, sensors, config, report);
}

}  // namespace

GuardedPrediction GuardedClassifier::classify(std::span<const double> window,
                                              std::size_t steps,
                                              std::size_t sensors) const {
  QualityReport report;
  report.steps = steps;
  report.sensors = sensors;
  guard_counters().classified.inc();

  // 1. Shape gate: the model was fitted for exactly one window geometry.
  if (steps != config_.window_steps || sensors != config_.sensors ||
      steps == 0 || sensors == 0 || window.size() != steps * sensors) {
    report.shape_ok = false;
    return abstain(AbstainReason::kShape, report);
  }

  try {
    // 2. Finiteness accounting + repair through the robust ingestion path.
    std::vector<double> repaired(window.begin(), window.end());
    account_and_impute(repaired, steps, sensors, config_.imputation, report);

    // 3. Quality gate: don't consult the model on garbage.
    if (!report.usable(config_.min_quality)) {
      return abstain(AbstainReason::kQuality, report);
    }

    // 4. Featurise + predict on the repaired window.
    data::Tensor3 one(1, steps, sensors);
    std::copy(repaired.begin(), repaired.end(), one.trial(0).begin());
    const linalg::Matrix features = pipeline_.transform(one);
    const std::vector<int> predicted = model_.predict(features);
    if (predicted.size() != 1) {
      return abstain(AbstainReason::kModelError, report);
    }

    GuardedPrediction out;
    out.label = predicted.front();
    out.abstained = false;
    out.report = report;
    guard_counters().answered.inc();
    return out;
  } catch (...) {
    // Anything the pipeline or model rejects becomes an abstention — the
    // guarded path never propagates exceptions to the serving loop.
    return abstain(AbstainReason::kModelError, report);
  }
}

GuardedPrediction GuardedClassifier::classify(
    const linalg::Matrix& window) const {
  return classify(window.flat(), window.rows(), window.cols());
}

std::vector<GuardedPrediction> GuardedClassifier::classify_batch(
    const data::Tensor3& windows, BatchPhaseTimings* timings) const {
  if (timings != nullptr) *timings = BatchPhaseTimings{};
  const std::size_t count = windows.trials();
  std::vector<GuardedPrediction> out(count);
  if (count == 0) return out;
  const std::size_t steps = windows.steps();
  const std::size_t sensors = windows.sensors();
  guard_counters().classified.inc(count);

  // 1. Shape gate — the tensor fixes one geometry for the whole batch, so
  // a mismatch abstains every window (the serving layer routes odd-shaped
  // requests through the single-window path instead of packing them).
  if (steps != config_.window_steps || sensors != config_.sensors ||
      steps == 0 || sensors == 0) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i].report.steps = steps;
      out[i].report.sensors = sensors;
      out[i].report.shape_ok = false;
      out[i] = abstain(AbstainReason::kShape, out[i].report);
    }
    return out;
  }

  // 2. Per-window accounting, repair and quality gating — identical to the
  // single-window path. Survivors are packed densely for the model.
  std::vector<std::size_t> survivors;
  survivors.reserve(count);
  data::Tensor3 repaired(count, steps, sensors);
  for (std::size_t i = 0; i < count; ++i) {
    QualityReport& report = out[i].report;
    report.steps = steps;
    report.sensors = sensors;
    const std::span<const double> src = windows.trial(i);
    const std::span<double> dst = repaired.trial(i);
    std::copy(src.begin(), src.end(), dst.begin());
    account_and_impute(dst, steps, sensors, config_.imputation, report);
    if (report.usable(config_.min_quality)) {
      survivors.push_back(i);
    } else {
      out[i] = abstain(AbstainReason::kQuality, report);
    }
  }
  if (survivors.empty()) return out;

  try {
    // 3. One featurise + one predict for every survivor. Each window's
    // features depend only on its own values, so row r of the batch equals
    // the features a batch-of-one would produce for that window. When every
    // window survived, `repaired` already is the packed batch.
    const bool all_survived = survivors.size() == count;
    const data::Tensor3 packed =
        all_survived ? data::Tensor3() : repaired.gather(survivors);
    const auto t0 = std::chrono::steady_clock::now();
    const linalg::Matrix features =
        pipeline_.transform(all_survived ? repaired : packed);
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
    // Same contract as classify(): the guarded path never throws.
    for (const std::size_t i : survivors) {
      out[i] = abstain(AbstainReason::kModelError, out[i].report);
    }
    return out;
  }
}

}  // namespace scwc::robust
