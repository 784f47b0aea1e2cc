// Guarded inference over degraded windows.
//
// GuardedClassifier is the hardened front door of the deployed service
// (§VI's live-monitor use case): it accepts raw, possibly-corrupt windows,
// validates shape and finiteness, repairs what it can through the robust
// ingestion path, and only hands quality-checked features to the wrapped
// model. On malformed or hopeless input it NEVER throws — it returns an
// abstain/majority-class result flagged with the window's QualityReport so
// the caller can decide what to do with the low-confidence answer.
#pragma once

#include <span>
#include <vector>

#include "data/tensor3.hpp"
#include "ml/classifier.hpp"
#include "preprocess/pipeline.hpp"
#include "robust/quality.hpp"
#include "robust/robust_window.hpp"

namespace scwc::robust {

/// Thresholds and fallbacks for guarded inference.
struct GuardedConfig {
  std::size_t window_steps = 0;  ///< expected input shape
  std::size_t sensors = 0;
  /// Windows whose post-extraction quality falls below this abstain.
  double min_quality = 0.5;
  /// Label reported on abstention: the training majority class gives a
  /// best-effort guess; kNoLabel refuses outright.
  int fallback_label = -1;
  ImputationConfig imputation;

  static constexpr int kNoLabel = -1;
};

/// Why a guarded prediction abstained. Each reason maps to a
/// scwc_robust_guard_abstain_<reason>_total counter so serving dashboards
/// see the breakdown without re-deriving it from QualityReports.
enum class AbstainReason {
  kNone = 0,    ///< did not abstain
  kShape,       ///< geometry mismatch or empty window
  kQuality,     ///< post-imputation quality below min_quality
  kModelError,  ///< pipeline/model threw or returned a malformed result
  kDegraded,    ///< serving is in abstain-only degraded mode (no model was
                ///< consulted) — produced by the serve layer, never by the
                ///< guard itself
};

/// Short stable name for an abstain reason ("shape", "quality", "error",
/// "degraded"; "none" when the model answered).
[[nodiscard]] const char* abstain_reason_name(AbstainReason reason) noexcept;

/// One guarded prediction: the label, whether the model was consulted, and
/// the quality evidence behind the decision.
struct GuardedPrediction {
  int label = GuardedConfig::kNoLabel;
  bool abstained = false;  ///< true → label is the fallback, not the model
  AbstainReason reason = AbstainReason::kNone;
  QualityReport report;
};

/// Most frequent label of a training split (ties → smallest id). Returns
/// GuardedConfig::kNoLabel on empty input.
int majority_label(std::span<const int> labels);

/// Where a batched classify spent its time. All are batch-level wall times
/// (the serve layer attributes transform and predict to every request in
/// the batch when building per-request phase breakdowns).
struct BatchPhaseTimings {
  double impute_s = 0.0;     ///< accounting + repair of every window
  double transform_s = 0.0;  ///< FeaturePipeline::transform on survivors
  double predict_s = 0.0;    ///< Classifier::predict on survivors
};

/// Wraps a fitted FeaturePipeline + Classifier behind shape/finiteness
/// validation, imputation and a quality gate. Holds references only — both
/// must outlive the wrapper.
class GuardedClassifier {
 public:
  GuardedClassifier(const preprocess::FeaturePipeline& pipeline,
                    const ml::Classifier& model, GuardedConfig config)
      : pipeline_(pipeline), model_(model), config_(config) {}

  [[nodiscard]] const GuardedConfig& config() const noexcept {
    return config_;
  }

  /// Classifies one row-major steps×sensors window. Never throws: wrong
  /// shape, empty input, all-NaN windows and internal pipeline failures all
  /// surface as an abstain result with a populated QualityReport. Only the
  /// geometry (declared shape vs. config, window.size() == steps*sensors,
  /// non-zero dims) is checked here; a window that passes is copied once
  /// and classified as a batch of one through classify_batch, so a window's
  /// verdict is the same whether it arrives alone or inside a batch.
  [[nodiscard]] GuardedPrediction classify(std::span<const double> window,
                                           std::size_t steps,
                                           std::size_t sensors) const;

  /// Classifies every window of `windows` (each row-major steps×sensors,
  /// wherever it lives) in one batched model call — the one classify path
  /// (serve::MicroBatcher coalesces concurrent requests into one of these;
  /// classify() is a batch of one). Each window is validated, repaired IN
  /// PLACE in the caller's buffer and quality-gated on its own; views of
  /// the surviving windows share one pipeline transform and one
  /// Classifier::predict matrix call, whose per-row results depend only on
  /// that row's window. A view whose size is not steps*sensors abstains
  /// with kShape. Never throws; a pipeline/model failure abstains every
  /// window that reached the model with kModelError. When `timings` is
  /// non-null it receives the impute/transform/predict wall times of this
  /// call (transform and predict are zero when no window survived the
  /// quality gate; all are zero for an empty batch).
  [[nodiscard]] std::vector<GuardedPrediction> classify_batch(
      std::span<const std::span<double>> windows, std::size_t steps,
      std::size_t sensors, BatchPhaseTimings* timings = nullptr) const;

  /// The same over every trial of `windows`, which is taken by value and
  /// repaired in place: a caller that std::moves its tensor in gives it up
  /// and pays no copy; a const lvalue is copied once and is left unchanged.
  [[nodiscard]] std::vector<GuardedPrediction> classify_batch(
      data::Tensor3 windows, BatchPhaseTimings* timings = nullptr) const;

 private:
  /// True when steps×sensors is the non-empty geometry the model was
  /// fitted for.
  [[nodiscard]] bool fits(std::size_t steps,
                          std::size_t sensors) const noexcept;
  GuardedPrediction abstain(AbstainReason reason, QualityReport report) const;
  /// A kShape abstention whose report records the offending geometry.
  GuardedPrediction shape_abstain(std::size_t steps, std::size_t sensors) const;

  const preprocess::FeaturePipeline& pipeline_;
  const ml::Classifier& model_;
  GuardedConfig config_;
};

}  // namespace scwc::robust
