// Per-window cost ledger of the model path, timed from outside: the
// benchmark calls each layer's public function on the workload's own
// payload windows and records a span around every call.
//
//   robust::impute_window            → impute
//   FeaturePipeline::transform        → transform   (batch 64)
//   RandomForest::predict             → predict     (batch 64 and 1)
//   GuardedClassifier::classify_batch → the whole   (batch 64 and 1)
//   residual = whole − impute − transform − predict (copies, allocation,
//              finiteness accounting and the quality gate)
//
// plus the pure SCWCWIRE codecs on the same windows. All figures are
// microseconds of wall time per window, medians over repeated batches.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/model_registry.hpp"
#include "spans.hpp"

namespace perfbench {

struct Ledger {
  double impute_us = 0.0;
  double transform_b64_us = 0.0;
  double predict_b64_us = 0.0;
  double predict_b1_us = 0.0;
  double classify_b64_us = 0.0;
  double classify_b1_us = 0.0;
  double residual_us = 0.0;
  /// classify_batch's own BatchPhaseTimings at batch 64, per window — an
  /// independent reading of transform + predict to close the ledger on.
  double inside_transform_us = 0.0;
  double inside_predict_us = 0.0;
  double encode_submit_us = 0.0;
  double decode_submit_us = 0.0;
  double encode_verdict_us = 0.0;
  double decode_verdict_us = 0.0;
  double frame_bytes_per_window = 0.0;  ///< SubmitWindow + Verdict frames
  /// The parts sum to no more than the whole (within 10%), and the
  /// outside transform + predict agree with classify_batch's own timings
  /// (within 35%).
  bool closes = false;
};

/// Times every stage on `payload` (row-major steps×sensors windows, as
/// served) with `bundle`; `budget_s` bounds the wall time spent.
[[nodiscard]] Ledger measure_ledger(const scwc::serve::ModelBundle& bundle,
                                    const std::vector<std::vector<double>>& payload,
                                    std::size_t steps, std::size_t sensors,
                                    double budget_s, SpanLog& spans);

}  // namespace perfbench
