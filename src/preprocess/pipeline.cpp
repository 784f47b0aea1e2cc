#include "preprocess/pipeline.hpp"

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::preprocess {

std::string reduction_name(Reduction reduction) {
  switch (reduction) {
    case Reduction::kPca:
      return "PCA";
    case Reduction::kCovariance:
      return "Cov.";
    case Reduction::kNone:
      return "raw";
  }
  return "?";
}

void FeaturePipeline::fit(const data::Tensor3& x_train) {
  const obs::TraceSpan fit_span("pipeline.fit");
  static const obs::CounterHandle fits =
      obs::MetricsRegistry::global().counter("scwc_preprocess_fits_total");
  fits.inc();
  steps_ = x_train.steps();
  sensors_ = x_train.sensors();
  const linalg::Matrix flat = x_train.flatten();
  {
    const obs::TraceSpan scale_span("pipeline.scale");
    scaler_.fit(flat);
  }
  if (config_.reduction == Reduction::kPca) {
    // Only PCA is fitted on scaled rows; the other reductions scale per
    // window at transform time, so no scaled copy of the split is made.
    const obs::TraceSpan pca_span("pipeline.pca_fit");
    pca_.emplace(config_.pca_components);
    pca_->fit(scaler_.transform(flat));
  }
}

linalg::Matrix FeaturePipeline::transform(
    std::span<const std::span<const double>> windows) const {
  SCWC_REQUIRE(scaler_.fitted(), "FeaturePipeline used before fit()");
  const obs::TraceSpan transform_span("pipeline.transform");
  // Looked up once: a by-name lookup takes the registry's lock every batch.
  static const obs::CounterHandle transforms =
      obs::MetricsRegistry::global().counter(
          "scwc_preprocess_transforms_total");
  transforms.inc();
  if (config_.reduction == Reduction::kCovariance) {
    // Scale and reduce per window: no flattened or scaled batch copy.
    const obs::TraceSpan reduce_span("pipeline.covariance");
    return standardized_covariance_features(windows, steps_, sensors_,
                                            scaler_);
  }
  const std::size_t width = steps_ * sensors_;
  for (const std::span<const double> window : windows) {
    SCWC_REQUIRE(window.size() == width,
                 "window width differs from the fitted steps × sensors");
  }
  linalg::Matrix scaled(windows.size(), width);
  {
    const obs::TraceSpan scale_span("pipeline.scale");
    parallel_for_blocked(
        0, windows.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            scaler_.transform_row(windows[r], scaled.row(r));
          }
        },
        256);
  }
  if (config_.reduction == Reduction::kPca) {
    const obs::TraceSpan reduce_span("pipeline.pca_project");
    return pca_->transform(scaled);
  }
  return scaled;
}

linalg::Matrix FeaturePipeline::transform(const data::Tensor3& x) const {
  SCWC_REQUIRE(scaler_.fitted(), "FeaturePipeline used before fit()");
  SCWC_REQUIRE(x.steps() == steps_ && x.sensors() == sensors_,
               "tensor shape differs from the fitted shape");
  return transform(x.trial_views());
}

FeaturePipeline FeaturePipeline::restore(FeaturePipelineConfig config,
                                         std::size_t steps,
                                         std::size_t sensors,
                                         StandardScaler scaler,
                                         std::optional<Pca> pca) {
  SCWC_REQUIRE(steps > 0 && sensors > 0,
               "FeaturePipeline::restore: empty window geometry");
  SCWC_REQUIRE(scaler.fitted(), "FeaturePipeline::restore: unfitted scaler");
  SCWC_REQUIRE(scaler.means().size() == steps * sensors,
               "FeaturePipeline::restore: scaler width differs from "
               "steps × sensors");
  if (config.reduction == Reduction::kPca) {
    SCWC_REQUIRE(pca.has_value() && pca->fitted(),
                 "FeaturePipeline::restore: kPca pipeline needs a fitted PCA");
    SCWC_REQUIRE(pca->mean().size() == steps * sensors,
                 "FeaturePipeline::restore: PCA width differs from "
                 "steps × sensors");
    config.pca_components = pca->components();
  } else {
    SCWC_REQUIRE(!pca.has_value(),
                 "FeaturePipeline::restore: PCA supplied for a non-PCA "
                 "reduction");
  }
  FeaturePipeline out(config);
  out.steps_ = steps;
  out.sensors_ = sensors;
  out.scaler_ = std::move(scaler);
  out.pca_ = std::move(pca);
  return out;
}

linalg::Matrix FeaturePipeline::fit_transform(const data::Tensor3& x_train) {
  fit(x_train);
  return transform(x_train);
}

std::size_t FeaturePipeline::output_dim() const {
  SCWC_REQUIRE(scaler_.fitted(), "FeaturePipeline used before fit()");
  switch (config_.reduction) {
    case Reduction::kPca:
      return pca_->components();
    case Reduction::kCovariance:
      return covariance_feature_count(sensors_);
    case Reduction::kNone:
      return steps_ * sensors_;
  }
  SCWC_FAIL("unhandled reduction");
}

}  // namespace scwc::preprocess
