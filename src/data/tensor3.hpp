// Three-dimensional trial tensor.
//
// The challenge datasets are tensors (trials, samples, sensors) — e.g.
// (14590, 540, 7) for 60-start-1. Tensor3 stores that layout contiguously
// (trial-major, then time, then sensor) which matches the Numpy npz files
// the paper releases. Each trial is one contiguous row-major samples×sensors
// block, so a trial's view is also the paper's reshaped row ("each trial was
// reshaped to have the dimensions 3,780") without a copy: the feature
// pipeline standardises and reduces trials through those views.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace scwc::data {

/// Contiguous (trials × steps × sensors) tensor of doubles.
class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(std::size_t trials, std::size_t steps, std::size_t sensors)
      : trials_(trials),
        steps_(steps),
        sensors_(sensors),
        data_(trials * steps * sensors, 0.0) {}

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t sensors() const noexcept { return sensors_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t trial, std::size_t t, std::size_t s) noexcept {
    return data_[(trial * steps_ + t) * sensors_ + s];
  }
  double operator()(std::size_t trial, std::size_t t,
                    std::size_t s) const noexcept {
    return data_[(trial * steps_ + t) * sensors_ + s];
  }

  /// Row-major view of one trial (steps × sensors, contiguous).
  [[nodiscard]] std::span<const double> trial(std::size_t i) const noexcept {
    return {data_.data() + i * steps_ * sensors_, steps_ * sensors_};
  }
  [[nodiscard]] std::span<double> trial(std::size_t i) noexcept {
    return {data_.data() + i * steps_ * sensors_, steps_ * sensors_};
  }

  /// One read-only view per trial, in order — the batch form the feature
  /// pipeline takes, so a tensor and a list of separately owned windows go
  /// through the same code.
  [[nodiscard]] std::vector<std::span<const double>> trial_views() const;

  /// Copies trial i into a steps×sensors matrix.
  [[nodiscard]] linalg::Matrix trial_matrix(std::size_t i) const;

  /// Raw storage (trial-major).
  [[nodiscard]] std::span<const double> raw() const noexcept { return {data_}; }
  [[nodiscard]] std::span<double> raw() noexcept { return {data_}; }

  /// Keeps only the trials listed in `indices` (used by train/test splits).
  [[nodiscard]] Tensor3 gather(std::span<const std::size_t> indices) const;

 private:
  std::size_t trials_ = 0;
  std::size_t steps_ = 0;
  std::size_t sensors_ = 0;
  std::vector<double> data_;
};

}  // namespace scwc::data
