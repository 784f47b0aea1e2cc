#include "data/tensor3.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace scwc::data {

linalg::Matrix Tensor3::trial_matrix(std::size_t i) const {
  SCWC_REQUIRE(i < trials_, "trial index out of range");
  linalg::Matrix m(steps_, sensors_);
  const auto src = trial(i);
  std::copy(src.begin(), src.end(), m.flat().begin());
  return m;
}

std::vector<std::span<const double>> Tensor3::trial_views() const {
  std::vector<std::span<const double>> out;
  out.reserve(trials_);
  for (std::size_t i = 0; i < trials_; ++i) out.push_back(trial(i));
  return out;
}

Tensor3 Tensor3::gather(std::span<const std::size_t> indices) const {
  Tensor3 out(indices.size(), steps_, sensors_);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    SCWC_REQUIRE(indices[k] < trials_, "gather index out of range");
    const auto src = trial(indices[k]);
    std::copy(src.begin(), src.end(), out.trial(k).begin());
  }
  return out;
}

}  // namespace scwc::data
