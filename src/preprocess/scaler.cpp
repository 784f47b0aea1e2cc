#include "preprocess/scaler.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/stats.hpp"

namespace scwc::preprocess {

void StandardScaler::fit(const linalg::Matrix& x) {
  SCWC_REQUIRE(x.rows() > 0, "StandardScaler::fit needs at least one row");
  means_ = linalg::column_means(x);
  // A non-finite mean can only come from NaN/Inf input; refuse it here with
  // column context rather than silently baking NaN into every transform.
  for (std::size_t c = 0; c < means_.size(); ++c) {
    SCWC_REQUIRE(std::isfinite(means_[c]),
                 "StandardScaler::fit: non-finite mean in column " +
                     std::to_string(c) +
                     " — input contains NaN/Inf (impute before fitting, "
                     "see robust/robust_window.hpp)");
  }
  scales_ = linalg::column_stddevs(x);  // population std, like scikit-learn
  for (double& s : scales_) {
    if (s <= 0.0 || !std::isfinite(s)) s = 1.0;  // constant/overflowed column
  }
}

StandardScaler StandardScaler::restore(linalg::Vector means,
                                       linalg::Vector scales) {
  SCWC_REQUIRE(!means.empty() && means.size() == scales.size(),
               "StandardScaler::restore: means/scales length mismatch");
  for (std::size_t c = 0; c < means.size(); ++c) {
    SCWC_REQUIRE(std::isfinite(means[c]),
                 "StandardScaler::restore: non-finite mean in column " +
                     std::to_string(c));
    SCWC_REQUIRE(std::isfinite(scales[c]) && scales[c] > 0.0,
                 "StandardScaler::restore: non-positive scale in column " +
                     std::to_string(c));
  }
  StandardScaler out;
  out.means_ = std::move(means);
  out.scales_ = std::move(scales);
  return out;
}

linalg::Matrix StandardScaler::transform(const linalg::Matrix& x) const {
  SCWC_REQUIRE(fitted(), "StandardScaler used before fit()");
  SCWC_REQUIRE(x.cols() == means_.size(),
               "StandardScaler width mismatch with fitted data");
  linalg::Matrix out(x.rows(), x.cols());
  parallel_for_blocked(
      0, x.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          transform_row(x.row(r), out.row(r));
        }
      },
      256);
  return out;
}

void StandardScaler::transform_row(std::span<const double> src,
                                   std::span<double> dst) const {
  for (std::size_t c = 0; c < means_.size(); ++c) {
    dst[c] = (src[c] - means_[c]) / scales_[c];
  }
}

linalg::Matrix StandardScaler::fit_transform(const linalg::Matrix& x) {
  fit(x);
  return transform(x);
}

linalg::Matrix StandardScaler::inverse_transform(const linalg::Matrix& x) const {
  SCWC_REQUIRE(fitted(), "StandardScaler used before fit()");
  SCWC_REQUIRE(x.cols() == means_.size(),
               "StandardScaler width mismatch with fitted data");
  linalg::Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      dst[c] = src[c] * scales_[c] + means_[c];
    }
  }
  return out;
}

}  // namespace scwc::preprocess
