#include "preprocess/scaler.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace scwc::preprocess {

void StandardScaler::fit(std::span<const std::span<const double>> rows) {
  SCWC_REQUIRE(!rows.empty(), "StandardScaler::fit needs at least one row");
  const std::size_t width = rows.front().size();
  SCWC_REQUIRE(width > 0, "StandardScaler::fit needs at least one column");
  for (const std::span<const double> row : rows) {
    SCWC_REQUIRE(row.size() == width,
                 "StandardScaler::fit: rows differ in width");
  }
  const auto n = static_cast<double>(rows.size());
  means_.assign(width, 0.0);
  for (const std::span<const double> row : rows) {
    for (std::size_t c = 0; c < width; ++c) means_[c] += row[c];
  }
  for (double& m : means_) m /= n;
  // A non-finite mean can only come from NaN/Inf input; refuse it here with
  // column context rather than silently baking NaN into every transform.
  for (std::size_t c = 0; c < width; ++c) {
    SCWC_REQUIRE(std::isfinite(means_[c]),
                 "StandardScaler::fit: non-finite mean in column " +
                     std::to_string(c) +
                     " — input contains NaN/Inf (impute before fitting, "
                     "see robust/robust_window.hpp)");
  }
  // Population std (divides by n), like scikit-learn.
  scales_.assign(width, 0.0);
  for (const std::span<const double> row : rows) {
    for (std::size_t c = 0; c < width; ++c) {
      const double d = row[c] - means_[c];
      scales_[c] += d * d;
    }
  }
  for (double& s : scales_) {
    s = std::sqrt(s / n);
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

void StandardScaler::transform_row(std::span<const double> src,
                                   std::span<double> dst) const {
  for (std::size_t c = 0; c < means_.size(); ++c) {
    dst[c] = (src[c] - means_[c]) / scales_[c];
  }
}

}  // namespace scwc::preprocess
