// Descriptive statistics over matrices and spans.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace scwc::linalg {

/// Arithmetic mean of a span (0 for empty input).
double mean(std::span<const double> v) noexcept;

/// Population variance (divides by n; 0 for n < 1).
double variance(std::span<const double> v) noexcept;

/// Sample standard deviation with Bessel correction (0 for n < 2).
double sample_stddev(std::span<const double> v) noexcept;

/// The q-quantile (q in [0, 1]) of an ascending-sorted span, linearly
/// interpolated between the two nearest ranks (0 for empty input).
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Per-column means of a matrix (length = cols).
Vector column_means(const Matrix& m);

/// Per-column population standard deviations.
Vector column_stddevs(const Matrix& m);

/// Sample covariance matrix of the columns of `m` (cols×cols), after
/// removing the column means; divides by (rows - 1), or by 1 when rows < 2.
Matrix covariance_matrix(const Matrix& m);

/// Pearson correlation between two equal-length spans (0 when degenerate).
double pearson(std::span<const double> a, std::span<const double> b) noexcept;

/// Minimum and maximum of a span.
struct MinMax {
  double min;
  double max;
};
MinMax min_max(std::span<const double> v) noexcept;

}  // namespace scwc::linalg
