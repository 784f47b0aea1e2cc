#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace scwc::linalg {

double mean(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) {
    const double d = x - m;
    s += d * d;
  }
  return s / static_cast<double>(v.size());
}

double sample_stddev(std::span<const double> v) noexcept {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) {
    const double d = x - m;
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Vector column_means(const Matrix& m) {
  Vector out(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += row[c];
  }
  if (m.rows() > 0) {
    for (double& x : out) x /= static_cast<double>(m.rows());
  }
  return out;
}

Vector column_stddevs(const Matrix& m) {
  const Vector means = column_means(m);
  Vector out(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double d = row[c] - means[c];
      out[c] += d * d;
    }
  }
  if (m.rows() > 0) {
    for (double& x : out) x = std::sqrt(x / static_cast<double>(m.rows()));
  }
  return out;
}

Matrix covariance_matrix(const Matrix& m) {
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();
  const Vector means = column_means(m);
  Matrix cov(d, d);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = m.row(r);
    for (std::size_t i = 0; i < d; ++i) {
      const double di = row[i] - means[i];
      for (std::size_t j = i; j < d; ++j) {
        cov(i, j) += di * (row[j] - means[j]);
      }
    }
  }
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

double pearson(std::span<const double> a, std::span<const double> b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  if (n < 2) return 0.0;
  const double ma = mean(a.subspan(0, n));
  const double mb = mean(b.subspan(0, n));
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xa = a[i] - ma;
    const double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  const double denom = std::sqrt(da * db);
  if (denom <= 0.0) return 0.0;
  return num / denom;
}

MinMax min_max(std::span<const double> v) noexcept {
  MinMax mm{std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
  for (const double x : v) {
    if (x < mm.min) mm.min = x;
    if (x > mm.max) mm.max = x;
  }
  if (v.empty()) {
    mm.min = 0.0;
    mm.max = 0.0;
  }
  return mm;
}

}  // namespace scwc::linalg
