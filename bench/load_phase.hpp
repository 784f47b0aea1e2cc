// How the serving benches read the load perfbench's harness drives.
//
// perfbench/src/openloop.* (compiled into bench/ as scwc_loadgen) runs the
// closed loop that measures capacity and the seeded open-loop Poisson
// phases; this header turns what they return into the figures every
// serving bench reports, and holds the one throughput gate they share:
// at kGateFraction of the bench's own measured capacity, p99 latency
// (timed from each request's due time, so generator lag counts) stays
// inside the deadline and at most kGateMaxShed of the requests are shed.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "openloop.hpp"
#include "serve/serve_types.hpp"

namespace scwc::bench {

/// Micro-batch bound of the served configuration (the service and
/// scwc_worker default).
constexpr std::size_t kMaxBatch = 64;
/// Requests the capacity loop keeps in flight: four full batches, as
/// perfbench does.
constexpr std::size_t kSaturationWindow = 4 * kMaxBatch;
/// The throughput gate: fixed before anything is measured.
constexpr double kGateFraction = 0.5;
constexpr double kGateMaxShed = 0.01;

/// Saturated capacity: accepted verdicts per second while a closed loop of
/// kSaturationWindow requests keeps the system busy for `seconds`.
/// `submit(i)` issues request i.
inline double saturated_wps(
    double seconds,
    const std::function<std::future<serve::ServeResult>(std::size_t)>& submit) {
  std::size_t accepted = 0;
  (void)perfbench::saturate(
      kSaturationWindow, seconds, submit,
      [&](std::size_t /*i*/, serve::ServeResult&& r, bool in_time) {
        if (r.accepted && in_time) ++accepted;
      });
  return static_cast<double>(accepted) / seconds;
}

/// What one perfbench::drive phase saw; add() is its sink.
struct Phase {
  double rate = 0.0;
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t abstained = 0;
  double batch_size_sum = 0.0;
  std::vector<double> latency_s;  ///< accepted: generator lag + total latency
  std::vector<double> lag_s;      ///< every request
  std::map<std::string, std::size_t> shed;
  std::vector<std::size_t> retryable;  ///< request indices, submission order

  void add(std::size_t i, const perfbench::Issued& r) {
    ++submitted;
    lag_s.push_back(r.lag_s);
    if (!r.result.accepted) {
      ++shed[serve::reject_reason_name(r.result.reject_reason)];
      if (serve::retryable(r.result.reject_reason)) retryable.push_back(i);
      return;
    }
    ++accepted;
    if (r.result.prediction.abstained) ++abstained;
    batch_size_sum += static_cast<double>(r.result.batch_size);
    latency_s.push_back(r.lag_s + r.result.total_latency_s);
  }

  [[nodiscard]] double shed_frac() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(submitted - accepted) /
                                static_cast<double>(submitted);
  }
  [[nodiscard]] double latency_ms(double q) const {
    return perfbench::quantile(latency_s, q) * 1000.0;
  }
  /// The throughput gate's condition for a phase run at kGateFraction.
  [[nodiscard]] bool meets_slo(double deadline_s) const {
    return accepted > 0 && latency_ms(0.99) <= deadline_s * 1000.0 &&
           shed_frac() <= kGateMaxShed;
  }

  [[nodiscard]] obs::Json to_json() const {
    obs::Json::Object shed_json;
    for (const auto& [reason, count] : shed) {
      shed_json[reason] = obs::Json(static_cast<double>(count));
    }
    return obs::Json::Object{
        {"rate_per_s", obs::Json(rate)},
        {"submitted", obs::Json(static_cast<double>(submitted))},
        {"accepted", obs::Json(static_cast<double>(accepted))},
        {"abstained", obs::Json(static_cast<double>(abstained))},
        {"latency_p50_ms", obs::Json(latency_ms(0.50))},
        {"latency_p99_ms", obs::Json(latency_ms(0.99))},
        {"lag_p99_ms", obs::Json(perfbench::quantile(lag_s, 0.99) * 1000.0)},
        {"mean_batch_size",
         obs::Json(accepted == 0 ? 0.0
                                 : batch_size_sum /
                                       static_cast<double>(accepted))},
        {"shed_frac", obs::Json(shed_frac())},
        {"shed", obs::Json(std::move(shed_json))}};
  }
};

}  // namespace scwc::bench
