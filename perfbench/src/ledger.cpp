#include "ledger.hpp"

#include <algorithm>
#include <cmath>

#include "net/wire.hpp"
#include "robust/robust_window.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kSingles = 8;  ///< batch-of-one calls per batch

/// One batch of 64 payload windows plus the inputs each stage needs, built
/// once so that only the stage under test runs inside a timed region.
struct Batch {
  scwc::data::Tensor3 raw;      ///< as served (may hold NaN)
  scwc::data::Tensor3 packed;   ///< imputed quality-gate survivors
  scwc::linalg::Matrix features;
  std::vector<scwc::linalg::Matrix> feature_rows;  ///< first rows, 1×d
  std::vector<scwc::data::Tensor3> singles;        ///< first windows, 1 each
  std::vector<scwc::net::SubmitWindowFrame> submits;
  std::vector<std::string> submit_bytes;
  std::vector<scwc::net::VerdictFrame> verdicts;
  std::vector<std::string> verdict_bytes;
};

Batch make_batch(const scwc::serve::ModelBundle& bundle,
                 const std::vector<std::vector<double>>& payload,
                 std::size_t first, std::size_t steps, std::size_t sensors) {
  const scwc::robust::GuardedConfig& guard = bundle.guard_config();
  Batch b;
  b.raw = scwc::data::Tensor3(kBatch, steps, sensors);
  scwc::data::Tensor3 repaired(kBatch, steps, sensors);
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::vector<double>& w = payload[(first + i) % payload.size()];
    std::copy(w.begin(), w.end(), b.raw.trial(i).begin());
    std::copy(w.begin(), w.end(), repaired.trial(i).begin());
    scwc::robust::QualityReport report;
    report.steps = steps;
    report.sensors = sensors;
    report.missing_values = static_cast<std::size_t>(std::count_if(
        w.begin(), w.end(), [](double v) { return !std::isfinite(v); }));
    scwc::robust::impute_window(repaired.trial(i), steps, sensors,
                                guard.imputation, report);
    if (report.usable(guard.min_quality)) survivors.push_back(i);
  }
  b.packed = scwc::data::Tensor3(survivors.size(), steps, sensors);
  for (std::size_t j = 0; j < survivors.size(); ++j) {
    const auto src = repaired.trial(survivors[j]);
    std::copy(src.begin(), src.end(), b.packed.trial(j).begin());
  }
  if (!survivors.empty()) b.features = bundle.pipeline().transform(b.packed);
  for (std::size_t r = 0; r < std::min(kSingles, survivors.size()); ++r) {
    scwc::linalg::Matrix row(1, b.features.cols());
    const auto src = b.features.row(r);
    std::copy(src.begin(), src.end(), row.row(0).begin());
    b.feature_rows.push_back(std::move(row));
  }
  const std::vector<scwc::robust::GuardedPrediction> predictions =
      bundle.guard().classify_batch(b.raw);
  for (std::size_t i = 0; i < kBatch; ++i) {
    if (i < kSingles) {
      scwc::data::Tensor3 one(1, steps, sensors);
      const auto src = b.raw.trial(i);
      std::copy(src.begin(), src.end(), one.trial(0).begin());
      b.singles.push_back(std::move(one));
    }
    scwc::net::SubmitWindowFrame submit;
    submit.request_id = first + i + 1;
    submit.job_id = static_cast<std::int64_t>(i);
    submit.deadline_ns = 20'000'000;
    submit.steps = static_cast<std::uint32_t>(steps);
    submit.sensors = static_cast<std::uint32_t>(sensors);
    const auto src = b.raw.trial(i);
    submit.values.assign(src.begin(), src.end());
    submit.trace_id = submit.request_id;
    b.submit_bytes.push_back(scwc::net::encode_submit_window(submit));
    b.submits.push_back(std::move(submit));

    const scwc::robust::GuardedPrediction& p = predictions[i];
    scwc::net::VerdictFrame verdict;
    verdict.request_id = first + i + 1;
    verdict.trace_id = verdict.request_id;
    verdict.job_id = static_cast<std::int64_t>(i);
    verdict.accepted = true;
    verdict.abstained = p.abstained;
    verdict.abstain_reason = static_cast<std::uint8_t>(p.reason);
    verdict.label = p.label;
    verdict.batch_size = kBatch;
    verdict.quality = p.report.quality();
    verdict.missing_values = static_cast<std::uint32_t>(p.report.missing_values);
    verdict.repaired_values =
        static_cast<std::uint32_t>(p.report.repaired_values);
    verdict.model_version = bundle.version();
    b.verdict_bytes.push_back(scwc::net::encode_verdict(verdict));
    b.verdicts.push_back(std::move(verdict));
  }
  return b;
}

}  // namespace

Ledger measure_ledger(const scwc::serve::ModelBundle& bundle,
                      const std::vector<std::vector<double>>& payload,
                      std::size_t steps, std::size_t sensors, double budget_s,
                      SpanLog& spans) {
  const scwc::robust::GuardedConfig& guard = bundle.guard_config();
  const std::size_t batch_count = std::max<std::size_t>(1, payload.size() / kBatch);
  std::vector<Batch> batches;
  for (std::size_t k = 0; k < batch_count; ++k) {
    batches.push_back(make_batch(bundle, payload, k * kBatch, steps, sensors));
  }

  // Per-window microsecond samples, one per batch visit.
  std::vector<double> impute, transform, predict64, predict1, classify64,
      classify1, inside_t, inside_p, enc_s, dec_s, enc_v, dec_v;
  scwc::data::Tensor3 scratch(kBatch, steps, sensors);
  const auto per_window_us = [](double seconds, std::size_t n) {
    return seconds * 1e6 / static_cast<double>(std::max<std::size_t>(n, 1));
  };

  const Clock::time_point stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (std::size_t round = 0; round < 64 && (round < 2 || Clock::now() < stop_at);
       ++round) {
    for (const Batch& b : batches) {
      const std::uint64_t id = spans.next_id();
      const double batch_start = spans.now_s();
      // Times `fn` and records it as a child span of this batch visit.
      const auto timed = [&](const char* name, auto&& fn) {
        const double t0 = spans.now_s();
        fn();
        const double t1 = spans.now_s();
        spans.add(id, name, "ledger.batch", t0, t1);
        return t1 - t0;
      };

      std::copy(b.raw.trial(0).begin(), b.raw.trial(kBatch - 1).end(),
                scratch.trial(0).begin());
      impute.push_back(per_window_us(timed("robust.impute_window", [&] {
        for (std::size_t i = 0; i < kBatch; ++i) {
          scwc::robust::QualityReport report;
          scwc::robust::impute_window(scratch.trial(i), steps, sensors,
                                      guard.imputation, report);
        }
      }), kBatch));

      if (b.packed.trials() > 0) {
        scwc::linalg::Matrix features;
        transform.push_back(per_window_us(
            timed("preprocess.transform",
                  [&] { features = bundle.pipeline().transform(b.packed); }),
            kBatch));
        predict64.push_back(per_window_us(
            timed("ml.predict.b64", [&] { (void)bundle.model().predict(b.features); }),
            kBatch));
        predict1.push_back(per_window_us(timed("ml.predict.b1", [&] {
          for (const auto& row : b.feature_rows) (void)bundle.model().predict(row);
        }), b.feature_rows.size()));
      } else {
        transform.push_back(0.0);
        predict64.push_back(0.0);
      }

      scwc::robust::BatchPhaseTimings inside;
      classify64.push_back(per_window_us(timed("robust.classify_batch.b64", [&] {
        (void)bundle.guard().classify_batch(b.raw, &inside);
      }), kBatch));
      inside_t.push_back(per_window_us(inside.transform_s, kBatch));
      inside_p.push_back(per_window_us(inside.predict_s, kBatch));
      classify1.push_back(per_window_us(timed("robust.classify_batch.b1", [&] {
        for (const auto& one : b.singles) (void)bundle.guard().classify_batch(one);
      }), b.singles.size()));

      enc_s.push_back(per_window_us(timed("net.encode_submit", [&] {
        for (const auto& f : b.submits) (void)scwc::net::encode_submit_window(f);
      }), kBatch));
      dec_s.push_back(per_window_us(timed("net.decode_submit", [&] {
        for (const auto& s : b.submit_bytes) (void)scwc::net::decode_submit_window(s);
      }), kBatch));
      enc_v.push_back(per_window_us(timed("net.encode_verdict", [&] {
        for (const auto& f : b.verdicts) (void)scwc::net::encode_verdict(f);
      }), kBatch));
      dec_v.push_back(per_window_us(timed("net.decode_verdict", [&] {
        for (const auto& s : b.verdict_bytes) (void)scwc::net::decode_verdict(s);
      }), kBatch));
      spans.add(id, "ledger.batch", "", batch_start, spans.now_s());
    }
  }

  Ledger l;
  l.impute_us = median(impute);
  l.transform_b64_us = median(transform);
  l.predict_b64_us = median(predict64);
  l.predict_b1_us = median(predict1);
  l.classify_b64_us = median(classify64);
  l.classify_b1_us = median(classify1);
  l.inside_transform_us = median(inside_t);
  l.inside_predict_us = median(inside_p);
  l.residual_us =
      l.classify_b64_us - l.impute_us - l.transform_b64_us - l.predict_b64_us;
  l.encode_submit_us = median(enc_s);
  l.decode_submit_us = median(dec_s);
  l.encode_verdict_us = median(enc_v);
  l.decode_verdict_us = median(dec_v);
  const Batch& b0 = batches.front();
  l.frame_bytes_per_window =
      static_cast<double>(
          scwc::net::encode_frame(scwc::net::FrameType::kSubmitWindow,
                                  b0.submit_bytes.front())
              .size() +
          scwc::net::encode_frame(scwc::net::FrameType::kVerdict,
                                  b0.verdict_bytes.front())
              .size());
  const double parts = l.impute_us + l.transform_b64_us + l.predict_b64_us;
  const double outside = l.transform_b64_us + l.predict_b64_us;
  const double inside_sum = l.inside_transform_us + l.inside_predict_us;
  l.closes = parts <= 1.10 * l.classify_b64_us &&
             std::abs(outside - inside_sum) <= 0.35 * std::max(outside, inside_sum);
  return l;
}

}  // namespace perfbench
