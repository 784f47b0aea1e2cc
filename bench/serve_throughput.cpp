// Serve-layer load test — open-loop throughput and latency of scwc_serve.
//
// Trains a RandomForest + covariance bundle, registers it, then drives the
// ClassificationService with an open-loop Poisson arrival stream (arrivals
// do not wait for completions — the honest way to measure a service, since
// closed-loop load generators hide queueing collapse). Reports sustained
// windows/sec, p50/p99 end-to-end latency, batch-size distribution and the
// per-reason shed counts, and writes them to a tracked JSON artifact
// (BENCH_serve.json) so serving regressions show up in review diffs.
//
// Before the load phase the bench proves the batching invariant: labels
// from one classify_batch call must equal the per-window classify labels
// at the same model version — a mismatch fails the run.
//
// SCWC_SMOKE=1 shrinks the run (lower rate, sub-second duration) — same
// code path, seconds of wall time, used by the serve-smoke ctest.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "linalg/stats.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;
using linalg::quantile_sorted;

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Open-loop Poisson load test of the online serving layer.");
  cli.add_flag("scale", "", "scale profile (default: SCWC_SCALE or tiny)");
  cli.add_flag("rate", "20000", "offered load, windows/second");
  cli.add_flag("seconds", "3", "load duration in seconds");
  cli.add_flag("deadline-ms", "20",
               "latency budget; batcher max_delay is a quarter of this");
  cli.add_flag("max-batch", "64", "micro-batch size bound");
  cli.add_flag("max-pending", "4096", "admission bound on queued requests");
  cli.add_flag("out", "BENCH_serve.json", "result artifact path");
  cli.add_flag("trace-sample", "0.01",
               "request head-sampling rate; the default 1% runs in every "
               "bench so the reported throughput includes tracing cost");
  cli.add_flag("trace-out", "",
               "also write the sampled requests as a chrome://tracing "
               "JSON document");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const bool smoke = env_int("SCWC_SMOKE", 0) != 0;
  const std::string scale_flag = cli.get_string("scale");
  const ScaleProfile profile = scale_flag.empty()
                                   ? ScaleProfile::from_env("tiny")
                                   : ScaleProfile::named(scale_flag);
  double rate = cli.get_double("rate");
  double seconds = cli.get_double("seconds");
  if (smoke) {
    rate = std::min(rate, 2000.0);
    seconds = std::min(seconds, 0.4);
    std::cout << "SCWC_SMOKE: rate " << rate << "/s for " << seconds
              << " s\n";
  }
  const double deadline_s = cli.get_double("deadline-ms") / 1000.0;

  core::print_profile_banner(
      std::cout, profile,
      "Serve throughput — open-loop load on the online inference service");

  const Stopwatch wall;
  obs::Json results;
  {
    const obs::TraceSpan run_span("bench.serve_throughput");

    // 1) Train the serving bundle (RF + covariance, the paper's best
    // classical arm) on the 60-random-1 dataset.
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = profile.jobs_per_class;
    const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
    const core::ChallengeConfig cfg =
        core::ChallengeConfig::from_profile(profile);
    const data::ChallengeDataset ds = core::build_challenge_dataset(
        corpus, cfg, data::WindowPolicy::kRandom, 0);
    const std::size_t steps = ds.steps();
    const std::size_t sensors = ds.sensors();

    serve::RfBundleSpec spec;
    spec.version = "rf-cov-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 100;
    std::shared_ptr<const serve::ModelBundle> bundle;
    {
      const obs::TraceSpan span("serve_bench.train_bundle");
      bundle = serve::train_rf_bundle(spec, ds.x_train, ds.y_train);
    }
    std::cout << "bundle " << bundle->version() << ": " << ds.train_trials()
              << " training trials, " << steps << "×" << sensors
              << " windows\n";

    // 2) Batching invariant: classify() is a batch of one, so this checks
    // that batch composition does not change a row's verdict — a batch of
    // k must give the same labels as k batches of one at the same version.
    {
      const obs::TraceSpan span("serve_bench.batch_identity");
      const std::size_t k = std::min<std::size_t>(32, ds.test_trials());
      data::Tensor3 probe(k, steps, sensors);
      for (std::size_t i = 0; i < k; ++i) {
        const auto src = ds.x_test.trial(i);
        std::copy(src.begin(), src.end(), probe.trial(i).begin());
      }
      const std::vector<robust::GuardedPrediction> batched =
          bundle->guard().classify_batch(probe);
      for (std::size_t i = 0; i < k; ++i) {
        const robust::GuardedPrediction single =
            bundle->guard().classify(probe.trial(i), steps, sensors);
        if (batched[i].label != single.label ||
            batched[i].abstained != single.abstained) {
          std::cout << "FAIL: batched prediction " << i << " (label "
                    << batched[i].label << ") != single-request label "
                    << single.label << '\n';
          return 1;
        }
      }
      std::cout << "batched == single-request labels on " << k
                << " probe windows: yes\n";
    }

    // 3) Stand up the service.
    serve::ModelRegistry registry;
    registry.register_bundle(bundle);
    serve::ServiceConfig service_config;
    service_config.assembler.window_steps = steps;
    service_config.assembler.sensors = sensors;
    service_config.batcher.max_batch =
        static_cast<std::size_t>(cli.get_int("max-batch"));
    service_config.batcher.max_delay_s = deadline_s / 4.0;
    service_config.admission.max_pending =
        static_cast<std::size_t>(cli.get_int("max-pending"));
    // Deadline enforcement: a request that cannot be answered inside the
    // budget is shed with kDeadlineExceeded instead of answered late.
    service_config.default_deadline_s = deadline_s;
    // Request tracing runs AT the default 1% in the measured load so the
    // reported throughput is the throughput an operator actually gets.
    service_config.trace.sample_rate = cli.get_double("trace-sample");
    serve::ClassificationService service(registry, service_config);

    std::vector<std::vector<double>> payload;
    payload.reserve(ds.test_trials());
    for (std::size_t i = 0; i < ds.test_trials(); ++i) {
      const auto src = ds.x_test.trial(i);
      payload.emplace_back(src.begin(), src.end());
    }

    // 4) Warm-up (populate caches, spin up pool workers) — not measured.
    {
      std::vector<std::future<serve::ServeResult>> warm;
      const std::size_t n = smoke ? 64 : 256;
      warm.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        warm.push_back(
            service.submit(payload[i % payload.size()], steps, sensors));
      }
      for (auto& f : warm) (void)f.get();
    }

    // 5) Open-loop Poisson load: the next arrival time never depends on
    // completions, so queue growth under overload is visible, not hidden.
    using clock = std::chrono::steady_clock;
    Rng rng(cfg.seed ^ 0x5e12e0adULL);
    std::vector<std::future<serve::ServeResult>> futures;
    futures.reserve(static_cast<std::size_t>(rate * seconds * 1.25) + 16);
    const auto load_start = clock::now();
    const auto load_end =
        load_start + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
    auto next_arrival = load_start;
    std::size_t submitted = 0;
    {
      const obs::TraceSpan span("serve_bench.load");
      while (clock::now() < load_end) {
        while (clock::now() < next_arrival) {
          std::this_thread::yield();
        }
        futures.push_back(
            service.submit(payload[submitted % payload.size()], steps,
                           sensors));
        ++submitted;
        next_arrival += std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(rng.exponential(rate)));
      }
    }
    const double load_elapsed =
        std::chrono::duration<double>(clock::now() - load_start).count();

    // 6) Collect every result (futures always become ready).
    std::size_t answered = 0;
    std::size_t abstained = 0;
    std::map<std::string, std::size_t> shed;
    std::vector<std::size_t> retry_payloads;  // submission order of sheds
    std::vector<double> latencies;
    latencies.reserve(futures.size());
    std::vector<double> queue_delays;
    queue_delays.reserve(futures.size());
    double batch_size_sum = 0.0;
    {
      const obs::TraceSpan span("serve_bench.collect");
      std::size_t index = 0;
      for (auto& f : futures) {
        const serve::ServeResult r = f.get();
        ++index;
        if (!r.accepted) {
          ++shed[serve::reject_reason_name(r.reject_reason)];
          if (serve::retryable(r.reject_reason)) {
            retry_payloads.push_back((index - 1) % payload.size());
          }
          continue;
        }
        latencies.push_back(r.total_latency_s);
        queue_delays.push_back(r.queue_delay_s);
        batch_size_sum += static_cast<double>(r.batch_size);
        if (r.prediction.abstained) {
          ++abstained;
        } else {
          ++answered;
        }
      }
    }

    // 6b) Retry pass: resubmit every retryable shed through the shared
    // jittered-backoff helper. Kept OUT of the open-loop stats above — the
    // load phase must report what the offered rate actually got — and
    // reported separately as the recovery the client path would see.
    std::size_t retry_recovered = 0;
    if (!retry_payloads.empty()) {
      const obs::TraceSpan span("serve_bench.retry");
      serve::RetryPolicy retry_policy;
      Rng retry_rng(cfg.seed ^ 0x0badcafeULL);
      for (const std::size_t p : retry_payloads) {
        const serve::ServeResult r = serve::submit_with_retry(
            service, payload[p], steps, sensors, retry_policy, retry_rng);
        if (r.accepted) ++retry_recovered;
      }
    }
    service.stop();

    std::sort(latencies.begin(), latencies.end());
    std::sort(queue_delays.begin(), queue_delays.end());
    const std::size_t accepted = latencies.size();
    const double throughput =
        static_cast<double>(accepted) / std::max(load_elapsed, 1e-9);
    const double p50 = quantile_sorted(latencies, 0.50);
    const double p99 = quantile_sorted(latencies, 0.99);
    const double mean_batch =
        accepted > 0 ? batch_size_sum / static_cast<double>(accepted) : 0.0;

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\noffered " << rate << " windows/s for " << load_elapsed
              << " s → " << submitted << " submitted, " << accepted
              << " accepted (" << answered << " answered, " << abstained
              << " abstained)\n";
    std::cout << "sustained throughput: " << throughput << " windows/s\n";
    std::cout << "latency p50/p99: " << p50 * 1000.0 << " / " << p99 * 1000.0
              << " ms (budget " << deadline_s * 1000.0 << " ms)\n";
    std::cout << "queue delay p99: "
              << quantile_sorted(queue_delays, 0.99) * 1000.0
              << " ms, mean batch size " << mean_batch << '\n';
    for (const auto& [reason, count] : shed) {
      std::cout << "shed[" << reason << "]: " << count << '\n';
    }
    if (!retry_payloads.empty()) {
      std::cout << "retry pass: " << retry_payloads.size()
                << " retryable sheds resubmitted, " << retry_recovered
                << " recovered\n";
    }
    const bool rate_ok = throughput >= 10000.0;
    const bool latency_ok = p99 <= deadline_s;
    std::cout << "targets: ≥10k windows/s "
              << (rate_ok ? "PASS" : (smoke ? "skip (smoke)" : "MISS"))
              << ", p99 ≤ deadline "
              << (latency_ok ? "PASS" : (smoke ? "skip (smoke)" : "MISS"))
              << '\n';

    results["schema"] = "scwc.bench_serve/v1";
    results["profile"] = profile.name;
    results["model_version"] = bundle->version();
    results["window"] = obs::Json::Object{
        {"steps", obs::Json(static_cast<double>(steps))},
        {"sensors", obs::Json(static_cast<double>(sensors))}};
    results["config"] = obs::Json::Object{
        {"rate_per_s", obs::Json(rate)},
        {"seconds", obs::Json(seconds)},
        {"deadline_ms", obs::Json(deadline_s * 1000.0)},
        {"max_batch",
         obs::Json(static_cast<double>(service_config.batcher.max_batch))},
        {"max_pending",
         obs::Json(static_cast<double>(service_config.admission.max_pending))},
        {"smoke", obs::Json(smoke)}};
    obs::Json::Object shed_json;
    for (const auto& [reason, count] : shed) {
      shed_json[reason] = obs::Json(static_cast<double>(count));
    }
    // Sampled request traces: drained after stop() so every verdict has
    // been recorded; written before the artifact so a failed write fails
    // the run visibly.
    const std::vector<obs::RequestTraceRecord> trace_records =
        service.tracer().drain();
    const std::string trace_out = cli.get_string("trace-out");
    if (!trace_out.empty()) {
      if (!obs::write_chrome_trace_file(trace_out, trace_records,
                                        obs::span_tree_snapshot())) {
        std::cout << "cannot write chrome trace to " << trace_out << '\n';
        return 1;
      }
      std::cout << "chrome trace: " << trace_out << " ("
                << trace_records.size() << " sampled requests)\n";
    }

    results["tracing"] = obs::Json::Object{
        {"sample_rate", obs::Json(service_config.trace.sample_rate)},
        {"sampled_requests",
         obs::Json(static_cast<double>(trace_records.size()))},
        {"dropped_records",
         obs::Json(static_cast<double>(service.tracer().dropped()))}};
    results["results"] = obs::Json::Object{
        {"submitted", obs::Json(static_cast<double>(submitted))},
        {"accepted", obs::Json(static_cast<double>(accepted))},
        {"answered", obs::Json(static_cast<double>(answered))},
        {"abstained", obs::Json(static_cast<double>(abstained))},
        {"throughput_windows_per_s", obs::Json(throughput)},
        {"latency_p50_ms", obs::Json(p50 * 1000.0)},
        {"latency_p99_ms", obs::Json(p99 * 1000.0)},
        {"queue_delay_p99_ms",
         obs::Json(quantile_sorted(queue_delays, 0.99) * 1000.0)},
        {"mean_batch_size", obs::Json(mean_batch)},
        {"shed", obs::Json(std::move(shed_json))},
        {"retried", obs::Json(static_cast<double>(retry_payloads.size()))},
        {"retry_recovered",
         obs::Json(static_cast<double>(retry_recovered))}};
  }

  const std::string out_path = cli.get_string("out");
  {
    std::ofstream os(out_path);
    if (!os.is_open()) {
      std::cout << "cannot write " << out_path << '\n';
      return 1;
    }
    results.write(os, 2);
    os << '\n';
  }
  std::cout << "\nresult artifact: " << out_path << '\n';
  std::cout << "total wall time: " << wall.seconds() << " s\n";

  obs::RunReport report;
  report.run_id = "serve_throughput";
  report.title = "Serve throughput — open-loop load test";
  report.profile = profile.name;
  report.config = {{"rate", cli.get_string("rate")},
                   {"deadline_ms", cli.get_string("deadline-ms")},
                   {"smoke", smoke ? "1" : "0"}};
  report.wall_seconds = wall.seconds();
  const auto path = obs::write_run_report(report);
  if (!path.empty()) std::cout << "run report: " << path.string() << '\n';
  return 0;
}
