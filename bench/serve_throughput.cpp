// Serve-layer load test — capacity and latency of scwc_serve.
//
// Trains a RandomForest + covariance bundle, registers it, then measures
// the ClassificationService with perfbench's load harness: its saturated
// capacity (a closed loop of four full batches in flight), then open-loop
// Poisson phases at fixed fractions of that capacity, each reporting
// p50/p99 latency timed from the due time, shed fraction and generator
// lag. Results go to a tracked JSON artifact (BENCH_serve.json) so serving
// regressions show up in review diffs. A full run fails unless the phase
// at half capacity meets the deadline at p99 with at most 1% shed.
//
// Before the load phases the bench proves the batching invariant: labels
// from one classify_batch call must equal the per-window classify labels
// at the same model version — a mismatch fails the run.
//
// SCWC_SMOKE=1 shortens every phase — same code path, seconds of wall
// time, used by the serve-smoke ctest; it reports the throughput gate but
// does not enforce it.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "load_phase.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;

constexpr std::size_t kMaxPending = 4096;
/// Open-loop load, as fractions of the measured capacity.
constexpr double kFractions[] = {0.25, bench::kGateFraction, 0.75, 0.9};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Capacity and open-loop latency of the online serving layer.");
  cli.add_flag("scale", "", "scale profile (default: SCWC_SCALE or tiny)");
  cli.add_flag("seconds", "3",
               "duration of the capacity phase and of each load phase");
  cli.add_flag("deadline-ms", "20",
               "latency budget; batcher max_delay is a quarter of this");
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
  double seconds = cli.get_double("seconds");
  if (smoke) {
    seconds = std::min(seconds, 0.2);
    std::cout << "SCWC_SMOKE: " << seconds << " s phases\n";
  }
  const double deadline_s = cli.get_double("deadline-ms") / 1000.0;
  const auto deadline = std::chrono::duration_cast<perfbench::Clock::duration>(
      std::chrono::duration<double>(deadline_s));

  core::print_profile_banner(
      std::cout, profile,
      "Serve throughput — capacity and open-loop load on the online "
      "inference service");

  const Stopwatch wall;
  obs::Json results;
  bool slo_ok = false;
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
    service_config.batcher.max_batch = bench::kMaxBatch;
    service_config.batcher.max_delay_s = deadline_s / 4.0;
    service_config.admission.max_pending = kMaxPending;
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
    const auto submit_now = [&](std::size_t i) {
      return service.submit(payload[i % payload.size()], steps, sensors);
    };

    // 4) Capacity: a short unmeasured burst warms caches and pool workers,
    // then the closed loop keeps four full batches in flight.
    double capacity = 0.0;
    {
      const obs::TraceSpan span("serve_bench.capacity");
      (void)bench::saturated_wps(std::min(seconds, 0.1), submit_now);
      capacity = bench::saturated_wps(seconds, submit_now);
    }
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\nsaturated capacity: " << capacity << " windows/s ("
              << bench::kSaturationWindow << " in flight)\n";

    // 5) Open-loop Poisson phases at fixed fractions of that capacity:
    // arrivals never wait for completions, so queue growth shows as
    // latency, and each request is timed from when it was due.
    Rng rng(cfg.seed ^ 0x5e12e0adULL);
    std::vector<std::size_t> retry_payloads;  // submission order of sheds
    obs::Json::Array curve;
    std::cout << "fraction  rate/s      p50 ms  p99 ms  shed %  lag p99 ms\n";
    for (const double fraction : kFractions) {
      const obs::TraceSpan span("serve_bench.load");
      const perfbench::Schedule schedule = perfbench::poisson_schedule(
          fraction * capacity, seconds, payload.size(), rng);
      bench::Phase phase;
      phase.rate = schedule.rate;
      (void)perfbench::drive(
          schedule,
          [&](std::size_t i, perfbench::Clock::time_point due) {
            return service.submit(payload[schedule.payload[i]], steps,
                                  sensors, due + deadline);
          },
          [&](std::size_t i, perfbench::Issued&& r) { phase.add(i, r); });
      for (const std::size_t i : phase.retryable) {
        retry_payloads.push_back(schedule.payload[i]);
      }
      std::cout << std::setw(8) << fraction << "  " << std::setw(10)
                << phase.rate << "  " << std::setw(6) << phase.latency_ms(0.5)
                << "  " << std::setw(6) << phase.latency_ms(0.99) << "  "
                << std::setw(6) << phase.shed_frac() * 100.0 << "  "
                << std::setw(10)
                << perfbench::quantile(phase.lag_s, 0.99) * 1000.0 << '\n';
      if (fraction == bench::kGateFraction) {
        slo_ok = phase.meets_slo(deadline_s);
      }
      obs::Json row = phase.to_json();
      row["fraction"] = fraction;
      curve.push_back(std::move(row));
    }

    // 5b) Retry pass: resubmit every retryable shed through the shared
    // jittered-backoff helper. Kept OUT of the open-loop stats above — each
    // phase reports what its rate actually got — and reported separately
    // as the recovery the client path would see.
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
      std::cout << "retry pass: " << retry_payloads.size()
                << " retryable sheds resubmitted, " << retry_recovered
                << " recovered\n";
    }
    service.stop();

    std::cout << "target: p99 ≤ " << deadline_s * 1000.0 << " ms and shed ≤ "
              << bench::kGateMaxShed * 100.0 << "% at "
              << bench::kGateFraction << "× capacity "
              << (slo_ok ? "PASS" : (smoke ? "skip (smoke)" : "MISS"))
              << '\n';

    results["schema"] = "scwc.bench_serve/v2";
    results["provenance"] = perfbench::provenance(
        "serve_throughput", cfg.seed, SCWC_GIT_DESCRIBE);
    results["profile"] = profile.name;
    results["model_version"] = bundle->version();
    results["window"] = obs::Json::Object{
        {"steps", obs::Json(static_cast<double>(steps))},
        {"sensors", obs::Json(static_cast<double>(sensors))}};
    results["config"] = obs::Json::Object{
        {"seconds", obs::Json(seconds)},
        {"deadline_ms", obs::Json(deadline_s * 1000.0)},
        {"max_batch", obs::Json(static_cast<double>(bench::kMaxBatch))},
        {"max_pending", obs::Json(static_cast<double>(kMaxPending))},
        {"saturation_window",
         obs::Json(static_cast<double>(bench::kSaturationWindow))},
        {"smoke", obs::Json(smoke)}};
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
    results["saturated_capacity_wps"] = capacity;
    results["curve"] = obs::Json(std::move(curve));
    results["slo_gate"] = obs::Json::Object{
        {"fraction", obs::Json(bench::kGateFraction)},
        {"max_shed_frac", obs::Json(bench::kGateMaxShed)},
        {"pass", obs::Json(slo_ok)}};
    results["retry"] = obs::Json::Object{
        {"retried", obs::Json(static_cast<double>(retry_payloads.size()))},
        {"recovered", obs::Json(static_cast<double>(retry_recovered))}};
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
  report.title = "Serve throughput — capacity and open-loop load test";
  report.profile = profile.name;
  report.config = {{"seconds", cli.get_string("seconds")},
                   {"deadline_ms", cli.get_string("deadline-ms")},
                   {"smoke", smoke ? "1" : "0"}};
  report.wall_seconds = wall.seconds();
  const auto path = obs::write_run_report(report);
  if (!path.empty()) std::cout << "run report: " << path.string() << '\n';
  return slo_ok || smoke ? 0 : 1;
}
