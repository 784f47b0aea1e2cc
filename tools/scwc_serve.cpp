// scwc_serve — run the online classification service against simulated
// live jobs.
//
// Trains (or loads from --bundle-cache) a RandomForest + covariance model
// bundle, registers it, then streams several unseen jobs' telemetry
// through ClassificationService::ingest_block exactly as a monitoring
// daemon would: samples arrive per job, the WindowAssembler closes
// windows, the MicroBatcher coalesces them across jobs, and each window's
// guarded prediction is printed as it resolves. Ends with the serve-layer
// metrics so the shed/abstain accounting is visible.
//
// Live telemetry: --listen PORT embeds the net scrape server
// (GET /metrics, /healthz, /vars) for the run's duration; --trace-out
// writes sampled request traces as a chrome://tracing document;
// --audit-out appends one scwc.audit/v1 JSONL record per verdict.
//
//   ./scwc_serve [--scale tiny] [--jobs 4] [--bundle-cache PATH]
//                [--listen PORT [--listen-s SECONDS]]
//                [--trace-out trace.json [--trace-sample 0.05]]
//                [--audit-out audit.jsonl]
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "net/scrape.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/audit.hpp"
#include "serve/bundle_io.hpp"
#include "serve/chaos.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"
#include "telemetry/architectures.hpp"
#include "telemetry/corpus.hpp"
#include "telemetry/gpu_synth.hpp"

int main(int argc, char** argv) {
  using namespace scwc;

  CliParser cli("Online inference service over simulated live jobs.");
  cli.add_flag("scale", "tiny", "scale profile: tiny|small|full");
  cli.add_flag("jobs", "4", "number of concurrent live jobs to stream");
  cli.add_flag("duration-s", "300", "simulated duration of each live job");
  cli.add_flag("deadline-ms", "20",
               "latency budget; batcher max_delay is a quarter of this");
  cli.add_flag("bundle-cache", "",
               "path to save/load the serialised model bundle "
               "(trains once, reloads on later runs)");
  cli.add_flag("chaos", "0",
               "fault-injection severity in (0, 1]; > 0 arms a seeded "
               "ChaosInjector and enables the health breaker");
  cli.add_flag("chaos-seed", "1234", "chaos replay seed");
  cli.add_flag("listen", "-1",
               "serve GET /metrics, /healthz, /vars on this loopback port "
               "for the run's duration (0 = ephemeral; -1 disables)");
  cli.add_flag("listen-s", "0",
               "keep the scrape endpoint up this many extra seconds after "
               "the stream drains (for interactive curls)");
  cli.add_flag("trace-out", "",
               "write sampled request traces + span tree as a "
               "chrome://tracing JSON document");
  cli.add_flag("trace-sample", "0.05",
               "request head-sampling rate in [0,1] (used when --trace-out "
               "is set)");
  cli.add_flag("audit-out", "",
               "append one scwc.audit/v1 JSONL record per verdict");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const ScaleProfile profile = ScaleProfile::named(cli.get_string("scale"));
  core::print_profile_banner(std::cout, profile,
                             "scwc_serve — online classification service");

  const core::ChallengeConfig cfg =
      core::ChallengeConfig::from_profile(profile);

  // 1) Obtain the serving bundle: load the cached serialisation when one
  // exists, else train and (optionally) cache it.
  const double chaos_severity = cli.get_double("chaos");
  const std::string cache = cli.get_string("bundle-cache");
  std::shared_ptr<const serve::ModelBundle> bundle;
  std::shared_ptr<const serve::ModelBundle> fallback;
  if (!cache.empty() && std::filesystem::exists(cache)) {
    bundle = serve::load_bundle_file(cache);
    std::cout << "loaded bundle " << bundle->version() << " from " << cache
              << "\n\n";
  } else {
    std::cout << "training serving bundle on 60-random-1 windows...\n";
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = profile.jobs_per_class;
    const telemetry::Corpus corpus =
        telemetry::generate_corpus(corpus_config);
    const data::ChallengeDataset ds = core::build_challenge_dataset(
        corpus, cfg, data::WindowPolicy::kRandom, 0);
    serve::RfBundleSpec spec;
    spec.version = "rf-cov-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 100;
    bundle = serve::train_rf_bundle(spec, ds.x_train, ds.y_train);
    if (chaos_severity > 0.0) {
      // Cheap degraded-mode bundle for rung 1 of the fallback chain.
      serve::RfBundleSpec lite = spec;
      lite.version = "rf-lite";
      lite.forest.n_estimators = 8;
      fallback = serve::train_rf_bundle(lite, ds.x_train, ds.y_train);
    }
    if (!cache.empty()) {
      serve::save_bundle_file(*bundle, cache);
      std::cout << "cached bundle to " << cache << '\n';
    }
    std::cout << "bundle " << bundle->version() << " ready ("
              << ds.train_trials() << " training trials)\n\n";
  }
  const std::size_t steps = bundle->guard_config().window_steps;
  const std::size_t sensors = bundle->guard_config().sensors;

  // 2) Stand up the registry + service (health breaker and fault injection
  // only when --chaos asks for them).
  serve::ModelRegistry registry;
  registry.register_bundle(bundle);
  if (fallback != nullptr) {
    registry.register_bundle(fallback, /*activate=*/false);
  }
  const double deadline_s = cli.get_double("deadline-ms") / 1000.0;
  serve::ServiceConfig service_config;
  service_config.assembler.window_steps = steps;
  service_config.assembler.sensors = sensors;
  service_config.batcher.max_delay_s = deadline_s / 4.0;
  service_config.default_deadline_s = deadline_s;
  std::unique_ptr<serve::ChaosInjector> chaos;
  if (chaos_severity > 0.0) {
    chaos = std::make_unique<serve::ChaosInjector>(
        serve::ChaosProfile::at_severity(chaos_severity),
        static_cast<std::uint64_t>(cli.get_int("chaos-seed")));
    service_config.chaos = chaos.get();
    service_config.health.enabled = true;
    if (fallback != nullptr) {
      service_config.health.fallback_version = fallback->version();
    } else {
      std::cout << "note: cached bundle has no rf-lite companion — the "
                   "fallback chain degrades straight to abstain-only\n";
    }
  }
  const std::string trace_out = cli.get_string("trace-out");
  if (!trace_out.empty()) {
    service_config.trace.sample_rate = cli.get_double("trace-sample");
  }
  const std::string audit_out = cli.get_string("audit-out");
  std::unique_ptr<serve::AuditLogger> audit;
  if (!audit_out.empty()) {
    audit = std::make_unique<serve::AuditLogger>(audit_out);
    service_config.audit = audit.get();
  }
  serve::ClassificationService service(registry, service_config);
  if (chaos != nullptr) {
    chaos->set_armed(true);
    std::cout << "chaos armed: severity " << chaos_severity << ", seed "
              << cli.get_int("chaos-seed") << "\n\n";
  }

  // Live scrape endpoint: /metrics (Prometheus), /healthz (breaker +
  // fallback depth), /vars (full metrics snapshot as JSON). Loopback only.
  std::unique_ptr<net::ScrapeServer> scrape;
  const int listen_port = cli.get_int("listen");
  if (listen_port >= 0) {
    scrape = std::make_unique<net::ScrapeServer>(
        static_cast<std::uint16_t>(listen_port));
    scrape->add_route("/metrics", "text/plain; version=0.0.4", [] {
      return obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
    });
    scrape->add_route("/healthz", "application/json", [&service] {
      obs::Json::Object health;
      const serve::FallbackChain* chain = service.chain();
      health["status"] = obs::Json("ok");
      health["breaker"] = obs::Json(
          chain != nullptr ? serve::breaker_state_name(chain->state())
                           : "disabled");
      health["fallback_depth"] = obs::Json(
          static_cast<double>(chain != nullptr ? chain->depth() : 0));
      health["pending"] = obs::Json(static_cast<double>(service.pending()));
      return obs::Json(std::move(health)).dump() + "\n";
    });
    scrape->add_route("/vars", "application/json", [] {
      return obs::metrics_to_json(obs::MetricsRegistry::global().snapshot())
                 .dump(2) +
             "\n";
    });
    scrape->start();
    // Flushed now: with stdout on a file or pipe, a supervisor that passed
    // --listen 0 reads the port from this line while the server runs.
    std::cout << "scrape endpoint: http://127.0.0.1:" << scrape->port()
              << "  (/metrics /healthz /vars)\n\n"
              << std::flush;
  }

  // 3) Simulate unseen live jobs, one per architecture family slot, and
  // stream them through the service a second of samples at a time —
  // interleaved, the way independent jobs' telemetry actually arrives.
  const auto n_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
  struct LiveJob {
    telemetry::JobSpec spec;
    telemetry::TimeSeries stream;
    std::size_t fed_steps = 0;
  };
  std::vector<LiveJob> jobs(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    LiveJob& job = jobs[j];
    job.spec.job_id = static_cast<std::int64_t>(900000 + j);
    job.spec.class_id =
        static_cast<int>((j * 7) % telemetry::kNumClasses);
    job.spec.num_gpus = 2;
    job.spec.num_nodes = 1;
    job.spec.duration_s = cli.get_double("duration-s");
    job.spec.seed = 0xFEEDF00DULL + j;  // not in the training corpus
    job.stream = telemetry::synthesize_gpu_series(job.spec, 0, cfg.sample_hz);
    std::cout << "live job " << job.spec.job_id << ": "
              << telemetry::architecture(job.spec.class_id).name << ", "
              << job.stream.steps() << " steps @ " << cfg.sample_hz
              << " Hz\n";
  }
  std::cout << '\n';

  struct Outcome {
    int class_id = 0;
    serve::PendingWindow pending;
  };
  std::vector<Outcome> outcomes;
  const auto chunk = static_cast<std::size_t>(cfg.sample_hz) * 30;
  const Stopwatch wall;
  bool streaming = true;
  while (streaming) {
    streaming = false;
    for (LiveJob& job : jobs) {
      if (job.fed_steps >= job.stream.steps()) continue;
      streaming = true;
      const std::size_t n =
          std::min(chunk, job.stream.steps() - job.fed_steps);
      const auto block = job.stream.values.flat().subspan(
          job.fed_steps * sensors, n * sensors);
      for (auto& window : service.ingest_block(job.spec.job_id, block)) {
        outcomes.push_back({job.spec.class_id, std::move(window)});
      }
      job.fed_steps += n;
    }
  }
  for (LiveJob& job : jobs) {
    for (auto& window : service.finish_job(job.spec.job_id)) {
      outcomes.push_back({job.spec.class_id, std::move(window)});
    }
  }
  // Faults stop at end-of-stream; retries below then hit a healing service.
  if (chaos != nullptr) chaos->set_armed(false);

  // 4) Print every window's guarded verdict as the batches resolve. A
  // window shed for a retryable reason (queue/executor pressure, a chaos-
  // dropped batch) is resubmitted once through the shared backoff helper —
  // its payload is rebuilt from the job's stream, so only full windows are
  // eligible (a truncated finish_job() tail stays shed).
  serve::RetryPolicy retry_policy;
  Rng retry_rng(0x5e12e0adULL);
  std::size_t retried = 0;
  std::size_t retry_recovered = 0;
  std::cout << "job      window@s  prediction        correct  latency\n";
  std::size_t correct = 0;
  std::size_t answered = 0;
  for (Outcome& outcome : outcomes) {
    serve::ServeResult result = outcome.pending.result.get();
    if (!result.accepted && serve::retryable(result.reject_reason)) {
      const auto j =
          static_cast<std::size_t>(outcome.pending.job_id - 900000);
      const auto flat = jobs[j].stream.values.flat();
      const std::size_t begin = outcome.pending.start_step * sensors;
      const std::size_t need = steps * sensors;
      if (begin + need <= flat.size()) {
        const std::vector<double> window(flat.begin() + begin,
                                         flat.begin() + begin + need);
        ++retried;
        result = serve::submit_with_retry(service, window, steps, sensors,
                                          retry_policy, retry_rng);
        if (result.accepted) ++retry_recovered;
      }
    }
    std::cout << outcome.pending.job_id << "  " << std::setw(7) << std::fixed
              << std::setprecision(0)
              << static_cast<double>(outcome.pending.start_step) /
                     cfg.sample_hz;
    if (!result.accepted) {
      std::cout << "  shed (" << reject_reason_name(result.reject_reason)
                << ")\n";
      continue;
    }
    if (result.prediction.abstained) {
      std::cout << "  abstain ("
                << robust::abstain_reason_name(result.prediction.reason)
                << ", quality "
                << std::setprecision(2) << result.prediction.report.quality()
                << ")\n";
      continue;
    }
    const bool hit = result.prediction.label == outcome.class_id;
    ++answered;
    correct += hit ? 1 : 0;
    std::cout << "  " << std::setw(16) << std::left
              << telemetry::architecture(result.prediction.label).name
              << std::right << "  " << (hit ? "yes" : "NO ") << "     "
              << std::setprecision(2) << result.total_latency_s * 1000.0
              << " ms  [" << result.model_version << ", batch "
              << result.batch_size << "]\n";
  }
  service.stop();

  std::cout << "\nanswered " << answered << "/" << outcomes.size()
            << " windows, accuracy on answered: "
            << (answered > 0 ? 100.0 * static_cast<double>(correct) /
                                   static_cast<double>(answered)
                             : 0.0)
            << " %, wall " << wall.seconds() << " s\n";
  if (retried > 0) {
    std::cout << "retried " << retried << " retryable sheds, recovered "
              << retry_recovered << '\n';
  }

  if (chaos != nullptr) {
    std::cout << "\n--- chaos ---\n";
    std::cout << "injected: " << serve::to_string(chaos->counts()) << '\n';
    if (service.chain() != nullptr) {
      std::cout << "breaker: "
                << serve::breaker_state_name(service.chain()->state())
                << ", fallback depth " << service.chain()->depth()
                << ", trips " << service.chain()->trips() << ", recoveries "
                << service.chain()->recoveries();
      if (service.chain()->recoveries() > 0) {
        std::cout << ", last incident " << std::setprecision(3)
                  << service.chain()->last_recovery_s() << " s";
      }
      std::cout << '\n';
    }
  }

  // 5) The same snapshot a scrape endpoint would serve.
  if (obs::enabled()) {
    std::cout << "\n--- serve metrics (SCWC_OBS=on) ---\n";
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("scwc_serve_", 0) == 0 ||
          name.rfind("scwc_robust_guard_", 0) == 0) {
        std::cout << name << " " << value << '\n';
      }
    }
  }

  // 6) Telemetry artifacts: chrome trace from the sampled requests, audit
  // log flush, optional scrape linger for interactive inspection.
  if (!trace_out.empty()) {
    const std::vector<obs::RequestTraceRecord> records =
        service.tracer().drain();
    const obs::SpanStats span_root = obs::span_tree_snapshot();
    if (obs::write_chrome_trace_file(trace_out, records, span_root)) {
      std::cout << "\nchrome trace: " << trace_out << " (" << records.size()
                << " sampled requests";
      if (service.tracer().dropped() > 0) {
        std::cout << ", " << service.tracer().dropped()
                  << " dropped by the record ring";
      }
      std::cout << ")\n";
    } else {
      std::cout << "\ncannot write chrome trace to " << trace_out << '\n';
      return 1;
    }
  }
  if (audit != nullptr) {
    audit->flush();
    std::cout << "audit log: " << audit_out << " ("
              << audit->records_written() << " records"
              << (audit->ok() ? "" : ", WRITE ERRORS") << ")\n";
    if (!audit->ok()) return 1;
  }
  const double listen_s = cli.get_double("listen-s");
  if (scrape != nullptr && listen_s > 0.0) {
    std::cout << "scrape endpoint stays up " << listen_s
              << " s — curl http://127.0.0.1:" << scrape->port()
              << "/metrics\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::duration<double>(listen_s));
  }
  if (scrape != nullptr) {
    std::cout << "scrape requests served: " << scrape->requests_served()
              << '\n';
    scrape->stop();
  }
  return 0;
}
