// Cluster load test — capacity and latency of the sharded serving fleet.
//
// Trains the same RF + covariance bundle as the serve bench, saves it to
// disk, forks N scwc_worker processes through perfbench's fleet harness
// (ephemeral ports, write-then-rename port files, one log file per worker
// under --tmp-dir, and workers that die with the bench) and drives them
// through the ShardRouter with perfbench's load harness. Three phases:
//
//   A  steady state   — the fleet's saturated capacity (closed loop, four
//                       full batches in flight), then an open-loop Poisson
//                       phase at half of it: p50/p99 latency timed from the
//                       due time, shed fraction, per-shard latency and the
//                       wire/queue/predict split (gate: p99 ≤ deadline and
//                       shed ≤ 1%, full runs only)
//   B  shard kill     — the same rate; one worker is SIGKILLed at the first
//                       arrival due after half the phase. The ring rehashes
//                       its key range onto the survivors, in-flight windows
//                       on the dead shard shed as retryable kShardDown, and
//                       a retry pass recovers them (availability ≥ 0.95 of
//                       submitted windows answered, full runs only; the
//                       dead shard leaving the ring is gated in every run)
//   C  hot swap       — push a v2 bundle to every shard (all must ack),
//                       then push a corrupted copy (every shard must nack
//                       and the fleet must roll back to version agreement)
//                       while a background client keeps submitting — zero
//                       no-model/shutdown sheds means zero downtime (all
//                       three gated in every run)
//
// Results land in a tracked JSON artifact (BENCH_cluster.json). SCWC_SMOKE=1
// shrinks the run (2 workers, sub-second phases) — the same code path backs
// the cluster-smoke ctest, which enforces every gate that does not depend
// on timing.
#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/challenge.hpp"
#include "core/report.hpp"
#include "fleet.hpp"
#include "load_phase.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "openloop.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;

/// Distinct job ids driving the ring.
constexpr std::size_t kJobs = 64;

std::int64_t job_of(std::size_t request) {
  return static_cast<std::int64_t>(request % kJobs);
}

/// Per-shard samples of the steady phase (seconds).
struct ShardSamples {
  std::vector<double> latency;  // generator lag + total latency
  std::vector<double> wire;     // wire_send + wire_recv
  std::vector<double> queue;    // worker-side admission queue
  std::vector<double> predict;  // worker-side model inference
};

/// {p50_ms, p99_ms} summary of one phase's samples.
obs::Json phase_summary(const std::vector<double>& samples) {
  return obs::Json::Object{
      {"p50_ms", obs::Json(perfbench::quantile(samples, 0.50) * 1000.0)},
      {"p99_ms", obs::Json(perfbench::quantile(samples, 0.99) * 1000.0)}};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Capacity and open-loop load test of the sharded serving "
                "cluster.");
  cli.add_flag("scale", "", "scale profile (default: SCWC_SCALE or tiny)");
  cli.add_flag("workers", "4", "worker processes to fork");
  cli.add_flag("seconds", "3",
               "duration of the capacity phase and of each load phase");
  cli.add_flag("deadline-ms", "50", "per-window latency budget");
  cli.add_flag("worker", "",
               "scwc_worker binary (default: ../tools/scwc_worker next to "
               "this bench)");
  cli.add_flag("tmp-dir", ".",
               "scratch dir for bundles, port files and worker logs");
  cli.add_flag("out", "BENCH_cluster.json", "result artifact path");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const bool smoke = env_int("SCWC_SMOKE", 0) != 0;
  const std::string scale_flag = cli.get_string("scale");
  const ScaleProfile profile = scale_flag.empty()
                                   ? ScaleProfile::from_env("tiny")
                                   : ScaleProfile::named(scale_flag);
  std::size_t workers = static_cast<std::size_t>(cli.get_int("workers"));
  double seconds = cli.get_double("seconds");
  if (smoke) {
    workers = std::min<std::size_t>(workers, 2);
    seconds = std::min(seconds, 0.2);
    std::cout << "SCWC_SMOKE: " << workers << " workers, " << seconds
              << " s phases\n";
  }
  const double deadline_s = cli.get_double("deadline-ms") / 1000.0;

  perfbench::FleetOptions fleet_options;
  fleet_options.worker_bin = cli.get_string("worker");
  if (fleet_options.worker_bin.empty()) {
    fleet_options.worker_bin =
        (std::filesystem::path(argv[0]).parent_path() / ".." / "tools" /
         "scwc_worker")
            .string();
  }
  if (!std::filesystem::exists(fleet_options.worker_bin)) {
    std::cout << "worker binary not found: " << fleet_options.worker_bin
              << " (pass --worker)\n";
    return 1;
  }
  fleet_options.work_dir = cli.get_string("tmp-dir");
  fleet_options.tag = "cluster";
  // The worker's own defaults: a 2 ms batch delay and no request traces.
  fleet_options.batch_delay_ms = 2.0;
  fleet_options.trace_sample = 0.0;
  const auto print_worker_logs = [&] {
    for (std::size_t i = 0; i < workers; ++i) {
      std::cout << "worker log: " << fleet_options.work_dir << '/'
                << fleet_options.tag << "-shard" << i << ".log\n";
    }
  };

  core::print_profile_banner(
      std::cout, profile,
      "Cluster throughput — sharded serving over the SCWCWIRE protocol");

  const Stopwatch wall;
  obs::Json results;
  std::vector<perfbench::WorkerProc> fleet;
  bool all_ok = true;
  // Gates that depend on timing are reported but not enforced in smoke
  // runs; the deterministic ones fail every run.
  const auto gate = [&](bool ok, const std::string& what, bool timed) {
    const bool skipped = timed && smoke;
    std::cout << "target: " << what << ' '
              << (ok ? "PASS" : (skipped ? "skip (smoke)" : "MISS")) << '\n';
    if (!ok && !skipped) all_ok = false;
  };

  try {
    // 1) Train the v1 serving bundle and a v2 successor for the swap phase.
    telemetry::CorpusConfig corpus_config;
    corpus_config.jobs_per_class_scale = profile.jobs_per_class;
    const telemetry::Corpus corpus =
        telemetry::generate_corpus(corpus_config);
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
    const auto bundle_v1 = serve::train_rf_bundle(spec, ds.x_train,
                                                  ds.y_train);
    spec.version = "rf-cov-v2";
    const auto bundle_v2 = serve::train_rf_bundle(spec, ds.x_train,
                                                  ds.y_train);

    fleet_options.bundle_path =
        fleet_options.work_dir + "/cluster_bundle_v1.scwcbndl";
    serve::save_bundle_file(*bundle_v1, fleet_options.bundle_path);
    ByteWriter v2_writer;
    serve::save_bundle(*bundle_v2, v2_writer);
    const std::string v2_bytes = v2_writer.take();
    std::cout << "bundles: " << bundle_v1->version() << " (on disk), "
              << bundle_v2->version() << " (" << v2_bytes.size()
              << " B, push payload), " << steps << "×" << sensors
              << " windows\n";

    // 2) Fork the fleet and wire up the router.
    fleet = perfbench::spawn_fleet(fleet_options, workers);
    cluster::RouterConfig router_config;
    router_config.default_deadline_s = deadline_s;
    cluster::ShardRouter router(router_config);
    for (const perfbench::WorkerProc& proc : fleet) {
      const std::uint32_t id = router.add_shard(proc.port);
      std::cout << "shard " << id << " up on 127.0.0.1:" << proc.port
                << " (pid " << proc.pid << ")\n";
    }

    std::vector<std::vector<double>> payload;
    payload.reserve(ds.test_trials());
    for (std::size_t i = 0; i < ds.test_trials(); ++i) {
      const auto src = ds.x_test.trial(i);
      payload.emplace_back(src.begin(), src.end());
    }
    const auto route = [&](std::size_t i, std::size_t p) {
      return router.submit(job_of(i), payload[p], steps, sensors);
    };
    const auto submit_now = [&](std::size_t i) {
      return route(i, i % payload.size());
    };
    Rng rng(cfg.seed ^ 0xc1a51e7ULL);

    // 3) Phase A: the fleet's capacity (after an unmeasured warm-up burst
    // that spins up worker pools and faults in caches), then an open-loop
    // phase at the gate's fraction of it.
    std::cout << "\n-- phase A: steady state (" << workers << " shards) --\n";
    (void)bench::saturated_wps(std::min(seconds, 0.1), submit_now);
    const double capacity = bench::saturated_wps(seconds, submit_now);
    const double rate = bench::kGateFraction * capacity;
    const perfbench::Schedule schedule_a =
        perfbench::poisson_schedule(rate, seconds, payload.size(), rng);
    bench::Phase a;
    a.rate = rate;
    std::map<std::uint32_t, ShardSamples> by_shard;
    (void)perfbench::drive(
        schedule_a,
        [&](std::size_t i, perfbench::Clock::time_point /*due*/) {
          return route(i, schedule_a.payload[i]);
        },
        [&](std::size_t i, perfbench::Issued&& r) {
          a.add(i, r);
          if (!r.result.accepted) return;
          // Phase attribution rides the verdict frame back: where did
          // each window's budget go — the wire, the queue, or the model?
          ShardSamples& s = by_shard[router.owner(job_of(i)).value_or(0)];
          const obs::RequestPhases& ph = r.result.phases;
          s.latency.push_back(r.lag_s + r.result.total_latency_s);
          s.wire.push_back(ph.wire_send_s + ph.wire_recv_s);
          s.queue.push_back(ph.queue_s);
          s.predict.push_back(ph.predict_s);
        });
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "saturated capacity: " << capacity << " windows/s ("
              << bench::kSaturationWindow << " in flight)\n";
    std::cout << "offered " << rate << "/s (" << bench::kGateFraction
              << "× capacity) for " << seconds << " s → " << a.submitted
              << " submitted, " << a.accepted << " accepted (" << a.abstained
              << " abstained), p50/p99 " << a.latency_ms(0.5) << " / "
              << a.latency_ms(0.99) << " ms, shed "
              << a.shed_frac() * 100.0 << "%\n";
    obs::Json::Object per_shard_json;
    obs::Json::Object phases_json;
    for (const auto& [shard, s] : by_shard) {
      const obs::Json latency = phase_summary(s.latency);
      const obs::Json wire = phase_summary(s.wire);
      const obs::Json queue = phase_summary(s.queue);
      const obs::Json predict = phase_summary(s.predict);
      std::cout << "shard " << shard << ": " << s.latency.size()
                << " windows, p50 " << latency.at("p50_ms").as_number()
                << " ms, p99 " << latency.at("p99_ms").as_number()
                << " ms; phases (p50/p99 ms): wire "
                << wire.at("p50_ms").as_number() << "/"
                << wire.at("p99_ms").as_number() << ", queue "
                << queue.at("p50_ms").as_number() << "/"
                << queue.at("p99_ms").as_number() << ", predict "
                << predict.at("p50_ms").as_number() << "/"
                << predict.at("p99_ms").as_number() << '\n';
      per_shard_json[std::to_string(shard)] = obs::Json::Object{
          {"windows", obs::Json(static_cast<double>(s.latency.size()))},
          {"latency_p50_ms", latency.at("p50_ms")},
          {"latency_p99_ms", latency.at("p99_ms")}};
      phases_json[std::to_string(shard)] = obs::Json::Object{
          {"wire", wire}, {"queue", queue}, {"predict", predict}};
    }
    for (const auto& [reason, count] : a.shed) {
      std::cout << "shed[" << reason << "]: " << count << '\n';
    }
    const bool slo_ok = a.meets_slo(deadline_s);
    gate(slo_ok, "p99 ≤ deadline and shed ≤ 1% at 0.5× fleet capacity",
         true);

    // 4) Phase B: SIGKILL one shard mid-load; ring rehash + retry recovery.
    // The killed worker stays in `fleet`: reap_fleet collects its exit.
    const perfbench::WorkerProc& victim = fleet.back();
    std::cout << "\n-- phase B: SIGKILL shard " << victim.shard_id
              << " mid-load --\n";
    const perfbench::Schedule schedule_b =
        perfbench::poisson_schedule(rate, seconds, payload.size(), rng);
    bench::Phase b;
    b.rate = rate;
    bool killed = false;
    (void)perfbench::drive(
        schedule_b,
        [&](std::size_t i, perfbench::Clock::time_point /*due*/) {
          if (!killed && schedule_b.due_s[i] >= seconds / 2.0) {
            ::kill(victim.pid, SIGKILL);
            killed = true;
          }
          return route(i, schedule_b.payload[i]);
        },
        [&](std::size_t i, perfbench::Issued&& r) { b.add(i, r); });
    std::size_t recovered = 0;
    serve::RetryPolicy retry_policy;
    for (const std::size_t i : b.retryable) {
      const serve::ServeResult r = router.submit_and_wait(
          job_of(i), payload[schedule_b.payload[i]], steps, sensors,
          retry_policy, rng);
      if (r.accepted) ++recovered;
    }
    const double availability =
        b.submitted == 0
            ? 1.0
            : static_cast<double>(b.accepted + recovered) /
                  static_cast<double>(b.submitted);
    std::cout << b.submitted << " submitted, " << b.accepted
              << " accepted first-try, " << b.retryable.size()
              << " retryable sheds, " << recovered << " recovered on retry\n";
    for (const auto& [reason, count] : b.shed) {
      std::cout << "shed[" << reason << "]: " << count << '\n';
    }
    std::cout << "availability (with retry): " << std::setprecision(4)
              << availability << std::setprecision(2) << ", live shards: "
              << router.live_shards() << "/" << workers << '\n';
    gate(availability >= 0.95, "availability ≥ 0.95 across shard kill", true);
    const bool rehashed = router.live_shards() == workers - 1;
    gate(rehashed, "dead shard left the ring", false);

    // 5) Phase C: fleet-wide hot swap, then a corrupt push that must roll
    // back everywhere — with a background client proving zero downtime.
    std::cout << "\n-- phase C: hot swap v2, then corrupt push --\n";
    std::atomic<bool> swap_phase_done{false};
    std::atomic<std::size_t> bg_accepted{0};
    std::atomic<std::size_t> bg_downtime_sheds{0};
    std::thread background([&] {
      Rng bg_rng(0x5eedULL);
      serve::RetryPolicy bg_policy;
      std::size_t i = 0;
      while (!swap_phase_done.load()) {
        const serve::ServeResult r = router.submit_and_wait(
            job_of(i), payload[i % payload.size()], steps, sensors,
            bg_policy, bg_rng);
        if (r.accepted) {
          bg_accepted.fetch_add(1);
        } else if (r.reject_reason == serve::RejectReason::kNoModel ||
                   r.reject_reason == serve::RejectReason::kShutdown) {
          bg_downtime_sheds.fetch_add(1);
        }
        ++i;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    const cluster::SwapReport swap_v2 =
        router.push_bundle(v2_bytes, bundle_v2->version());
    bool v2_everywhere = swap_v2.ok;
    for (const cluster::SwapOutcome& o : swap_v2.shards) {
      std::cout << "swap v2 shard " << o.shard_id << ": "
                << (o.ok ? "ok" : "FAILED") << " (serving '"
                << o.active_version << "')\n";
      v2_everywhere =
          v2_everywhere && o.active_version == bundle_v2->version();
    }
    gate(v2_everywhere, "v2 swap acked + active on every live shard", false);

    std::string corrupt = v2_bytes;
    corrupt[0] = static_cast<char>(corrupt[0] ^ 0x5A);  // break the magic
    const cluster::SwapReport swap_bad =
        router.push_bundle(corrupt, "rf-cov-bad");
    bool rolled_back_everywhere = !swap_bad.ok;
    for (const cluster::SwapOutcome& o : swap_bad.shards) {
      std::cout << "corrupt push shard " << o.shard_id << ": "
                << (o.ok ? "UNEXPECTED ACK" : "rejected") << " (serving '"
                << o.active_version << "')\n";
      rolled_back_everywhere = rolled_back_everywhere && !o.ok &&
                               o.active_version == bundle_v2->version();
    }
    gate(rolled_back_everywhere,
         "corrupt push rejected, fleet rolled back to v2", false);

    swap_phase_done.store(true);
    background.join();
    std::cout << "background client during swaps: " << bg_accepted.load()
              << " accepted, " << bg_downtime_sheds.load()
              << " downtime sheds\n";
    gate(bg_accepted.load() > 0 && bg_downtime_sheds.load() == 0,
         "zero downtime during swaps", false);

    // 6) Tear down: ask the fleet to exit, then reap.
    router.shutdown_workers();
    router.stop();
    perfbench::reap_fleet(fleet, 5.0);

    results["schema"] = "scwc.bench_cluster/v2";
    results["provenance"] = perfbench::provenance(
        "cluster_throughput", cfg.seed, SCWC_GIT_DESCRIBE);
    results["profile"] = profile.name;
    results["config"] = obs::Json::Object{
        {"workers", obs::Json(static_cast<double>(workers))},
        {"seconds", obs::Json(seconds)},
        {"deadline_ms", obs::Json(deadline_s * 1000.0)},
        {"jobs", obs::Json(static_cast<double>(kJobs))},
        {"saturation_window",
         obs::Json(static_cast<double>(bench::kSaturationWindow))},
        {"smoke", obs::Json(smoke)}};
    results["window"] = obs::Json::Object{
        {"steps", obs::Json(static_cast<double>(steps))},
        {"sensors", obs::Json(static_cast<double>(sensors))}};
    results["saturated_capacity_wps"] = capacity;
    obs::Json steady = a.to_json();
    steady["fraction"] = bench::kGateFraction;
    steady["slo_pass"] = slo_ok;
    steady["per_shard"] = obs::Json(std::move(per_shard_json));
    steady["phases"] = obs::Json(std::move(phases_json));
    results["steady_state"] = std::move(steady);
    obs::Json shard_kill = b.to_json();
    shard_kill["retryable_sheds"] = static_cast<double>(b.retryable.size());
    shard_kill["retry_recovered"] = static_cast<double>(recovered);
    shard_kill["availability"] = availability;
    shard_kill["ring_rehashed"] = rehashed;
    results["shard_kill"] = std::move(shard_kill);
    results["hot_swap"] = obs::Json::Object{
        {"v2_committed_everywhere", obs::Json(v2_everywhere)},
        {"corrupt_rolled_back_everywhere",
         obs::Json(rolled_back_everywhere)},
        {"background_accepted",
         obs::Json(static_cast<double>(bg_accepted.load()))},
        {"background_downtime_sheds",
         obs::Json(static_cast<double>(bg_downtime_sheds.load()))}};
  } catch (const std::exception& e) {
    std::cout << "cluster bench failed: " << e.what() << '\n';
    perfbench::reap_fleet(fleet, 0.0);
    print_worker_logs();
    return 1;
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
  report.run_id = "cluster_throughput";
  report.title = "Cluster throughput — sharded serving load test";
  report.profile = profile.name;
  report.config = {{"workers", cli.get_string("workers")},
                   {"seconds", cli.get_string("seconds")},
                   {"smoke", smoke ? "1" : "0"}};
  report.wall_seconds = wall.seconds();
  const auto path = obs::write_run_report(report);
  if (!path.empty()) std::cout << "run report: " << path.string() << '\n';
  if (!all_ok) print_worker_logs();
  return all_ok ? 0 : 1;
}
