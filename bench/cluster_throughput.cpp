// Cluster load test — open-loop throughput of the sharded serving fleet.
//
// Trains the same RF + covariance bundle as the serve bench, saves it to
// disk, forks N scwc_worker processes (ephemeral ports, write-then-rename
// port-file rendezvous) and drives them through the ShardRouter with an
// open-loop Poisson arrival stream. Three measured phases:
//
//   A  steady state   — aggregate windows/s and per-shard p99 latency with
//                       the whole fleet up (target: ≥3× the single-process
//                       BENCH_serve.json throughput at 4 workers)
//   B  shard kill     — SIGKILL one worker mid-load; the ring rehashes its
//                       key range onto the survivors, in-flight windows on
//                       the dead shard shed as retryable kShardDown, and a
//                       retry pass recovers them (availability target
//                       ≥ 0.95 of offered windows answered)
//   C  hot swap       — push a v2 bundle to every shard (all must ack),
//                       then push a corrupted copy (every shard must nack
//                       and the fleet must roll back to version agreement)
//                       while a background client keeps submitting — zero
//                       no-model/shutdown sheds means zero downtime
//
// Results land in a tracked JSON artifact (BENCH_cluster.json). SCWC_SMOKE=1
// shrinks the run (2 workers, low rate, sub-second phases) — the same code
// path backs the cluster-smoke ctest.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
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
#include "linalg/stats.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;
using linalg::quantile_sorted;

/// One forked scwc_worker process.
struct WorkerProc {
  pid_t pid = -1;
  std::uint32_t shard_id = 0;
  std::uint16_t port = 0;
  std::string port_file;
};

/// fork+exec one worker with an ephemeral port and a port-file rendezvous.
WorkerProc spawn_worker(const std::string& worker_bin, std::uint32_t shard_id,
                        const std::string& bundle_path,
                        const std::string& tmp_dir) {
  WorkerProc proc;
  proc.shard_id = shard_id;
  proc.port_file =
      tmp_dir + "/cluster_shard" + std::to_string(shard_id) + ".port";
  std::filesystem::remove(proc.port_file);

  const std::string shard_str = std::to_string(shard_id);
  std::vector<std::string> args = {worker_bin,    "--shard-id", shard_str,
                                   "--port",      "0",          "--port-file",
                                   proc.port_file};
  if (!bundle_path.empty()) {
    args.push_back("--bundle");
    args.push_back(bundle_path);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  proc.pid = ::fork();
  if (proc.pid == 0) {
    ::execv(worker_bin.c_str(), argv.data());
    std::_Exit(127);  // execv only returns on failure
  }
  return proc;
}

/// Poll the write-then-rename port file until the worker publishes its port.
bool wait_for_port(WorkerProc& proc, double deadline_s) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  while (clock::now() < deadline) {
    std::ifstream is(proc.port_file);
    int port = 0;
    if (is.is_open() && (is >> port) && port > 0) {
      proc.port = static_cast<std::uint16_t>(port);
      return true;
    }
    // A worker that died at boot will never publish: fail fast.
    int status = 0;
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Reap one worker; escalate to SIGKILL if it ignores the shutdown frame.
void reap_worker(WorkerProc& proc, double grace_s) {
  if (proc.pid < 0) return;
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(grace_s));
  int status = 0;
  while (clock::now() < deadline) {
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(proc.pid, SIGKILL);
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

/// Per-shard latency samples for one request phase (seconds).
struct PhaseSamples {
  std::vector<double> wire;     // wire_send + wire_recv
  std::vector<double> queue;    // worker-side admission queue
  std::vector<double> predict;  // worker-side model inference
};

/// Outcome of one open-loop load phase.
struct PhaseStats {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t abstained = 0;
  double elapsed_s = 0.0;
  std::map<std::string, std::size_t> shed;
  std::map<std::uint32_t, std::vector<double>> latencies_by_shard;
  std::map<std::uint32_t, PhaseSamples> phases_by_shard;
  /// (job_id, payload index) of every retryable shed, submission order.
  std::vector<std::pair<std::int64_t, std::size_t>> retryable;
};

/// Open-loop Poisson load through the router. `kill_at_frac` < 1 SIGKILLs
/// `victim` that far into the phase (phase B); pass 1.0 to kill nobody.
PhaseStats run_load(cluster::ShardRouter& router,
                    const std::vector<std::vector<double>>& payload,
                    std::size_t steps, std::size_t sensors, std::size_t jobs,
                    double rate, double seconds, Rng& rng,
                    double kill_at_frac, WorkerProc* victim) {
  using clock = std::chrono::steady_clock;
  PhaseStats stats;
  std::vector<std::future<serve::ServeResult>> futures;
  std::vector<std::uint32_t> owners;
  std::vector<std::int64_t> job_ids;
  const auto expect = static_cast<std::size_t>(rate * seconds * 1.25) + 16;
  futures.reserve(expect);
  owners.reserve(expect);
  job_ids.reserve(expect);

  const auto start = clock::now();
  const auto end = start + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto kill_at =
      start + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(seconds * kill_at_frac));
  auto next_arrival = start;
  bool killed = kill_at_frac >= 1.0 || victim == nullptr;
  while (clock::now() < end) {
    while (clock::now() < next_arrival) std::this_thread::yield();
    if (!killed && clock::now() >= kill_at) {
      ::kill(victim->pid, SIGKILL);
      int status = 0;
      ::waitpid(victim->pid, &status, 0);
      victim->pid = -1;
      killed = true;
    }
    const auto job_id =
        static_cast<std::int64_t>(stats.submitted % jobs);
    owners.push_back(router.owner(job_id).value_or(0));
    job_ids.push_back(job_id);
    futures.push_back(router.submit(
        job_id, payload[stats.submitted % payload.size()], steps, sensors));
    ++stats.submitted;
    next_arrival += std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(rng.exponential(rate)));
  }
  stats.elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::ServeResult r = futures[i].get();
    if (!r.accepted) {
      ++stats.shed[serve::reject_reason_name(r.reject_reason)];
      if (serve::retryable(r.reject_reason)) {
        stats.retryable.emplace_back(job_ids[i], i % payload.size());
      }
      continue;
    }
    ++stats.accepted;
    if (r.prediction.abstained) ++stats.abstained;
    stats.latencies_by_shard[owners[i]].push_back(r.total_latency_s);
    // Phase attribution rides the verdict frame back: where did
    // each window's budget actually go — the wire, the queue, or the model?
    PhaseSamples& ph = stats.phases_by_shard[owners[i]];
    ph.wire.push_back(r.phases.wire_send_s + r.phases.wire_recv_s);
    ph.queue.push_back(r.phases.queue_s);
    ph.predict.push_back(r.phases.predict_s);
  }
  return stats;
}

/// {p50_ms, p99_ms} summary of one phase's samples (sorts in place).
obs::Json phase_summary(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return obs::Json::Object{
      {"p50_ms", obs::Json(quantile_sorted(samples, 0.50) * 1000.0)},
      {"p99_ms", obs::Json(quantile_sorted(samples, 0.99) * 1000.0)}};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Open-loop load test of the sharded serving cluster.");
  cli.add_flag("scale", "", "scale profile (default: SCWC_SCALE or tiny)");
  cli.add_flag("workers", "4", "worker processes to fork");
  cli.add_flag("rate", "80000", "offered load, windows/second");
  cli.add_flag("seconds", "3", "steady-state load duration in seconds");
  cli.add_flag("deadline-ms", "50", "per-window latency budget");
  cli.add_flag("jobs", "64", "distinct job ids driving the ring");
  cli.add_flag("worker", "",
               "scwc_worker binary (default: ../tools/scwc_worker next to "
               "this bench)");
  cli.add_flag("tmp-dir", ".", "scratch dir for bundles and port files");
  cli.add_flag("out", "BENCH_cluster.json", "result artifact path");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const bool smoke = env_int("SCWC_SMOKE", 0) != 0;
  const std::string scale_flag = cli.get_string("scale");
  const ScaleProfile profile = scale_flag.empty()
                                   ? ScaleProfile::from_env("tiny")
                                   : ScaleProfile::named(scale_flag);
  std::size_t workers = static_cast<std::size_t>(cli.get_int("workers"));
  double rate = cli.get_double("rate");
  double seconds = cli.get_double("seconds");
  if (smoke) {
    workers = std::min<std::size_t>(workers, 2);
    rate = std::min(rate, 2000.0);
    seconds = std::min(seconds, 0.4);
    std::cout << "SCWC_SMOKE: " << workers << " workers, rate " << rate
              << "/s for " << seconds << " s\n";
  }
  const double deadline_s = cli.get_double("deadline-ms") / 1000.0;
  const std::string tmp_dir = cli.get_string("tmp-dir");

  std::string worker_bin = cli.get_string("worker");
  if (worker_bin.empty()) {
    worker_bin = (std::filesystem::path(argv[0]).parent_path() / ".." /
                  "tools" / "scwc_worker")
                     .string();
  }
  if (!std::filesystem::exists(worker_bin)) {
    std::cout << "worker binary not found: " << worker_bin
              << " (pass --worker)\n";
    return 1;
  }

  core::print_profile_banner(
      std::cout, profile,
      "Cluster throughput — sharded serving over the SCWCWIRE protocol");

  const Stopwatch wall;
  obs::Json results;
  std::vector<WorkerProc> fleet;
  bool all_ok = true;
  const auto gate = [&](bool ok, const std::string& what) {
    std::cout << "target: " << what << ' '
              << (ok ? "PASS" : (smoke ? "skip (smoke)" : "MISS")) << '\n';
    if (!smoke && !ok) all_ok = false;
    return ok;
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

    const std::string bundle_path = tmp_dir + "/cluster_bundle_v1.scwcbndl";
    serve::save_bundle_file(*bundle_v1, bundle_path);
    std::ostringstream v2_bytes_os;
    serve::save_bundle(*bundle_v2, v2_bytes_os);
    const std::string v2_bytes = v2_bytes_os.str();
    std::cout << "bundles: " << bundle_v1->version() << " (on disk), "
              << bundle_v2->version() << " (" << v2_bytes.size()
              << " B, push payload), " << steps << "×" << sensors
              << " windows\n";

    // 2) Fork the fleet and wire up the router.
    cluster::RouterConfig router_config;
    router_config.default_deadline_s = deadline_s;
    cluster::ShardRouter router(router_config);
    for (std::size_t i = 0; i < workers; ++i) {
      fleet.push_back(spawn_worker(
          worker_bin, static_cast<std::uint32_t>(i), bundle_path, tmp_dir));
    }
    for (WorkerProc& proc : fleet) {
      if (!wait_for_port(proc, 15.0)) {
        std::cout << "worker shard " << proc.shard_id
                  << " never published a port\n";
        for (WorkerProc& p : fleet) {
          if (p.pid > 0) ::kill(p.pid, SIGKILL);
        }
        return 1;
      }
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
    const auto jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    Rng rng(cfg.seed ^ 0xc1a51e7ULL);

    // 3) Warm-up (not measured): spin up worker pools, fault in caches.
    {
      std::vector<std::future<serve::ServeResult>> warm;
      const std::size_t n = smoke ? 64 : 512;
      warm.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        warm.push_back(router.submit(static_cast<std::int64_t>(i % jobs),
                                     payload[i % payload.size()], steps,
                                     sensors));
      }
      for (auto& f : warm) (void)f.get();
    }

    // 4) Phase A: steady state, whole fleet up.
    std::cout << "\n-- phase A: steady state (" << workers << " shards) --\n";
    PhaseStats a = run_load(router, payload, steps, sensors, jobs, rate,
                            seconds, rng, 1.0, nullptr);
    const double throughput =
        static_cast<double>(a.accepted) / std::max(a.elapsed_s, 1e-9);
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "offered " << rate << "/s for " << a.elapsed_s << " s → "
              << a.submitted << " submitted, " << a.accepted << " accepted ("
              << a.abstained << " abstained)\n";
    std::cout << "aggregate throughput: " << throughput << " windows/s\n";
    obs::Json::Object per_shard_json;
    for (auto& [shard, lats] : a.latencies_by_shard) {
      std::sort(lats.begin(), lats.end());
      const double p99 = quantile_sorted(lats, 0.99);
      std::cout << "shard " << shard << ": " << lats.size()
                << " windows, p50 "
                << quantile_sorted(lats, 0.50) * 1000.0 << " ms, p99 "
                << p99 * 1000.0 << " ms\n";
      per_shard_json[std::to_string(shard)] = obs::Json::Object{
          {"windows", obs::Json(static_cast<double>(lats.size()))},
          {"latency_p50_ms",
           obs::Json(quantile_sorted(lats, 0.50) * 1000.0)},
          {"latency_p99_ms", obs::Json(p99 * 1000.0)}};
    }
    // Where the steady-state budget went, per shard: verdict frames carry
    // the worker-side queue/predict split and the router derives the wire
    // share, so the artifact can answer "is shard K slow or far?".
    obs::Json::Object phases_json;
    for (auto& [shard, ph] : a.phases_by_shard) {
      const obs::Json wire = phase_summary(ph.wire);
      const obs::Json queue = phase_summary(ph.queue);
      const obs::Json predict = phase_summary(ph.predict);
      std::cout << "shard " << shard << " phases (p50/p99 ms): wire "
                << wire.at("p50_ms").as_number() << "/"
                << wire.at("p99_ms").as_number() << ", queue "
                << queue.at("p50_ms").as_number() << "/"
                << queue.at("p99_ms").as_number() << ", predict "
                << predict.at("p50_ms").as_number() << "/"
                << predict.at("p99_ms").as_number() << '\n';
      phases_json[std::to_string(shard)] = obs::Json::Object{
          {"wire", wire}, {"queue", queue}, {"predict", predict}};
    }
    for (const auto& [reason, count] : a.shed) {
      std::cout << "shed[" << reason << "]: " << count << '\n';
    }
    // ≥3× the single-process serve bench (BENCH_serve.json ≈ 20k/s). The
    // target only makes sense when each shard can own a core: on a machine
    // with fewer cores than workers the fleet timeshares the CPU the
    // single-process bench already saturated, so the gate is reported but
    // not enforced (the artifact records the core count either way).
    const std::size_t cores = std::thread::hardware_concurrency();
    const bool enough_cores = cores >= workers;
    if (enough_cores) {
      gate(throughput >= 60000.0, "aggregate ≥ 60k windows/s");
    } else {
      std::cout << "target: aggregate ≥ 60k windows/s skip (" << cores
                << " core(s) < " << workers << " workers — fleet is "
                << "CPU-timesharing, scaling target not applicable)\n";
    }

    // 5) Phase B: SIGKILL one shard mid-load; ring rehash + retry recovery.
    WorkerProc& victim = fleet.back();
    std::cout << "\n-- phase B: SIGKILL shard " << victim.shard_id
              << " mid-load --\n";
    const PhaseStats b = run_load(router, payload, steps, sensors, jobs,
                                  rate, seconds, rng, 0.5, &victim);
    std::size_t recovered = 0;
    serve::RetryPolicy retry_policy;
    for (const auto& [job_id, p] : b.retryable) {
      const serve::ServeResult r = router.submit_and_wait(
          job_id, payload[p], steps, sensors, retry_policy, rng);
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
    gate(availability >= 0.95, "availability ≥ 0.95 across shard kill");
    const bool rehashed = router.live_shards() == workers - 1;
    gate(rehashed, "dead shard left the ring");

    // 6) Phase C: fleet-wide hot swap, then a corrupt push that must roll
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
            static_cast<std::int64_t>(i % jobs), payload[i % payload.size()],
            steps, sensors, bg_policy, bg_rng);
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
    gate(v2_everywhere, "v2 swap acked + active on every live shard");

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
         "corrupt push rejected, fleet rolled back to v2");

    swap_phase_done.store(true);
    background.join();
    std::cout << "background client during swaps: " << bg_accepted.load()
              << " accepted, " << bg_downtime_sheds.load()
              << " downtime sheds\n";
    const bool no_downtime =
        bg_accepted.load() > 0 && bg_downtime_sheds.load() == 0;
    // Downtime during the swap window is a correctness failure even in
    // smoke runs: the swap path is failure-isolating by construction.
    std::cout << "target: zero downtime during swaps "
              << (no_downtime ? "PASS" : "MISS") << '\n';
    if (!no_downtime) all_ok = false;

    // 7) Tear down: ask the fleet to exit, then reap.
    router.shutdown_workers();
    router.stop();
    for (WorkerProc& proc : fleet) reap_worker(proc, 5.0);

    obs::Json::Object shed_a;
    for (const auto& [reason, count] : a.shed) {
      shed_a[reason] = obs::Json(static_cast<double>(count));
    }
    obs::Json::Object shed_b;
    for (const auto& [reason, count] : b.shed) {
      shed_b[reason] = obs::Json(static_cast<double>(count));
    }
    results["schema"] = "scwc.bench_cluster/v1";
    results["profile"] = profile.name;
    results["config"] = obs::Json::Object{
        {"workers", obs::Json(static_cast<double>(workers))},
        {"rate_per_s", obs::Json(rate)},
        {"seconds", obs::Json(seconds)},
        {"deadline_ms", obs::Json(deadline_s * 1000.0)},
        {"jobs", obs::Json(static_cast<double>(jobs))},
        {"hardware_cores", obs::Json(static_cast<double>(cores))},
        {"throughput_gate_enforced", obs::Json(enough_cores && !smoke)},
        {"smoke", obs::Json(smoke)}};
    results["window"] = obs::Json::Object{
        {"steps", obs::Json(static_cast<double>(steps))},
        {"sensors", obs::Json(static_cast<double>(sensors))}};
    results["steady_state"] = obs::Json::Object{
        {"submitted", obs::Json(static_cast<double>(a.submitted))},
        {"accepted", obs::Json(static_cast<double>(a.accepted))},
        {"throughput_windows_per_s", obs::Json(throughput)},
        {"per_shard", obs::Json(std::move(per_shard_json))},
        {"phases", obs::Json(std::move(phases_json))},
        {"shed", obs::Json(std::move(shed_a))}};
    results["shard_kill"] = obs::Json::Object{
        {"submitted", obs::Json(static_cast<double>(b.submitted))},
        {"accepted_first_try", obs::Json(static_cast<double>(b.accepted))},
        {"retryable_sheds",
         obs::Json(static_cast<double>(b.retryable.size()))},
        {"retry_recovered", obs::Json(static_cast<double>(recovered))},
        {"availability", obs::Json(availability)},
        {"ring_rehashed", obs::Json(rehashed)},
        {"shed", obs::Json(std::move(shed_b))}};
    results["hot_swap"] = obs::Json::Object{
        {"v2_committed_everywhere", obs::Json(v2_everywhere)},
        {"corrupt_rolled_back_everywhere",
         obs::Json(rolled_back_everywhere)},
        {"background_accepted",
         obs::Json(static_cast<double>(bg_accepted.load()))},
        {"background_downtime_sheds",
         obs::Json(static_cast<double>(bg_downtime_sheds.load()))}};
  } catch (const Error& e) {
    std::cout << "cluster bench failed: " << e.what() << '\n';
    for (WorkerProc& proc : fleet) {
      if (proc.pid > 0) ::kill(proc.pid, SIGKILL);
    }
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
                   {"rate", cli.get_string("rate")},
                   {"smoke", smoke ? "1" : "0"}};
  report.wall_seconds = wall.seconds();
  const auto path = obs::write_run_report(report);
  if (!path.empty()) std::cout << "run report: " << path.string() << '\n';
  return all_ok ? 0 : 1;
}
