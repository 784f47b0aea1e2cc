// Chaos scenario runner for the self-healing serve stack.
//
// One scenario per machinery-fault family (stalled flusher, delayed batch,
// dropped batch, predict latency spike, corrupted bundle swap, worker-pool
// starvation, plus an everything-at-once mix). Each scenario stands up a
// fresh health-enabled ClassificationService with a seeded ChaosInjector
// and drives it through three phases:
//
//   warmup    chaos disarmed — the monitor fills with healthy evidence
//   fault     chaos armed — closed-loop clients keep submitting through
//             bounded-retry (serve/retry.hpp) while the faults fire
//   recovery  chaos disarmed — clients keep the probe ladder fed until the
//             breaker closes again (or the cap expires)
//
// The verdicts the run reports per scenario: availability under fault
// (fraction of client requests that got an ACCEPTED answer — full path,
// fallback bundle or typed degraded abstention — after bounded retry),
// p99 latency under fault, degraded-mode fraction, breaker trips and
// recoveries, and MTTR (time from fault stop to the full path serving
// again, plus the chain's own incident clock). Results go to a tracked
// artifact (BENCH_chaos.json) so self-healing regressions show in diffs.
//
// The model itself is a deliberately small synthetic-cluster RF bundle:
// this bench measures the serving machinery under fault, not accuracy.
// SCWC_SMOKE=1 shrinks every phase (the chaos-smoke ctest).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "linalg/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "openloop.hpp"
#include "serve/bundle_io.hpp"
#include "serve/chaos.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"

namespace {

using namespace scwc;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t kSteps = 16;
constexpr std::size_t kSensors = 4;

using linalg::quantile_sorted;

/// Deterministic 3-cluster training tensor — enough structure for a tiny
/// forest to serve real (non-abstaining) answers.
data::Tensor3 make_dataset(std::vector<int>* labels) {
  data::Tensor3 x(150, kSteps, kSensors);
  labels->clear();
  Rng rng(20260808);
  for (std::size_t i = 0; i < x.trials(); ++i) {
    const int label = static_cast<int>(i % 3);
    labels->push_back(label);
    for (double& v : x.trial(i)) {
      v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
    }
  }
  return x;
}

std::shared_ptr<const serve::ModelBundle> make_bundle(
    const data::Tensor3& x, const std::vector<int>& y,
    const std::string& version, std::size_t trees, std::uint64_t seed) {
  serve::RfBundleSpec spec;
  spec.version = version;
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = trees;
  spec.forest.seed = seed;
  return serve::train_rf_bundle(spec, x, y);
}

/// One fault family to sweep.
struct Scenario {
  std::string name;
  serve::ChaosProfile profile;
  bool swap_storm = false;  ///< also hammer try_swap_from_bytes while armed
};

std::vector<Scenario> make_scenarios(double severity) {
  std::vector<Scenario> out;
  {
    Scenario s{"flusher_stall", {}, false};
    s.profile.flusher_stall_probability = 0.3 * severity;
    s.profile.flusher_stall_s = 0.02;
    out.push_back(s);
  }
  {
    Scenario s{"batch_delay", {}, false};
    s.profile.batch_delay_probability = 0.5 * severity;
    s.profile.batch_delay_s = 0.01;
    out.push_back(s);
  }
  {
    Scenario s{"batch_drop", {}, false};
    s.profile.batch_drop_probability = 0.3 * severity;
    out.push_back(s);
  }
  {
    Scenario s{"predict_spike", {}, false};
    s.profile.predict_spike_probability = 0.5 * severity;
    s.profile.predict_spike_s = 0.02;
    out.push_back(s);
  }
  {
    Scenario s{"corrupt_swap", {}, true};
    s.profile.corrupt_swap_probability = 1.0;  // every storm swap corrupted
    out.push_back(s);
  }
  {
    Scenario s{"starvation", {}, false};
    s.profile.starve_probability = 0.5 * severity;
    s.profile.starve_tasks = 4;
    s.profile.starve_task_s = 0.01;
    out.push_back(s);
  }
  {
    Scenario s{"mixed", serve::ChaosProfile::at_severity(0.3 * severity),
               false};
    s.profile.flusher_stall_s = 0.01;  // keep the mix inside the deadline
    s.profile.batch_delay_s = 0.005;
    s.profile.predict_spike_s = 0.01;
    s.profile.starve_task_s = 0.005;
    out.push_back(s);
  }
  return out;
}

/// Aggregated closed-loop client outcomes for one phase.
struct PhaseStats {
  std::size_t requests = 0;
  std::size_t accepted = 0;   ///< any accepted answer (levels 0/1/2)
  std::size_t degraded = 0;   ///< degrade_level > 0 among accepted
  std::size_t shed = 0;       ///< still shed after bounded retry
  std::vector<double> latencies;

  [[nodiscard]] double availability() const {
    return requests == 0
               ? 1.0
               : static_cast<double>(accepted) / static_cast<double>(requests);
  }
  [[nodiscard]] double degraded_fraction() const {
    return accepted == 0
               ? 0.0
               : static_cast<double>(degraded) / static_cast<double>(accepted);
  }
};

/// Runs `clients` closed-loop threads against the service for `seconds`,
/// each submitting through bounded retry, and merges their outcomes.
PhaseStats run_clients(serve::ClassificationService& service,
                       const std::vector<std::vector<double>>& payload,
                       double seconds, std::size_t clients,
                       std::uint64_t seed) {
  PhaseStats total;
  std::mutex merge_mutex;
  const auto end = clock_type::now() +
                   std::chrono::duration_cast<clock_type::duration>(
                       std::chrono::duration<double>(seconds));
  serve::RetryPolicy policy;
  // 8 attempts inside a 1 s budget: with a 0.3 per-batch drop rate the
  // residual chance of every attempt landing in a condemned batch is
  // ~0.3^8 — availability stays at 1.0 across thousands of requests.
  policy.max_attempts = 8;
  policy.budget_s = 1.0;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + c);
      PhaseStats local;
      std::size_t i = c;
      while (clock_type::now() < end) {
        const serve::ServeResult r = serve::submit_with_retry(
            service, payload[i % payload.size()], kSteps, kSensors, policy,
            rng);
        ++i;
        ++local.requests;
        if (r.accepted) {
          ++local.accepted;
          if (r.degrade_level > 0) ++local.degraded;
          local.latencies.push_back(r.total_latency_s);
        } else {
          ++local.shed;
        }
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.requests += local.requests;
      total.accepted += local.accepted;
      total.degraded += local.degraded;
      total.shed += local.shed;
      total.latencies.insert(total.latencies.end(), local.latencies.begin(),
                             local.latencies.end());
    });
  }
  for (auto& t : threads) t.join();
  return total;
}

std::uint64_t counter_now(const char* name) {
  return obs::counter_value(obs::MetricsRegistry::global().snapshot(), name);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Chaos scenario runner for the self-healing serve stack.");
  cli.add_flag("severity", "1.0", "fault intensity scale in (0, 1]");
  cli.add_flag("warmup-s", "0.3", "healthy warmup per scenario");
  cli.add_flag("fault-s", "2", "armed fault window per scenario");
  cli.add_flag("recovery-s", "10", "cap on the recovery watch per scenario");
  cli.add_flag("clients", "4", "closed-loop client threads");
  cli.add_flag("seed", "97", "chaos seed (per-scenario offsets applied)");
  cli.add_flag("out", "BENCH_chaos.json", "result artifact path");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const bool smoke = env_int("SCWC_SMOKE", 0) != 0;
  const double severity = cli.get_double("severity");
  double warmup_s = cli.get_double("warmup-s");
  double fault_s = cli.get_double("fault-s");
  double recovery_cap_s = cli.get_double("recovery-s");
  if (smoke) {
    warmup_s = std::min(warmup_s, 0.1);
    fault_s = std::min(fault_s, 0.5);
    recovery_cap_s = std::min(recovery_cap_s, 4.0);
    std::cout << "SCWC_SMOKE: " << fault_s << " s fault windows\n";
  }
  const auto clients = static_cast<std::size_t>(cli.get_int("clients"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  obs::set_enabled(true);  // the run reads retry/load-failure counters

  std::cout << "serve_chaos — fault injection across "
            << make_scenarios(severity).size() << " scenarios, severity "
            << severity << "\n\n";

  // Shared training work: one dataset, the primary bundle recipe, the cheap
  // fallback recipe, and serialized bytes for the swap storm.
  std::vector<int> y;
  const data::Tensor3 x = make_dataset(&y);
  const std::shared_ptr<const serve::ModelBundle> swap_candidate =
      make_bundle(x, y, "swap-candidate", 4, 12345);
  ByteWriter serialized;
  serve::save_bundle(*swap_candidate, serialized);
  const std::string swap_bytes = serialized.take();

  std::vector<std::vector<double>> payload;
  payload.reserve(x.trials());
  for (std::size_t i = 0; i < x.trials(); ++i) {
    const auto src = x.trial(i);
    payload.emplace_back(src.begin(), src.end());
  }

  const Stopwatch wall;
  obs::Json::Array scenario_results;
  bool all_available = true;
  bool all_recovered = true;

  std::uint64_t scenario_index = 0;
  for (const Scenario& scenario : make_scenarios(severity)) {
    ++scenario_index;
    std::cout << "--- scenario " << scenario.name << " ---\n";

    serve::ModelRegistry registry;
    registry.register_bundle(
        make_bundle(x, y, "rf-primary", 30, 1000 + scenario_index));
    registry.register_bundle(
        make_bundle(x, y, "rf-lite", 4, 2000 + scenario_index),
        /*activate=*/false);

    serve::ChaosInjector chaos(scenario.profile, seed + scenario_index);
    ThreadPool pool(4);
    serve::ServiceConfig config;
    config.assembler.window_steps = kSteps;
    config.assembler.sensors = kSensors;
    config.batcher.max_batch = 16;
    config.batcher.max_delay_s = 0.002;
    config.admission.max_pending = 256;
    config.default_deadline_s = 0.1;
    config.health.enabled = true;
    config.health.window_s = 5.0;
    config.health.window_slots = 10;
    config.health.min_samples = 16;
    config.health.max_p99_s = 0.02;
    config.health.max_abstain_rate = 0.5;
    config.health.max_shed_rate = 0.25;
    config.health.max_model_errors = 4;
    config.health.open_cooldown_s = 0.25;
    config.health.half_open_probes = 2;
    config.health.fallback_version = "rf-lite";
    config.chaos = &chaos;
    serve::ClassificationService service(registry, config, &pool);

    // Warmup: healthy evidence only.
    (void)run_clients(service, payload, warmup_s, clients, seed + 11);

    // Fault window: arm the injector (plus the optional swap storm and the
    // starvation poker, which both live OUTSIDE the serve path by design).
    const std::uint64_t retries_before =
        counter_now("scwc_serve_client_retries_total");
    const std::uint64_t recovered_before =
        counter_now("scwc_serve_client_retry_recovered_total");
    const std::uint64_t load_failures_before =
        counter_now("scwc_serve_bundle_load_failures_total");
    chaos.set_armed(true);
    std::atomic<bool> stop_aux{false};
    std::thread swapper;
    if (scenario.swap_storm) {
      swapper = std::thread([&registry, &chaos, &swap_bytes, &stop_aux] {
        while (!stop_aux.load(std::memory_order_acquire)) {
          std::vector<char> bytes(swap_bytes.begin(), swap_bytes.end());
          (void)chaos.on_swap_bytes(bytes);
          (void)serve::try_swap_from_bytes(
              registry, std::string_view(bytes.data(), bytes.size()));
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      });
    }
    std::thread starver;
    if (scenario.profile.starve_probability > 0.0) {
      starver = std::thread([&pool, &chaos, &stop_aux] {
        while (!stop_aux.load(std::memory_order_acquire)) {
          chaos.starve(pool);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    PhaseStats fault =
        run_clients(service, payload, fault_s, clients, seed + 22);
    stop_aux.store(true, std::memory_order_release);
    if (swapper.joinable()) swapper.join();
    if (starver.joinable()) starver.join();
    chaos.set_armed(false);
    const auto fault_stop = clock_type::now();

    // Recovery watch: keep traffic flowing so probes happen; stop as soon
    // as the breaker is fully closed (or immediately if it never tripped).
    double recovery_observed_s = 0.0;
    bool recovered = service.chain()->state() == serve::BreakerState::kClosed &&
                     service.chain()->depth() == 0;
    while (!recovered &&
           std::chrono::duration<double>(clock_type::now() - fault_stop)
                   .count() < recovery_cap_s) {
      (void)run_clients(service, payload, 0.05, clients, seed + 33);
      recovered = service.chain()->state() == serve::BreakerState::kClosed &&
                  service.chain()->depth() == 0;
    }
    if (recovered) {
      recovery_observed_s =
          std::chrono::duration<double>(clock_type::now() - fault_stop)
              .count();
    }
    all_recovered = all_recovered && recovered;

    std::sort(fault.latencies.begin(), fault.latencies.end());
    const double p99_fault = quantile_sorted(fault.latencies, 0.99);
    const serve::ChaosCounts counts = chaos.counts();
    const std::uint64_t retries =
        counter_now("scwc_serve_client_retries_total") - retries_before;
    const std::uint64_t recovered_retries =
        counter_now("scwc_serve_client_retry_recovered_total") -
        recovered_before;
    const std::uint64_t load_failures =
        counter_now("scwc_serve_bundle_load_failures_total") -
        load_failures_before;

    const double availability = fault.availability();
    all_available = all_available && availability >= 1.0;

    std::cout << std::fixed << std::setprecision(4);
    std::cout << "injected: " << to_string(counts) << '\n';
    std::cout << "fault window: " << fault.requests << " requests, "
              << "availability " << availability << ", degraded fraction "
              << fault.degraded_fraction() << ", p99 "
              << p99_fault * 1000.0 << " ms, shed-after-retry " << fault.shed
              << '\n';
    std::cout << "retries " << retries << " (recovered " << recovered_retries
              << "), refused swaps " << load_failures << '\n';
    std::cout << "breaker: trips " << service.chain()->trips()
              << ", recoveries " << service.chain()->recoveries()
              << ", full path back "
              << (recovered ? "yes" : "NO (cap expired)") << " after "
              << recovery_observed_s << " s, incident MTTR "
              << service.chain()->last_recovery_s() << " s\n\n";

    obs::Json entry;
    entry["name"] = scenario.name;
    entry["injected"] = obs::Json::Object{
        {"flusher_stalls", obs::Json(counts.flusher_stalls)},
        {"batch_delays", obs::Json(counts.batch_delays)},
        {"batch_drops", obs::Json(counts.batch_drops)},
        {"predict_spikes", obs::Json(counts.predict_spikes)},
        {"corrupted_swaps", obs::Json(counts.corrupted_swaps)},
        {"starvation_bursts", obs::Json(counts.starvation_bursts)},
        {"total", obs::Json(counts.total())}};
    entry["fault_window"] = obs::Json::Object{
        {"requests", obs::Json(fault.requests)},
        {"accepted", obs::Json(fault.accepted)},
        {"shed_after_retry", obs::Json(fault.shed)},
        {"availability", obs::Json(availability)},
        {"degraded_fraction", obs::Json(fault.degraded_fraction())},
        {"latency_p99_ms", obs::Json(p99_fault * 1000.0)}};
    entry["client_retry"] = obs::Json::Object{
        {"retries", obs::Json(retries)},
        {"recovered", obs::Json(recovered_retries)}};
    entry["swap"] =
        obs::Json::Object{{"refused_loads", obs::Json(load_failures)}};
    entry["breaker"] = obs::Json::Object{
        {"trips", obs::Json(service.chain()->trips())},
        {"recoveries", obs::Json(service.chain()->recoveries())},
        {"full_path_restored", obs::Json(recovered)},
        {"recovery_after_fault_s", obs::Json(recovery_observed_s)},
        {"incident_mttr_s", obs::Json(service.chain()->last_recovery_s())}};
    scenario_results.push_back(std::move(entry));

    service.stop();
  }

  obs::Json results;
  results["schema"] = "scwc.bench_chaos/v2";
  results["provenance"] =
      perfbench::provenance("serve_chaos", seed, SCWC_GIT_DESCRIBE);
  results["config"] = obs::Json::Object{
      {"severity", obs::Json(severity)},
      {"warmup_s", obs::Json(warmup_s)},
      {"fault_s", obs::Json(fault_s)},
      {"recovery_cap_s", obs::Json(recovery_cap_s)},
      {"clients", obs::Json(static_cast<double>(clients))},
      {"seed", obs::Json(static_cast<double>(seed))},
      {"deadline_ms", obs::Json(100.0)},
      {"smoke", obs::Json(smoke)}};
  results["scenarios"] = obs::Json(std::move(scenario_results));
  results["all_available"] = all_available;
  results["all_recovered"] = all_recovered;

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
  std::cout << "result artifact: " << out_path << '\n';
  std::cout << "availability under every fault class: "
            << (all_available ? "yes" : "NO") << '\n';
  std::cout << "breaker recovered in every scenario: "
            << (all_recovered ? "yes" : "NO") << '\n';
  std::cout << "total wall time: " << wall.seconds() << " s\n";

  obs::RunReport report;
  report.run_id = "serve_chaos";
  report.title = "Serve chaos — fault injection scenario sweep";
  report.profile = smoke ? "smoke" : "full";
  report.config = {{"severity", cli.get_string("severity")},
                   {"fault_s", cli.get_string("fault-s")},
                   {"smoke", smoke ? "1" : "0"}};
  report.wall_seconds = wall.seconds();
  const auto path = obs::write_run_report(report);
  if (!path.empty()) std::cout << "run report: " << path.string() << '\n';

  // The smoke run exercises the path on loaded CI boxes where timing noise
  // can shave availability; the full run enforces the self-healing bar.
  if (!smoke && (!all_available || !all_recovered)) return 1;
  return 0;
}
