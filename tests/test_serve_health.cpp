// Tests of the self-healing serving layer (PR 6): HealthMonitor SLO
// sensing, the FallbackChain circuit breaker and its probe ladder, the
// seeded ChaosInjector, client-side retry with backoff, automatic registry
// rollback on bundle faults, abstain-only degraded mode, and the Prometheus
// visibility of every new health metric.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"

namespace scwc {
namespace {

using std::chrono::steady_clock;

constexpr std::size_t kSteps = 12;
constexpr std::size_t kSensors = 3;

/// Deterministic 3-class world + one fitted RF bundle ("good-v1"), built
/// once — forest training dominates this suite's cost.
struct HealthWorld {
  data::Tensor3 x{90, kSteps, kSensors};
  std::vector<int> y;
  std::shared_ptr<const serve::ModelBundle> bundle;
};

const HealthWorld& health_world() {
  static const HealthWorld world = [] {
    HealthWorld w;
    Rng rng(777);
    for (std::size_t i = 0; i < w.x.trials(); ++i) {
      const int label = static_cast<int>(i % 3);
      w.y.push_back(label);
      for (double& v : w.x.trial(i)) {
        v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
      }
    }
    serve::RfBundleSpec spec;
    spec.version = "good-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 8;
    w.bundle = serve::train_rf_bundle(spec, w.x, w.y);
    return w;
  }();
  return world;
}

/// A second good bundle, distinguishable by version.
std::shared_ptr<const serve::ModelBundle> make_good_bundle(
    const std::string& version) {
  const HealthWorld& w = health_world();
  serve::RfBundleSpec spec;
  spec.version = version;
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 8;
  spec.forest.seed = 4711;
  return serve::train_rf_bundle(spec, w.x, w.y);
}

/// A model that always throws from predict — the guard turns every answer
/// into a kModelError abstention, which is exactly a "broken bundle".
class ThrowingClassifier final : public ml::Classifier {
 public:
  void fit(const linalg::Matrix&, std::span<const int>) override {}
  [[nodiscard]] std::vector<int> predict(const linalg::Matrix&) const override {
    throw std::runtime_error("deliberately broken model");
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
};

std::shared_ptr<const serve::ModelBundle> make_faulty_bundle(
    std::string version) {
  const HealthWorld& w = health_world();
  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  pipeline.fit(w.x);
  robust::GuardedConfig guard;
  guard.window_steps = kSteps;
  guard.sensors = kSensors;
  guard.min_quality = 0.0;
  guard.fallback_label = 0;
  return std::make_shared<serve::ModelBundle>(
      std::move(version), std::move(pipeline),
      std::make_unique<ThrowingClassifier>(), guard);
}

std::vector<double> make_window(int label) {
  Rng rng(123 + label);
  std::vector<double> w(kSteps * kSensors);
  for (double& v : w) {
    v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
  }
  return w;
}

serve::ServiceConfig tiny_service_config() {
  serve::ServiceConfig config;
  config.assembler = {kSteps, kSensors};
  config.batcher.max_batch = 16;
  config.batcher.max_delay_s = 0.002;
  return config;
}

/// Monitor config small enough to drive transitions with a handful of
/// synthetic outcomes.
serve::HealthConfig tiny_health_config() {
  serve::HealthConfig h;
  h.enabled = true;
  h.window_s = 5.0;
  h.window_slots = 10;
  h.min_samples = 8;
  h.max_p99_s = 0.05;
  h.max_abstain_rate = 0.5;
  h.max_shed_rate = 0.25;
  h.max_model_errors = 2;
  h.open_cooldown_s = 0.5;
  h.half_open_probes = 2;
  return h;
}

// -------------------------------------------------------------- HealthMonitor

TEST(HealthMonitor, HealthyTrafficStaysHealthy) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 32; ++i) {
    monitor.record_accepted(0.001, /*abstained=*/false, /*model_error=*/false);
  }
  const serve::HealthStats s = monitor.stats();
  EXPECT_EQ(s.samples, 32u);
  EXPECT_EQ(s.sheds, 0u);
  // p99 is a bucket-interpolated estimate on the monitor's geometric grid;
  // what matters for the breaker is that it stays well under the SLO bound.
  EXPECT_GT(s.p99_s, 0.0);
  EXPECT_LT(s.p99_s, tiny_health_config().max_p99_s);
  EXPECT_NEAR(s.abstain_rate, 0.0, 1e-12);
  EXPECT_NEAR(s.shed_rate, 0.0, 1e-12);
  EXPECT_FALSE(monitor.unhealthy());
}

TEST(HealthMonitor, SlowTrafficTripsP99OnlyAfterMinSamples) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 7; ++i) {
    monitor.record_accepted(0.5, false, false);  // terrible but too few
  }
  EXPECT_FALSE(monitor.unhealthy());
  monitor.record_accepted(0.5, false, false);  // 8th sample crosses the gate
  std::string why;
  ASSERT_TRUE(monitor.unhealthy(&why));
  EXPECT_NE(why.find("p99"), std::string::npos) << why;
}

TEST(HealthMonitor, ModelErrorTripwireBypassesMinSamples) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 3; ++i) {  // 3 > max_model_errors=2, but 3 < min=8
    monitor.record_accepted(0.001, true, /*model_error=*/true);
  }
  std::string why;
  ASSERT_TRUE(monitor.unhealthy(&why));
  EXPECT_NE(why.find("model_errors"), std::string::npos) << why;
}

TEST(HealthMonitor, AbstainRateTrips) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 8; ++i) {
    monitor.record_accepted(0.001, /*abstained=*/i < 5, false);  // 62.5 %
  }
  std::string why;
  ASSERT_TRUE(monitor.unhealthy(&why));
  EXPECT_NE(why.find("abstain"), std::string::npos) << why;
}

TEST(HealthMonitor, ShedRateTripsAndShutdownShedsAreIgnored) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 10; ++i) {
    monitor.record_shed(serve::RejectReason::kShutdown);  // not a failure
  }
  EXPECT_EQ(monitor.stats().sheds, 0u);

  for (int i = 0; i < 8; ++i) monitor.record_accepted(0.001, false, false);
  for (int i = 0; i < 4; ++i) {
    monitor.record_shed(serve::RejectReason::kQueueFull);  // 4/12 = 33 %
  }
  std::string why;
  ASSERT_TRUE(monitor.unhealthy(&why));
  EXPECT_NE(why.find("shed_rate"), std::string::npos) << why;
}

TEST(HealthMonitor, ResetForgetsTheWindow) {
  serve::HealthMonitor monitor(tiny_health_config());
  for (int i = 0; i < 16; ++i) monitor.record_accepted(0.5, true, true);
  ASSERT_TRUE(monitor.unhealthy());
  monitor.reset();
  const serve::HealthStats s = monitor.stats();
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.sheds, 0u);
  EXPECT_FALSE(monitor.unhealthy());
}

// ------------------------------------------------------------- FallbackChain

TEST(FallbackChain, TripDegradesToFallbackBundleWhileOpen) {
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  registry.register_bundle(make_good_bundle("fallback-v1"), false);
  serve::HealthConfig h = tiny_health_config();
  h.fallback_version = "fallback-v1";
  serve::FallbackChain chain(registry, h);

  EXPECT_EQ(chain.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(chain.depth(), 0);
  EXPECT_FALSE(chain.incident_active());

  const auto t0 = steady_clock::now();
  chain.on_unhealthy(t0);
  EXPECT_EQ(chain.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(chain.depth(), 1);
  EXPECT_EQ(chain.trips(), 1u);
  EXPECT_TRUE(chain.incident_active());

  // Before the cooldown elapses the chain serves the fallback, no probes.
  const serve::Route r =
      chain.route(t0 + std::chrono::milliseconds(100));
  EXPECT_EQ(r.level, 1);
  EXPECT_FALSE(r.probe);
  ASSERT_NE(r.bundle, nullptr);
  EXPECT_EQ(r.bundle->version(), "fallback-v1");

  // A second trip while already open is ignored (no double-degrade).
  chain.on_unhealthy(t0 + std::chrono::milliseconds(200));
  EXPECT_EQ(chain.depth(), 1);
  EXPECT_EQ(chain.trips(), 1u);
}

TEST(FallbackChain, CooldownIssuesExactlyOneProbeAtTheBetterLevel) {
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  registry.register_bundle(make_good_bundle("fallback-v2"), false);
  serve::HealthConfig h = tiny_health_config();
  h.fallback_version = "fallback-v2";
  serve::FallbackChain chain(registry, h);

  const auto t0 = steady_clock::now();
  chain.on_unhealthy(t0);
  const auto after = t0 + std::chrono::milliseconds(600);  // > 0.5 s cooldown

  const serve::Route probe = chain.route(after);
  EXPECT_EQ(chain.state(), serve::BreakerState::kHalfOpen);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(probe.level, 0);  // probing one rung above depth 1
  ASSERT_NE(probe.bundle, nullptr);
  EXPECT_EQ(probe.bundle->version(), "good-v1");

  // While the probe is outstanding everyone else stays on the fallback.
  const serve::Route rest = chain.route(after);
  EXPECT_FALSE(rest.probe);
  EXPECT_EQ(rest.level, 1);
}

TEST(FallbackChain, HealthyProbeLadderClosesAndRecordsMttr) {
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  registry.register_bundle(make_good_bundle("fallback-v3"), false);
  serve::HealthConfig h = tiny_health_config();
  h.fallback_version = "fallback-v3";
  serve::FallbackChain chain(registry, h);

  const auto t0 = steady_clock::now();
  chain.on_unhealthy(t0);
  auto t = t0 + std::chrono::milliseconds(600);
  // half_open_probes = 2 healthy probes climb depth 1 → 0 and close.
  for (int i = 0; i < 2; ++i) {
    const serve::Route probe = chain.route(t);
    ASSERT_TRUE(probe.probe);
    t += std::chrono::milliseconds(10);
    chain.on_probe_outcome(true, t);
  }
  EXPECT_EQ(chain.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(chain.depth(), 0);
  EXPECT_EQ(chain.recoveries(), 1u);
  EXPECT_FALSE(chain.incident_active());
  // Incident ran t0 → t0+620 ms; MTTR must land in that ballpark.
  EXPECT_GT(chain.last_recovery_s(), 0.5);
  EXPECT_LT(chain.last_recovery_s(), 0.75);
}

TEST(FallbackChain, UnhealthyProbeReopensTheBreaker) {
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  serve::HealthConfig h = tiny_health_config();
  serve::FallbackChain chain(registry, h);

  const auto t0 = steady_clock::now();
  chain.on_unhealthy(t0);
  auto t = t0 + std::chrono::milliseconds(600);
  const serve::Route probe = chain.route(t);
  ASSERT_TRUE(probe.probe);
  chain.on_probe_outcome(false, t);
  EXPECT_EQ(chain.state(), serve::BreakerState::kOpen);
  EXPECT_TRUE(chain.incident_active());
  // The fresh cooldown starts at the failed probe, not the original trip.
  EXPECT_FALSE(chain.route(t + std::chrono::milliseconds(100)).probe);
  t += std::chrono::milliseconds(600);
  EXPECT_TRUE(chain.route(t).probe);
}

TEST(FallbackChain, MissingFallbackSkipsLevelOneBothWays) {
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  serve::HealthConfig h = tiny_health_config();  // no fallback_version
  serve::FallbackChain chain(registry, h);

  const auto t0 = steady_clock::now();
  chain.on_unhealthy(t0);
  EXPECT_EQ(chain.depth(), 2);  // rung 1 has no bundle — straight to 2

  // Recovery must also skip the missing rung: probes go to the full path
  // and a completed ladder lands on level 0, not the bundleless level 1.
  auto t = t0 + std::chrono::milliseconds(600);
  for (int i = 0; i < 2; ++i) {
    const serve::Route probe = chain.route(t);
    ASSERT_TRUE(probe.probe);
    EXPECT_EQ(probe.level, 0);
    ASSERT_NE(probe.bundle, nullptr);
    t += std::chrono::milliseconds(10);
    chain.on_probe_outcome(true, t);
  }
  EXPECT_EQ(chain.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(chain.depth(), 0);
}

// ------------------------------------------------------------- ChaosInjector

TEST(ChaosInjector, DisarmedHooksAreGuaranteedNoOps) {
  serve::ChaosInjector chaos(serve::ChaosProfile::at_severity(1.0), 42);
  EXPECT_FALSE(chaos.armed());
  std::vector<char> bytes{'a', 'b', 'c'};
  const std::vector<char> before = bytes;
  chaos.on_flusher_cut();
  EXPECT_EQ(chaos.on_batch_dispatch(), serve::BatchFate::kProceed);
  chaos.on_predict_start();
  EXPECT_FALSE(chaos.on_swap_bytes(bytes));
  EXPECT_EQ(bytes, before);
  EXPECT_EQ(chaos.counts().total(), 0u);
}

TEST(ChaosInjector, ArmedCertainFaultsFireAndAreCounted) {
  serve::ChaosProfile profile;
  profile.batch_drop_probability = 1.0;
  profile.corrupt_swap_probability = 1.0;
  serve::ChaosInjector chaos(profile, 7);
  chaos.set_armed(true);

  EXPECT_EQ(chaos.on_batch_dispatch(), serve::BatchFate::kDrop);

  std::vector<char> bytes(64, '\0');
  const std::vector<char> before = bytes;
  ASSERT_TRUE(chaos.on_swap_bytes(bytes));
  // Exactly one bit of one byte flipped.
  std::size_t changed_bits = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(bytes[i]) ^
                    static_cast<unsigned char>(before[i]);
    while (diff != 0u) {
      changed_bits += diff & 1u;
      diff >>= 1u;
    }
  }
  EXPECT_EQ(changed_bits, 1u);

  const serve::ChaosCounts counts = chaos.counts();
  EXPECT_EQ(counts.batch_drops, 1u);
  EXPECT_EQ(counts.corrupted_swaps, 1u);
  EXPECT_EQ(counts.total(), 2u);
  EXPECT_FALSE(to_string(counts).empty());
}

TEST(ChaosInjector, SameSeedReplaysTheSameFaultSequence) {
  serve::ChaosProfile profile;
  profile.batch_drop_probability = 0.5;
  serve::ChaosInjector a(profile, 1234);
  serve::ChaosInjector b(profile, 1234);
  a.set_armed(true);
  b.set_armed(true);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.on_batch_dispatch(), b.on_batch_dispatch()) << i;
  }
}

TEST(ChaosInjector, SeverityEndpointsAreEmptyAndFull) {
  EXPECT_TRUE(serve::ChaosProfile::at_severity(0.0).empty());
  const serve::ChaosProfile full = serve::ChaosProfile::at_severity(1.0);
  EXPECT_FALSE(full.empty());
  EXPECT_GT(full.flusher_stall_probability, 0.0);
  EXPECT_GT(full.batch_delay_probability, 0.0);
  EXPECT_GT(full.batch_drop_probability, 0.0);
  EXPECT_GT(full.predict_spike_probability, 0.0);
  EXPECT_GT(full.corrupt_swap_probability, 0.0);
  EXPECT_GT(full.starve_probability, 0.0);
}

TEST(ChaosInjector, StarvationFloodsThePoolThroughTrySubmit) {
  serve::ChaosProfile profile;
  profile.starve_probability = 1.0;
  profile.starve_tasks = 2;
  profile.starve_task_s = 0.01;
  serve::ChaosInjector chaos(profile, 99);
  chaos.set_armed(true);
  ThreadPool pool(2);
  chaos.starve(pool);
  EXPECT_EQ(chaos.counts().starvation_bursts, 1u);
}

// ------------------------------------------------------------- client retry

TEST(Retry, GetWithinTimesOutThenDelivers) {
  std::promise<serve::ServeResult> promise;
  std::future<serve::ServeResult> future = promise.get_future();
  EXPECT_FALSE(serve::get_within(future, 0.005).has_value());
  EXPECT_TRUE(future.valid());  // timeout must not consume the future

  serve::ServeResult ready;
  ready.accepted = true;
  promise.set_value(ready);
  const std::optional<serve::ServeResult> out =
      serve::get_within(future, 0.5);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->accepted);
}

TEST(Retry, TerminalShedPassesThroughWithoutRetry) {
  serve::ModelRegistry registry;  // no bundle at all
  serve::ClassificationService service(registry, tiny_service_config());
  serve::RetryPolicy policy;
  Rng rng(1);
  const serve::ServeResult r = serve::submit_with_retry(
      service, make_window(0), kSteps, kSensors, policy, rng);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject_reason, serve::RejectReason::kNoModel);
  service.stop();
}

TEST(Retry, PersistentOverloadExhaustsAttemptsAsDeadlineExceeded) {
  obs::set_enabled(true);  // the test reads the retry counters
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);
  serve::ServiceConfig config = tiny_service_config();
  config.admission.max_pending = 0;  // every request sheds kQueueFull
  serve::ClassificationService service(registry, config);

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.0005;
  policy.budget_s = 0.5;
  Rng rng(2);
  const serve::ServeResult r = serve::submit_with_retry(
      service, make_window(0), kSteps, kSensors, policy, rng);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject_reason, serve::RejectReason::kDeadlineExceeded);

  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::global().snapshot();
  EXPECT_GE(obs::counter_value(after, "scwc_serve_client_retries_total"),
            obs::counter_value(before, "scwc_serve_client_retries_total") + 2);
  service.stop();
}

// ------------------------------------------- service-level self-healing

TEST(SelfHealingService, BundleFaultTriggersAutomaticRollback) {
  obs::set_enabled(true);  // the test reads the rollback counter
  serve::ModelRegistry registry;
  registry.register_bundle(health_world().bundle, true);       // good-v1
  registry.register_bundle(make_faulty_bundle("bad-v1"), true);  // current

  serve::ServiceConfig config = tiny_service_config();
  config.health = tiny_health_config();
  config.health.min_samples = 4;
  // Isolate the bundle-fault tripwire from the SLO thresholds.
  config.health.max_p99_s = 1e9;
  config.health.max_abstain_rate = 1.1;
  config.health.max_shed_rate = 1.1;
  serve::ClassificationService service(registry, config);

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  std::string served;
  for (int i = 0; i < 40 && served.empty(); ++i) {
    std::future<serve::ServeResult> f =
        service.submit(make_window(i % 3), kSteps, kSensors);
    const serve::ServeResult r = f.get();
    if (r.accepted && !r.prediction.abstained) served = r.model_version;
  }
  EXPECT_EQ(served, "good-v1");
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version(), "good-v1");
  // The rollback was the service's own decision, and it is counted.
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::global().snapshot();
  EXPECT_GE(obs::counter_value(after, "scwc_serve_auto_rollbacks_total"),
            obs::counter_value(before, "scwc_serve_auto_rollbacks_total") + 1);
  // The breaker never tripped — this was a bundle fault, not a cluster one.
  ASSERT_NE(service.chain(), nullptr);
  EXPECT_EQ(service.chain()->state(), serve::BreakerState::kClosed);
  service.stop();
}

TEST(SelfHealingService, NoRollbackTargetDegradesToAbstainOnly) {
  serve::ModelRegistry registry;
  registry.register_bundle(make_faulty_bundle("bad-only"), true);

  serve::ServiceConfig config = tiny_service_config();
  config.health = tiny_health_config();
  config.health.min_samples = 4;
  config.health.max_p99_s = 1e9;
  config.health.max_abstain_rate = 1.1;
  config.health.max_shed_rate = 1.1;
  config.health.open_cooldown_s = 30.0;  // stay degraded for the test
  serve::ClassificationService service(registry, config);

  serve::ServeResult degraded;
  for (int i = 0; i < 40 && degraded.degrade_level != 2; ++i) {
    std::future<serve::ServeResult> f =
        service.submit(make_window(i % 3), kSteps, kSensors);
    degraded = f.get();
  }
  ASSERT_EQ(degraded.degrade_level, 2);
  EXPECT_TRUE(degraded.accepted);
  EXPECT_TRUE(degraded.prediction.abstained);
  EXPECT_EQ(degraded.prediction.reason, robust::AbstainReason::kDegraded);
  EXPECT_EQ(degraded.prediction.label, robust::GuardedConfig::kNoLabel);
  EXPECT_EQ(degraded.model_version, "(degraded)");

  ASSERT_NE(service.chain(), nullptr);
  EXPECT_EQ(service.chain()->state(), serve::BreakerState::kOpen);
  EXPECT_EQ(service.chain()->depth(), 2);
  EXPECT_GE(service.chain()->trips(), 1u);

  // While open, EVERY request is still answered — availability under fault.
  std::future<serve::ServeResult> f =
      service.submit(make_window(0), kSteps, kSensors);
  const serve::ServeResult again = f.get();
  EXPECT_TRUE(again.accepted);
  EXPECT_EQ(again.degrade_level, 2);
  service.stop();
}

/// Every verdict's phases close: the total phase is exactly admission plus
/// the submit-to-verdict latency, all measured to one verdict timestamp.
void expect_phases_close(const serve::ServeResult& result, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_NE(result.trace_id, 0u);
  EXPECT_NEAR(result.phases.total_s,
              result.phases.admission_s + result.total_latency_s, 1e-12);
}

TEST(SelfHealingService, EveryVerdictPathClosesItsPhases) {
  const std::vector<double> window = make_window(1);
  {
    serve::ModelRegistry registry;
    registry.register_bundle(health_world().bundle);
    serve::ServiceConfig config = tiny_service_config();
    config.batcher.max_delay_s = 0.25;  // an un-full batch waits this long
    serve::ClassificationService service(registry, config);

    // Shed at enqueue: the deadline has already passed.
    const serve::ServeResult at_enqueue =
        service
            .submit(window, kSteps, kSensors,
                    steady_clock::now() - std::chrono::milliseconds(1))
            .get();
    ASSERT_EQ(at_enqueue.reject_reason,
              serve::RejectReason::kDeadlineExceeded);
    expect_phases_close(at_enqueue, "enqueue shed");

    // Shed in the queue: the deadline expires long before the flush.
    const serve::ServeResult in_queue =
        service
            .submit(window, kSteps, kSensors,
                    steady_clock::now() + std::chrono::milliseconds(5))
            .get();
    ASSERT_EQ(in_queue.reject_reason, serve::RejectReason::kDeadlineExceeded);
    expect_phases_close(in_queue, "in-queue deadline shed");

    // Answered by the model.
    const serve::ServeResult answered =
        service.submit(window, kSteps, kSensors).get();
    ASSERT_TRUE(answered.accepted);
    EXPECT_EQ(answered.degrade_level, 0);
    expect_phases_close(answered, "answered");
    service.stop();
  }
  {
    // Abstain-only degraded answer: a broken bundle with no rollback target.
    serve::ModelRegistry registry;
    registry.register_bundle(make_faulty_bundle("bad-only"), true);
    serve::ServiceConfig config = tiny_service_config();
    config.health = tiny_health_config();
    config.health.min_samples = 4;
    config.health.max_p99_s = 1e9;
    config.health.max_abstain_rate = 1.1;
    config.health.max_shed_rate = 1.1;
    config.health.open_cooldown_s = 30.0;
    serve::ClassificationService service(registry, config);
    serve::ServeResult degraded;
    for (int i = 0; i < 40 && degraded.degrade_level != 2; ++i) {
      degraded = service.submit(make_window(i % 3), kSteps, kSensors).get();
    }
    ASSERT_EQ(degraded.degrade_level, 2);
    expect_phases_close(degraded, "degraded answer");
    service.stop();
  }
}

TEST(SelfHealingService, BreakerRecoversAfterHotSwapFixesTheModel) {
  serve::ModelRegistry registry;
  registry.register_bundle(make_faulty_bundle("bad-v2"), true);

  serve::ServiceConfig config = tiny_service_config();
  config.health = tiny_health_config();
  config.health.min_samples = 4;
  config.health.max_p99_s = 1e9;  // virtual-time-free: only errors trip
  config.health.max_abstain_rate = 1.1;
  config.health.max_shed_rate = 1.1;
  config.health.open_cooldown_s = 0.2;
  config.health.half_open_probes = 1;
  serve::ClassificationService service(registry, config);

  // Drive it into degraded mode on the broken bundle.
  bool open = false;
  for (int i = 0; i < 40 && !open; ++i) {
    std::future<serve::ServeResult> f =
        service.submit(make_window(i % 3), kSteps, kSensors);
    (void)f.get();
    open = service.chain()->state() == serve::BreakerState::kOpen;
  }
  ASSERT_TRUE(open);

  // Ops hot-swaps a good bundle; after the cooldown a probe finds it
  // healthy and the chain climbs back to the full path.
  registry.register_bundle(make_good_bundle("good-v2"), true);
  serve::ServeResult recovered;
  const auto wall_deadline =
      steady_clock::now() + std::chrono::seconds(20);
  while (steady_clock::now() < wall_deadline) {
    std::future<serve::ServeResult> f =
        service.submit(make_window(1), kSteps, kSensors);
    recovered = f.get();
    if (recovered.degrade_level == 0 && !recovered.prediction.abstained) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(recovered.degrade_level, 0);
  EXPECT_FALSE(recovered.prediction.abstained);
  EXPECT_EQ(recovered.model_version, "good-v2");
  EXPECT_EQ(service.chain()->state(), serve::BreakerState::kClosed);
  EXPECT_GE(service.chain()->recoveries(), 1u);
  EXPECT_GT(service.chain()->last_recovery_s(), 0.0);  // the MTTR sample
  EXPECT_FALSE(service.chain()->incident_active());
  service.stop();
}

// ------------------------------------------------------------ obs export

TEST(ServeObsExport, HealthMetricsAppearInPrometheusText) {
  obs::set_enabled(true);
  // Exercise the real registration paths: a health-enabled service (breaker
  // gauges, shed/deadline/degraded counters) and one retried submit.
  serve::ModelRegistry registry;
  serve::ServiceConfig config = tiny_service_config();
  config.health = tiny_health_config();
  serve::ClassificationService service(registry, config);
  serve::RetryPolicy policy;
  Rng rng(3);
  (void)serve::submit_with_retry(service, make_window(0), kSteps, kSensors,
                                 policy, rng);
  service.stop();

  const std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  for (const char* metric :
       {"scwc_serve_breaker_state", "scwc_serve_fallback_depth",
        "scwc_serve_breaker_trips_total",
        "scwc_serve_breaker_recoveries_total",
        "scwc_serve_deadline_missed_total", "scwc_serve_degraded_total",
        "scwc_serve_auto_rollbacks_total",
        "scwc_serve_client_retries_total",
        "scwc_serve_client_retry_recovered_total",
        "scwc_serve_shed_deadline_total", "scwc_serve_shed_internal_total"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
}

}  // namespace
}  // namespace scwc
