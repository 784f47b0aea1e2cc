// Cluster subsystem tests: consistent-hash ring properties, router↔worker
// round trips over real loopback TCP (in-process ClusterWorker instances on
// ephemeral ports), bounded in-flight admission, shard-death rehash +
// recovery, and the two-phase bundle swap with fleet-wide rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/socket.hpp"
#include "obs/request_trace.hpp"
#include "robust/fault.hpp"
#include "robust/robust_window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"

namespace scwc {
namespace {

constexpr std::size_t kSteps = 12;
constexpr std::size_t kSensors = 3;

/// Deterministic 3-class training world + fitted bundles, built once.
struct TinyWorld {
  data::Tensor3 x{90, kSteps, kSensors};
  std::vector<int> y;
  std::shared_ptr<const serve::ModelBundle> v1;
  std::shared_ptr<const serve::ModelBundle> v2;
};

const TinyWorld& tiny_world() {
  static const TinyWorld world = [] {
    TinyWorld w;
    Rng rng(4242);
    for (std::size_t i = 0; i < w.x.trials(); ++i) {
      const int label = static_cast<int>(i % 3);
      w.y.push_back(label);
      for (double& v : w.x.trial(i)) {
        v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
      }
    }
    serve::RfBundleSpec spec;
    spec.version = "cluster-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 8;
    w.v1 = serve::train_rf_bundle(spec, w.x, w.y);
    spec.version = "cluster-v2";
    spec.forest.seed = 99991;
    w.v2 = serve::train_rf_bundle(spec, w.x, w.y);
    return w;
  }();
  return world;
}

std::vector<double> make_window(Rng& rng, int label) {
  std::vector<double> values(kSteps * kSensors);
  for (double& v : values) {
    v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
  }
  return values;
}

/// One in-process shard: registry + worker on an ephemeral loopback port.
struct Shard {
  explicit Shard(std::uint32_t id,
                 std::shared_ptr<const serve::ModelBundle> bundle = nullptr) {
    if (bundle) registry.register_bundle(std::move(bundle));
    cluster::WorkerConfig config;
    config.shard_id = id;
    config.port = 0;
    config.service.assembler.window_steps = kSteps;
    config.service.assembler.sensors = kSensors;
    worker = std::make_unique<cluster::ClusterWorker>(registry, config);
    worker->start();
  }
  serve::ModelRegistry registry;
  std::unique_ptr<cluster::ClusterWorker> worker;
};

// ------------------------------------------------------------------ HashRing

TEST(HashRing, OwnerIsDeterministicAndBalanced) {
  cluster::HashRing ring;
  ring.add_shard(0);
  ring.add_shard(1);
  ring.add_shard(2);
  std::map<std::uint32_t, std::size_t> counts;
  for (std::int64_t job = 0; job < 3000; ++job) {
    const auto owner = ring.owner(job);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(owner, ring.owner(job)) << "routing must be deterministic";
    ++counts[*owner];
  }
  ASSERT_EQ(counts.size(), 3u) << "every shard must own part of the space";
  for (const auto& [shard, n] : counts) {
    // 64 vnodes/shard keeps the imbalance modest; a shard owning less than
    // half or more than double its fair share means the hashing is broken.
    EXPECT_GT(n, 3000u / 6) << "shard " << shard;
    EXPECT_LT(n, 3000u / 3 * 2) << "shard " << shard;
  }
}

TEST(HashRing, RemovalOnlyMovesKeysOfTheDeadShard) {
  cluster::HashRing ring;
  ring.add_shard(0);
  ring.add_shard(1);
  ring.add_shard(2);
  std::map<std::int64_t, std::uint32_t> before;
  for (std::int64_t job = 0; job < 2000; ++job) {
    before[job] = *ring.owner(job);
  }
  ring.remove_shard(2);
  for (std::int64_t job = 0; job < 2000; ++job) {
    const std::uint32_t now = *ring.owner(job);
    EXPECT_NE(now, 2u);
    if (before[job] != 2) {
      // Consistent hashing: survivors keep every key they already owned.
      EXPECT_EQ(now, before[job]) << "job " << job << " moved needlessly";
    }
  }
}

TEST(HashRing, EmptyRingOwnsNothing) {
  cluster::HashRing ring;
  EXPECT_FALSE(ring.owner(42).has_value());
  ring.add_shard(3);
  EXPECT_EQ(ring.owner(42), std::optional<std::uint32_t>(3));
  ring.remove_shard(3);
  EXPECT_FALSE(ring.owner(42).has_value());
}

// ------------------------------------------------------------ router ↔ worker

TEST(Cluster, RoundTripVerdictsAcrossTwoShards) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  Shard s1(1, w.v1);
  cluster::ShardRouter router;
  EXPECT_EQ(router.add_shard(s0.worker->port()), 0u);
  EXPECT_EQ(router.add_shard(s1.worker->port()), 1u);
  EXPECT_EQ(router.live_shards(), 2u);

  Rng rng(7);
  std::vector<std::future<serve::ServeResult>> futures;
  std::set<std::uint32_t> shards_used;
  for (std::int64_t job = 0; job < 40; ++job) {
    shards_used.insert(*router.owner(job));
    futures.push_back(router.submit(job, make_window(rng, 1), kSteps,
                                    kSensors));
  }
  std::size_t accepted = 0;
  for (auto& f : futures) {
    const serve::ServeResult r = f.get();
    if (r.accepted) {
      ++accepted;
      EXPECT_EQ(r.model_version, "cluster-v1");
      EXPECT_GE(r.total_latency_s, 0.0);
      if (!r.prediction.abstained) {
        EXPECT_GE(r.prediction.label, 0);
        EXPECT_LT(r.prediction.label, 3);
      }
    }
  }
  EXPECT_EQ(accepted, futures.size());
  EXPECT_EQ(shards_used.size(), 2u)
      << "40 jobs should spread across both shards";

  // Worker counters must account for exactly what the router sent.
  const auto c0 = s0.worker->counters();
  const auto c1 = s1.worker->counters();
  EXPECT_EQ(c0.submitted + c1.submitted, futures.size());
  EXPECT_EQ(c0.answered + c1.answered + c0.shed + c1.shed, futures.size());

  router.stop();
}

TEST(Cluster, DamagedWindowVerdictsMatchInProcessGuard) {
  // FaultInjector-damaged windows travel with their NaNs to two shards;
  // each verdict must be what the same bundle's guard gives in-process.
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  Shard s1(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1.worker->port());

  std::vector<std::vector<double>> windows;
  for (const double severity : {0.5, 1.0}) {
    const robust::FaultInjector injector(
        robust::FaultProfile::at_severity(severity));
    for (std::size_t i = 0; i < 30; ++i) {
      telemetry::TimeSeries series;
      series.sample_hz = 1.0;
      series.values = w.x.trial_matrix(i);
      Rng rng(0xC1A57ULL + 13 * i);
      injector.corrupt(series, rng);
      std::vector<double> window(kSteps * kSensors);
      (void)robust::robust_extract_window(series, 0, kSteps, window);
      windows.push_back(std::move(window));
    }
  }
  std::vector<std::future<serve::ServeResult>> futures;
  std::set<std::uint32_t> shards_used;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto job = static_cast<std::int64_t>(i);
    shards_used.insert(*router.owner(job));
    futures.push_back(router.submit(job, windows[i], kSteps, kSensors));
  }
  std::size_t with_nan = 0;
  std::size_t abstained = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const serve::ServeResult r = futures[i].get();
    ASSERT_TRUE(r.accepted);
    const robust::GuardedPrediction want =
        w.v1->guard().classify(windows[i], kSteps, kSensors);
    EXPECT_EQ(r.prediction.label, want.label);
    EXPECT_EQ(r.prediction.abstained, want.abstained);
    EXPECT_EQ(r.prediction.reason, want.reason);
    EXPECT_EQ(r.prediction.report.missing_values, want.report.missing_values);
    EXPECT_EQ(r.prediction.report.repaired_values,
              want.report.repaired_values);
    if (std::any_of(windows[i].begin(), windows[i].end(),
                    [](double v) { return std::isnan(v); })) {
      ++with_nan;
    }
    if (want.abstained) ++abstained;
  }
  EXPECT_GT(with_nan, 0u) << "NaN values must travel on the wire";
  EXPECT_GT(abstained, 0u) << "severity 1 must make the guard abstain";
  EXPECT_LT(abstained, windows.size()) << "some damaged windows must classify";
  EXPECT_EQ(shards_used.size(), 2u);
  router.stop();
}

TEST(Cluster, DuplicateShardIdIsRejected) {
  const TinyWorld& w = tiny_world();
  Shard a(5, w.v1);
  Shard b(5, w.v1);  // same announced shard id, different port
  cluster::ShardRouter router;
  EXPECT_EQ(router.add_shard(a.worker->port()), 5u);
  EXPECT_THROW((void)router.add_shard(b.worker->port()), Error);
  router.stop();
}

TEST(Cluster, InflightBoundShedsAsQueueFull) {
  // A fake shard that answers the hello and then goes silent: every window
  // parks in `pending`, so the router's per-shard in-flight bound is what
  // sheds — deterministically, independent of worker speed.
  net::TcpListener listener;
  listener.listen(0);
  std::thread fake([&listener] {
    net::Socket sock = listener.accept();
    if (!sock.valid()) return;
    net::HelloFrame hello;
    hello.shard_id = 0;
    hello.window_steps = kSteps;
    hello.sensors = kSensors;
    (void)net::write_frame(sock, net::FrameType::kHello,
                           net::encode_hello(hello));
    net::FrameReader frames;
    try {
      while (frames.next(sock).has_value()) {
      }  // swallow frames, never reply
    } catch (const Error&) {
    }
  });

  cluster::RouterConfig config;
  config.max_inflight_per_shard = 4;
  cluster::ShardRouter router(config);
  ASSERT_EQ(router.add_shard(listener.port()), 0u);

  Rng rng(11);
  std::vector<std::future<serve::ServeResult>> parked;
  for (int i = 0; i < 4; ++i) {
    parked.push_back(router.submit(1, make_window(rng, 0), kSteps,
                                   kSensors));
  }
  // The bound is reached: the 5th submit must shed immediately.
  std::future<serve::ServeResult> extra =
      router.submit(1, make_window(rng, 0), kSteps, kSensors);
  const serve::ServeResult shed = extra.get();
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.reject_reason, serve::RejectReason::kQueueFull);

  // Tearing the router down fails the parked futures with a typed reason.
  router.stop();
  for (auto& f : parked) {
    const serve::ServeResult r = f.get();
    EXPECT_FALSE(r.accepted);
    EXPECT_TRUE(r.reject_reason == serve::RejectReason::kShutdown ||
                r.reject_reason == serve::RejectReason::kShardDown);
  }
  listener.shutdown_now();
  fake.join();
}

TEST(Cluster, ShardDeathRehashesOntoSurvivorAndRetryRecovers) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  auto s1 = std::make_unique<Shard>(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1->worker->port());

  // Find a job the ring places on shard 1, then kill shard 1.
  std::int64_t doomed_job = -1;
  for (std::int64_t job = 0; job < 1000; ++job) {
    if (*router.owner(job) == 1u) {
      doomed_job = job;
      break;
    }
  }
  ASSERT_GE(doomed_job, 0);
  s1->worker->stop();
  s1.reset();

  // The router notices passively (reader EOF); wait for the rehash.
  for (int i = 0; i < 500 && router.live_shards() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.live_shards(), 1u);
  EXPECT_EQ(*router.owner(doomed_job), 0u)
      << "the dead shard's keys must rehash onto the survivor";

  // And the client path heals: a retried submit lands on shard 0.
  Rng rng(13);
  serve::RetryPolicy policy;
  const serve::ServeResult r = router.submit_and_wait(
      doomed_job, make_window(rng, 2), kSteps, kSensors, policy, rng);
  EXPECT_TRUE(r.accepted);
  router.stop();
}

// ------------------------------------------------------------------ hot swap

TEST(Cluster, BundlePushCommitsOnEveryShard) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  Shard s1(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1.worker->port());

  ByteWriter os;
  serve::save_bundle(*w.v2, os);
  const cluster::SwapReport report = router.push_bundle(os.take(),
                                                        "cluster-v2");
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.shards.size(), 2u);
  for (const cluster::SwapOutcome& o : report.shards) {
    EXPECT_TRUE(o.ok) << "shard " << o.shard_id << ": " << o.message;
    EXPECT_EQ(o.active_version, "cluster-v2");
  }
  EXPECT_EQ(s0.registry.current()->version(), "cluster-v2");
  EXPECT_EQ(s1.registry.current()->version(), "cluster-v2");

  // Verdicts now carry the new version.
  Rng rng(17);
  serve::RetryPolicy policy;
  const serve::ServeResult r = router.submit_and_wait(
      1, make_window(rng, 0), kSteps, kSensors, policy, rng);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.model_version, "cluster-v2");
  router.stop();
}

TEST(Cluster, CorruptBundleRollsBackEverywhereWithoutDowntime) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  Shard s1(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1.worker->port());

  // Establish v2 everywhere, then push corrupt bytes claiming to be v3.
  ByteWriter os;
  serve::save_bundle(*w.v2, os);
  const std::string v2 = os.take();
  ASSERT_TRUE(router.push_bundle(v2, "cluster-v2").ok);

  std::string corrupt = v2;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 0x5a);  // break the magic
  const cluster::SwapReport report = router.push_bundle(corrupt,
                                                        "cluster-v3");
  EXPECT_FALSE(report.ok);
  for (const cluster::SwapOutcome& o : report.shards) {
    EXPECT_FALSE(o.ok) << "shard " << o.shard_id
                       << " must refuse corrupt bytes";
    EXPECT_EQ(o.active_version, "cluster-v2")
        << "shard " << o.shard_id << " must still serve the last good swap";
  }
  EXPECT_EQ(s0.registry.current()->version(), "cluster-v2");
  EXPECT_EQ(s1.registry.current()->version(), "cluster-v2");

  // No downtime: serving continues on the rolled-back version.
  Rng rng(19);
  serve::RetryPolicy policy;
  const serve::ServeResult r = router.submit_and_wait(
      2, make_window(rng, 1), kSteps, kSensors, policy, rng);
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(r.model_version, "cluster-v2");
  router.stop();
}

// ------------------------------------------------- cluster observability

TEST(ClusterObservability, TracePropagatesAndPhasesComeBackOverV2) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  cluster::RouterConfig config;
  config.trace.sample_rate = 1.0;  // trace everything: ids must all join
  cluster::ShardRouter router(config);
  (void)router.add_shard(s0.worker->port());
  ASSERT_EQ(router.shards().size(), 1u);

  Rng rng(29);
  serve::RetryPolicy policy;
  const std::size_t n = 10;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::ServeResult r = router.submit_and_wait(
        static_cast<std::int64_t>(i), make_window(rng, 1), kSteps, kSensors,
        policy, rng);
    ASSERT_TRUE(r.accepted);
    EXPECT_GE(r.trace_id, 1u) << "router must stamp every request";
    // The verdict frame brought the worker-side split back: inference ran,
    // so predict time is strictly positive; the rest must be sane.
    EXPECT_GT(r.phases.predict_s, 0.0);
    EXPECT_GE(r.phases.queue_s, 0.0);
    EXPECT_GE(r.phases.transform_s, 0.0);
    EXPECT_GE(r.phases.wire_send_s, 0.0);
    EXPECT_GE(r.phases.wire_recv_s, 0.0);
    EXPECT_GT(r.phases.total_s, 0.0);
  }

  // Both processes sampled the same requests under the same ids — the
  // invariant scwc_tracemerge's join step relies on.
  std::set<std::uint64_t> router_ids;
  for (const obs::RequestTraceRecord& rec : router.tracer().drain()) {
    router_ids.insert(rec.trace_id);
  }
  std::set<std::uint64_t> worker_ids;
  for (const obs::RequestTraceRecord& rec :
       s0.worker->service().tracer().drain()) {
    worker_ids.insert(rec.trace_id);
  }
  EXPECT_EQ(router_ids.size(), n);
  EXPECT_EQ(router_ids, worker_ids);

  // And the fleet-metrics pull path works on the same link.
  const auto metrics = router.fetch_metrics(0);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_FALSE(metrics->counters.empty());
  router.stop();
}

}  // namespace
}  // namespace scwc
