// Cluster subsystem tests: consistent-hash ring properties, router↔worker
// round trips over real local AF_UNIX sockets (in-process ClusterWorker
// instances on ephemeral local ids), verdicts matched by request id,
// bounded in-flight admission, bounded sends on both ends of a connection
// whose peer stops reading, shard-death rehash + recovery (and a requested
// shutdown that is not a death), and the two-phase bundle swap with
// fleet-wide rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "robust/fault.hpp"
#include "robust/robust_window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/chaos.hpp"
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

/// One in-process shard: registry + worker on an ephemeral local id.
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

/// A fake shard on an ephemeral local id that completes the hello and
/// clock handshakes, then swallows every frame without replying.
/// `commit_seen` becomes ready when a SwapCommit arrives, i.e. once a
/// bundle push is waiting for its ack. A deaf shard stops reading
/// altogether once the handshakes are done, until it is destroyed.
struct SilentShard {
  explicit SilentShard(bool stop_reading = false) : deaf(stop_reading) {
    listener.listen(0);
    thread = std::thread([this] { run(); });
  }
  SilentShard(const SilentShard&) = delete;
  SilentShard& operator=(const SilentShard&) = delete;
  ~SilentShard() {
    listener.shutdown_now();
    release.set_value();
    thread.join();
  }
  void run() {
    net::Socket sock = listener.accept();
    if (!sock.valid()) return;
    net::HelloFrame hello;
    hello.shard_id = 0;
    hello.window_steps = kSteps;
    hello.sensors = kSensors;
    (void)net::write_frame(sock, net::FrameType::kHello,
                           net::encode_hello(hello));
    net::FrameReader frames;
    bool committed = false;
    std::size_t pings = 0;
    try {
      while (const std::optional<net::Frame> frame = frames.next(sock)) {
        if (frame->type == net::FrameType::kPing) {
          net::PongFrame pong;
          pong.nonce = net::decode_ping(frame->payload).nonce;
          pong.t_mono_ns = 1;
          (void)net::write_frame(sock, net::FrameType::kPong,
                                 net::encode_pong(pong));
          if (deaf && ++pings == cluster::kClockSyncPings) {
            release.get_future().wait();
            return;
          }
        } else if (frame->type == net::FrameType::kSwapCommit &&
                   !committed) {
          committed = true;
          commit_seen.set_value();
        }
      }
    } catch (const Error&) {
    }
  }
  const bool deaf;
  net::LocalListener listener;
  std::promise<void> commit_seen;
  std::promise<void> release;
  std::thread thread;
};

/// A fake shard on an ephemeral local id that completes the hello and
/// clock handshakes, reads `burst` submits, then answers them in reverse
/// order, every verdict labelled with its request's job id.
struct ReversingShard {
  explicit ReversingShard(std::size_t n) : burst(n) {
    listener.listen(0);
    thread = std::thread([this] { run(); });
  }
  ReversingShard(const ReversingShard&) = delete;
  ReversingShard& operator=(const ReversingShard&) = delete;
  ~ReversingShard() {
    listener.shutdown_now();
    thread.join();
  }
  void run() {
    net::Socket sock = listener.accept();
    if (!sock.valid()) return;
    net::HelloFrame hello;
    hello.window_steps = kSteps;
    hello.sensors = kSensors;
    (void)net::write_frame(sock, net::FrameType::kHello,
                           net::encode_hello(hello));
    net::FrameReader frames;
    std::vector<net::SubmitWindowFrame> submits;
    try {
      while (const std::optional<net::Frame> frame = frames.next(sock)) {
        if (frame->type == net::FrameType::kPing) {
          net::PongFrame pong;
          pong.nonce = net::decode_ping(frame->payload).nonce;
          pong.t_mono_ns = 1;
          (void)net::write_frame(sock, net::FrameType::kPong,
                                 net::encode_pong(pong));
        } else if (frame->type == net::FrameType::kSubmitWindow) {
          submits.push_back(net::decode_submit_window(frame->payload));
          if (submits.size() < burst) continue;
          std::string out;
          for (auto it = submits.rbegin(); it != submits.rend(); ++it) {
            net::VerdictFrame v;
            v.request_id = it->request_id;
            v.trace_id = it->trace_id;
            v.job_id = it->job_id;
            v.accepted = true;
            v.label = static_cast<std::int32_t>(it->job_id);
            v.batch_size = static_cast<std::uint32_t>(burst);
            v.model_version = "reversed";
            net::append_frame(out, net::FrameType::kVerdict,
                              net::encode_verdict(v));
          }
          (void)sock.send_all(out);
          submits.clear();
        }
      }
    } catch (const Error&) {
    }
  }
  const std::size_t burst;
  net::LocalListener listener;
  std::thread thread;
};

std::uint64_t shard_deaths() {
  return obs::counter_value(obs::MetricsRegistry::global().snapshot(),
                            "scwc_cluster_shard_deaths_total");
}

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

TEST(Cluster, VerdictsAreMatchedByRequestIdNotByOrder) {
  // Workers write each batch's verdicts when the batch resolves, so a
  // connection's verdicts need not come back in submission order. A fake
  // shard answers a whole burst in reverse: every future must still get
  // its own request's verdict.
  constexpr std::size_t kBurst = 16;
  ReversingShard fake(kBurst);
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(fake.listener.id()), 0u);
  Rng rng(37);
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t job = 0; job < kBurst; ++job) {
    futures.push_back(router.submit(static_cast<std::int64_t>(job),
                                    make_window(rng, 0), kSteps, kSensors));
  }
  for (std::size_t job = 0; job < kBurst; ++job) {
    ASSERT_EQ(futures[job].wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const serve::ServeResult r = futures[job].get();
    ASSERT_TRUE(r.accepted) << "job " << job;
    EXPECT_EQ(r.prediction.label, static_cast<int>(job));
    EXPECT_EQ(r.model_version, "reversed");
  }
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
  // A fake shard that goes silent after the handshakes: every window
  // parks in `pending`, so the router's per-shard in-flight bound is what
  // sheds — deterministically, independent of worker speed.
  SilentShard fake;
  cluster::RouterConfig config;
  config.max_inflight_per_shard = 4;
  cluster::ShardRouter router(config);
  ASSERT_EQ(router.add_shard(fake.listener.id()), 0u);

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
  const std::uint64_t deaths_before = shard_deaths();
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
  EXPECT_EQ(shard_deaths() - deaths_before, 1u)
      << "a killed worker is one shard death";
}

TEST(Cluster, RequestedShutdownIsNotAShardDeath) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  Shard s1(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1.worker->port());
  const std::uint64_t deaths_before = shard_deaths();
  router.shutdown_workers();
  // Each worker exits as scwc_worker does once asked, closing its end.
  for (Shard* shard : {&s0, &s1}) {
    shard->worker->wait_shutdown();
    shard->worker->stop();
  }
  // The router sees both EOFs before it stops itself.
  for (int i = 0; i < 500 && router.live_shards() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.live_shards(), 0u);
  router.stop();
  EXPECT_EQ(shard_deaths() - deaths_before, 0u)
      << "a requested shutdown counted as a shard death";
}

// ------------------------------------------------------------ metrics pull

TEST(Cluster, ConcurrentMetricsPullsOfOneShardAllAnswer) {
  // Round trips to one shard are serialised from send through wait, so
  // one pull can neither clear nor take the other's reply.
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  std::atomic<int> answered{0};
  const auto pull = [&] {
    for (int i = 0; i < 200; ++i) {
      if (router.fetch_metrics(0, 2.0).has_value()) answered.fetch_add(1);
    }
  };
  std::thread a(pull);
  std::thread b(pull);
  a.join();
  b.join();
  EXPECT_EQ(answered.load(), 400);
  router.stop();
}

TEST(Cluster, FleetMetricsKeepADeadShardsLastPull) {
  const TinyWorld& w = tiny_world();
  Shard s0(0, w.v1);
  auto s1 = std::make_unique<Shard>(1, w.v1);
  cluster::ShardRouter router;
  (void)router.add_shard(s0.worker->port());
  (void)router.add_shard(s1->worker->port());

  const auto reply = router.fetch_metrics(1);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->counters.empty());
  const std::string series =
      obs::sanitize_metric_name(reply->counters.front().first) +
      "{shard=\"1\"} ";

  s1->worker->stop();
  s1.reset();
  for (int i = 0; i < 500 && router.live_shards() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(router.live_shards(), 1u);

  const std::string text = router.fleet_metrics_text();
  EXPECT_NE(text.find("\nscwc_cluster_shard_up{shard=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("\n" + series), std::string::npos)
      << "the dead shard's last pull must still render: " << series;
  EXPECT_NE(text.find("\nscwc_cluster_shard_up{shard=\"0\"} 1\n"),
            std::string::npos);
  router.stop();
}

TEST(Cluster, FleetMetricsDoNotWaitBehindAStuckShard) {
  // A push to a shard that never acks holds that shard's round trips for
  // kSwapAckTimeoutS; a fleet scrape meanwhile stays within its own bound.
  SilentShard fake;
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(fake.listener.id()), 0u);
  std::future<void> commit_seen = fake.commit_seen.get_future();
  std::thread push([&router] {
    (void)router.push_bundle("not a bundle", "stuck");
  });
  EXPECT_EQ(commit_seen.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  const auto t0 = std::chrono::steady_clock::now();
  const std::string text = router.fleet_metrics_text();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 2.0 * cluster::kFleetPullTimeoutS);
  EXPECT_NE(text.find("scwc_cluster_shard_up{shard=\"0\"} 1\n"),
            std::string::npos);

  router.stop();  // the shard goes down, which ends the push's wait
  push.join();
}

TEST(Cluster, SendsToAShardThatStopsReadingAreBounded) {
  // A shard that completed the handshakes and then never reads again:
  // once the socket buffers fill, a submit's send makes no progress, and
  // every later frame to that shard (submits, a fleet metrics pull) queues
  // behind it. After kSendTimeoutS the router marks the shard down, so all
  // of them resolve. Every wait here is bounded, so a router whose sends
  // block forever fails this test instead of hanging it.
  SilentShard fake(/*stop_reading=*/true);
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(fake.listener.id()), 0u);
  // 512×7 windows: ~28 KiB frames, so a handful fill the socket buffers.
  constexpr std::size_t kBigSteps = 512;
  constexpr std::size_t kBigSensors = 7;
  const std::vector<double> window(kBigSteps * kBigSensors, 1.0);
  auto submitter = std::async(std::launch::async, [&] {
    std::vector<std::future<serve::ServeResult>> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(router.submit(1, window, kBigSteps, kBigSensors));
    }
    return out;
  });
  // Let the buffers fill and the submitter block, then scrape the fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto scrape = std::async(std::launch::async, [&router] {
    const auto t0 = std::chrono::steady_clock::now();
    (void)router.fleet_metrics_text();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  });
  constexpr auto kBound = std::chrono::seconds(10);
  const bool scraped = scrape.wait_for(kBound) == std::future_status::ready;
  const bool submitted =
      submitter.wait_for(kBound) == std::future_status::ready;
  if (!scraped || !submitted) router.stop();  // unblock them, then fail
  ASSERT_TRUE(scraped) << "fleet_metrics_text() waited behind a stuck send";
  ASSERT_TRUE(submitted) << "submit() blocked on a shard that stopped reading";
  EXPECT_LT(scrape.get(), 2.0 * cluster::kFleetPullTimeoutS);
  for (std::future<serve::ServeResult>& f : submitter.get()) {
    ASSERT_EQ(f.wait_for(kBound), std::future_status::ready);
    const serve::ServeResult r = f.get();
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reject_reason, serve::RejectReason::kShardDown);
  }
  EXPECT_EQ(router.live_shards(), 0u);
  router.stop();
}

/// Submits windows on `deaf` until their verdicts would be several times
/// what the socket buffers hold, and never reads one. deadline_ns 0 means
/// none. Stops early once the worker shuts the connection down.
void flood_without_reading(net::Socket& deaf, const std::string& version,
                           std::uint64_t deadline_ns) {
  deaf.set_send_timeout(5.0);
  net::VerdictFrame sample;
  sample.model_version = version;
  const std::size_t verdict_bytes =
      net::encode_frame(net::FrameType::kVerdict,
                        net::encode_verdict(sample))
          .size();
  Rng rng(41);
  const std::vector<double> window = make_window(rng, 0);
  for (std::size_t i = 0; i * verdict_bytes < (std::size_t{1} << 20); ++i) {
    net::SubmitWindowView frame;
    frame.request_id = i + 1;
    frame.job_id = 1;
    frame.deadline_ns = deadline_ns;
    frame.steps = kSteps;
    frame.sensors = kSensors;
    frame.values = window;
    if (!deaf.send_all(net::encode_submit_window_frame(frame))) break;
  }
}

/// Stops `worker` and returns how long that took, in seconds.
double timed_stop(cluster::ClusterWorker& worker) {
  const auto t0 = std::chrono::steady_clock::now();
  worker.stop();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Cluster, AConnectionThatStopsReadingDoesNotStallTheWorker) {
  // A raw client submits until its unread verdicts are several times what
  // the socket buffers hold, then never reads. The worker writes verdicts
  // from the pool threads that resolve batches, but no flush waits on a
  // slow peer: one pool task waits for it, within net::kSendTimeoutS, and
  // then shuts the connection down. Under the default admission bounds a
  // router on a second connection still gets every verdict, and stop() is
  // not held up by the stuck connection.
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.v1);
  cluster::WorkerConfig config;
  config.service.assembler.window_steps = kSteps;
  config.service.assembler.sensors = kSensors;
  cluster::ClusterWorker worker(registry, config);
  worker.start();

  net::Socket deaf = net::connect_local(worker.port(),
                                        cluster::kConnectDeadlineS);
  ASSERT_TRUE(deaf.valid());
  flood_without_reading(deaf, w.v1->version(), 0);

  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(worker.port()), 0u);
  Rng rng(43);
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::int64_t job = 0; job < 64; ++job) {
    futures.push_back(router.submit(job, make_window(rng, 1), kSteps,
                                    kSensors));
  }
  for (std::future<serve::ServeResult>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "the router's verdicts waited behind the stuck connection";
    const serve::ServeResult r = f.get();
    EXPECT_TRUE(r.accepted) << serve::reject_reason_name(r.reject_reason);
  }
  router.stop();
  EXPECT_LT(timed_stop(worker), 2.0 * net::kSendTimeoutS);
}

TEST(Cluster, AStuckConnectionsExpiringRequestsDoNotDelayAnotherConnection) {
  // The stuck client's windows carry a 1 ms budget and every batch cut
  // stalls the flusher 5 ms, so they all expire in the queue and the
  // flusher itself sheds them to the stuck connection. The queue bound is
  // raised so that none sheds at admission: the flusher is the first
  // thread whose flush meets the full socket. It must not wait on it: a
  // router submitting on a second connection the whole time sees every
  // verdict well inside the send bound.
  if (ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "needs a pool thread beyond the one that waits on the "
                    "stuck connection";
  }
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.v1);
  serve::ChaosProfile profile;
  profile.flusher_stall_probability = 1.0;
  profile.flusher_stall_s = 0.005;
  serve::ChaosInjector chaos(profile, 47);
  chaos.set_armed(true);
  cluster::WorkerConfig config;
  config.service.assembler.window_steps = kSteps;
  config.service.assembler.sensors = kSensors;
  config.service.chaos = &chaos;
  config.service.admission.max_pending = 1 << 16;
  config.service.batcher.max_batch = 1024;
  cluster::ClusterWorker worker(registry, config);
  worker.start();
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(worker.port()), 0u);

  net::Socket deaf = net::connect_local(worker.port(),
                                        cluster::kConnectDeadlineS);
  ASSERT_TRUE(deaf.valid());

  std::atomic<bool> flooding{true};
  double worst_s = 0.0;
  std::size_t answered = 0;
  std::thread submitter([&] {
    Rng rng(53);
    std::int64_t job = 0;
    // Keep submitting until the flood is over and half a send bound more.
    auto until = std::chrono::steady_clock::time_point::max();
    while (std::chrono::steady_clock::now() < until) {
      const auto t0 = std::chrono::steady_clock::now();
      std::future<serve::ServeResult> f =
          router.submit(job++, make_window(rng, 1), kSteps, kSensors);
      if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
        worst_s = 10.0;
        return;
      }
      worst_s = std::max(
          worst_s, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0).count());
      if (f.get().accepted) ++answered;
      if (!flooding.load() &&
          until == std::chrono::steady_clock::time_point::max()) {
        until = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(0.5 * net::kSendTimeoutS));
      }
    }
  });

  flood_without_reading(deaf, w.v1->version(), 1'000'000);
  flooding = false;
  submitter.join();

  EXPECT_GT(answered, 0u);
  EXPECT_LT(worst_s, 0.5 * net::kSendTimeoutS)
      << "a verdict on the second connection waited behind the stuck one";
  router.stop();
  EXPECT_LT(timed_stop(worker), 2.0 * net::kSendTimeoutS);
}

// ------------------------------------------------------------ quiet reads

std::uint64_t global_counter(std::string_view name) {
  return obs::counter_value(obs::MetricsRegistry::global().snapshot(), name);
}

/// Count and sum of one histogram of the process-wide registry.
std::pair<std::uint64_t, double> global_histogram(std::string_view name) {
  for (const obs::HistogramSnapshot& h :
       obs::MetricsRegistry::global().snapshot().histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {0, 0.0};
}

std::uint64_t worker_batches() {
  return global_counter("scwc_serve_batch_flush_size_total") +
         global_counter("scwc_serve_batch_flush_deadline_total");
}

constexpr std::string_view kQuietInTime =
    "scwc_cluster_worker_quiet_waits_in_time_total";
constexpr std::string_view kQuietOverran =
    "scwc_cluster_worker_quiet_waits_overran_total";

/// A worker whose batches wait up to `max_delay_s` for up to 64 windows.
struct DelayedShard {
  explicit DelayedShard(double max_delay_s) {
    registry.register_bundle(tiny_world().v1);
    cluster::WorkerConfig config;
    config.service.assembler.window_steps = kSteps;
    config.service.assembler.sensors = kSensors;
    config.service.batcher.max_batch = 64;
    config.service.batcher.max_delay_s = max_delay_s;
    worker = std::make_unique<cluster::ClusterWorker>(registry, config);
    worker->start();
  }
  serve::ModelRegistry registry;
  std::unique_ptr<cluster::ClusterWorker> worker;
};

/// Submits `n` windows through `router`, `gap` apart, and returns their
/// futures.
std::vector<std::future<serve::ServeResult>> paced_submits(
    cluster::ShardRouter& router, int n, std::chrono::microseconds gap) {
  Rng rng(61);
  std::vector<std::future<serve::ServeResult>> futures;
  auto due = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due);
    futures.push_back(
        router.submit(i, make_window(rng, i % 3), kSteps, kSensors));
    due += gap;
  }
  return futures;
}

/// A raw router-side connection: submits windows with chosen deadlines
/// and reads verdict frames back.
struct RawClient {
  explicit RawClient(std::uint16_t port)
      : sock(net::connect_local(port, cluster::kConnectDeadlineS)) {
    sock.set_recv_timeout(10.0);
  }
  /// Sends one window per {request id, deadline in ns (0 = none)}, all in
  /// one write.
  bool submit(
      std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> windows) {
    Rng rng(67);
    const std::vector<double> window = make_window(rng, 1);
    std::string bytes;
    for (const auto& [id, deadline_ns] : windows) {
      net::SubmitWindowView frame;
      frame.request_id = id;
      frame.job_id = static_cast<std::int64_t>(id);
      frame.deadline_ns = deadline_ns;
      frame.steps = kSteps;
      frame.sensors = kSensors;
      frame.values = window;
      bytes += net::encode_submit_window_frame(frame);
    }
    return sock.send_all(bytes);
  }
  /// The next verdict, or nullopt when none arrives within the timeout.
  std::optional<net::VerdictFrame> verdict() {
    while (const std::optional<net::Frame> frame = frames.next(sock)) {
      if (frame->type == net::FrameType::kVerdict) {
        return net::decode_verdict(frame->payload);
      }
    }
    return std::nullopt;
  }
  net::Socket sock;
  net::FrameReader frames;
};

/// Primes `client`'s worker with one light timer cut: a window whose 30 ms
/// deadline cuts its batch, shed as expired.
void prime_light_cut(RawClient& client) {
  ASSERT_TRUE(client.submit({{1000, 30'000'000}}));
  const std::optional<net::VerdictFrame> v = client.verdict();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->request_id, 1000u);
}

TEST(Cluster, LightTrafficIsReadOncePerBatch) {
  // Windows 1 ms apart against a 20 ms batch delay: after a light timer
  // cut the reader sleeps through each batch and reads what arrived in one
  // pass just before the cut. Every window still makes the batch it would
  // have made if each frame had woken the reader: about one batch per 21
  // windows (20 ms of them plus the one that opens the next batch). The
  // first batch has no cut to follow and is read frame by frame, so it
  // runs before the counts are taken.
  DelayedShard shard(0.02);
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(shard.worker->port()), 0u);
  for (auto& f : paced_submits(router, 25, std::chrono::milliseconds(1))) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  }
  const std::uint64_t batches0 = worker_batches();
  const auto reads0 = global_histogram("scwc_cluster_worker_frames_per_read");
  const std::uint64_t in_time0 = global_counter(kQuietInTime);
  const std::uint64_t overran0 = global_counter(kQuietOverran);

  constexpr int kWindows = 400;
  auto futures = paced_submits(router, kWindows, std::chrono::milliseconds(1));
  for (std::future<serve::ServeResult>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    const serve::ServeResult r = f.get();
    EXPECT_TRUE(r.accepted) << serve::reject_reason_name(r.reject_reason);
  }
  const double batches = static_cast<double>(worker_batches() - batches0);
  const auto reads = global_histogram("scwc_cluster_worker_frames_per_read");
  const double frames = reads.second - reads0.second;
  const double recvs = static_cast<double>(reads.first - reads0.first);
  EXPECT_GE(kWindows / batches, 15.0) << batches << " batches";
  EXPECT_LE(kWindows / batches, 25.0) << batches << " batches";
  EXPECT_GE(frames / recvs, 5.0) << frames << " frames in " << recvs
                                 << " reads";
  // About 20 waits run here. On a quiet host a timed wait wakes more than
  // the 500 µs lead late about once in 400 (DESIGN.md §13.3), but a host
  // busy with other tests or a sanitizer wakes later; the probe measures
  // the rate. Here overruns must stay a small minority: a lead shorter than
  // the usual lateness (p50 ~65 µs) would make most waits overrun.
  const std::uint64_t in_time = global_counter(kQuietInTime) - in_time0;
  const std::uint64_t overran = global_counter(kQuietOverran) - overran0;
  EXPECT_GT(in_time, 0u);
  EXPECT_LE(4 * overran, in_time + overran)
      << overran << " of " << in_time + overran
      << " quiet waits woke after their batch was due";
  router.stop();
}

TEST(Cluster, BurstAfterLightTrafficIsNotHeldBack) {
  // A burst of 4 × max_batch windows lands while the reader sleeps through
  // a light batch: light traffic and then a lone window leave a light timer
  // cut behind, one more window opens a batch and sends the reader into its
  // quiet wait, and the burst follows 5 ms later. Its frames overflow the
  // socket, so the router's sends wait until the reader wakes, well inside
  // the send bound, and every window resolves within two batch delays plus
  // slack.
  constexpr double kDelayS = 0.02;
  DelayedShard shard(kDelayS);
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(shard.worker->port()), 0u);
  for (auto& f : paced_submits(router, 100, std::chrono::milliseconds(1))) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  }
  for (auto& f : paced_submits(router, 1, std::chrono::microseconds(0))) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  }
  const std::uint64_t waits0 =
      global_counter(kQuietInTime) + global_counter(kQuietOverran);
  const auto t0 = std::chrono::steady_clock::now();
  auto burst = paced_submits(router, 1, std::chrono::microseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (auto& f : paced_submits(router, 4 * 64, std::chrono::microseconds(0))) {
    burst.push_back(std::move(f));
  }
  for (std::future<serve::ServeResult>& f : burst) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    const serve::ServeResult r = f.get();
    EXPECT_TRUE(r.accepted) << serve::reject_reason_name(r.reject_reason);
    EXPECT_NE(r.reject_reason, serve::RejectReason::kShardDown);
  }
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 2.0 * kDelayS + 0.1);
  EXPECT_GT(global_counter(kQuietInTime) + global_counter(kQuietOverran),
            waits0)
      << "the burst did not land in a quiet wait";
  EXPECT_EQ(router.live_shards(), 1u);
  router.stop();
}

TEST(Cluster, StopEndsAQuietWait) {
  // With a 1 s batch delay a quiet wait lasts its cap, a quarter of the
  // send bound; stop() must end it at once instead of waiting it out.
  DelayedShard shard(1.0);
  RawClient client(shard.worker->port());
  ASSERT_TRUE(client.sock.valid());
  prime_light_cut(client);
  ASSERT_TRUE(client.submit({{1, 0}}));  // opens a batch due in 1 s
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(timed_stop(*shard.worker), 0.1);
}

TEST(Cluster, DeadlineDuringAQuietWaitResolvesOnceAsExceeded) {
  // Two windows read in one pass: window 1 has no deadline, window 2 a
  // 60 ms one, so window 2's deadline is when their batch is cut and the
  // reader sleeps until just before it. Window 2 resolves exactly once,
  // as kDeadlineExceeded; window 1 is answered in the same batch.
  DelayedShard shard(1.0);
  RawClient client(shard.worker->port());
  ASSERT_TRUE(client.sock.valid());
  prime_light_cut(client);
  const std::uint64_t in_time0 = global_counter(kQuietInTime);
  ASSERT_TRUE(client.submit({{1, 0}, {2, 60'000'000}}));
  std::map<std::uint64_t, int> seen;
  client.sock.set_recv_timeout(2.0);
  while (const std::optional<net::VerdictFrame> v = client.verdict()) {
    ++seen[v->request_id];
    if (v->request_id == 2) {
      EXPECT_FALSE(v->accepted);
      EXPECT_EQ(v->reject_reason, static_cast<std::uint8_t>(
                                      serve::RejectReason::kDeadlineExceeded));
    } else {
      EXPECT_EQ(v->request_id, 1u);
      EXPECT_TRUE(v->accepted);
    }
    if (seen.size() == 2) client.sock.set_recv_timeout(0.2);
  }
  EXPECT_EQ(seen[1], 1);
  EXPECT_EQ(seen[2], 1);
  EXPECT_EQ(global_counter(kQuietInTime), in_time0 + 1);
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

TEST(Cluster, SlowBundleLoadUnderSaturatingSubmitsKeepsTheShard) {
  // A bundle whose load outlasts kSendTimeoutS while submits saturate the
  // shard. The router's in-flight bound (1,024 windows of ~480 bytes) is
  // more than a local socket buffers, so a worker that stopped reading for
  // the load would stall a submit's send past the bound and read as dead.
  // The worker loads off its reader thread: the shard stays in the ring
  // and the push commits.
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.v1);
  cluster::WorkerConfig config;
  config.service.assembler.window_steps = kSteps;
  config.service.assembler.sensors = kSensors;
  // The worker cuts a batch only once the router's whole in-flight bound
  // is queued in it, so the submitter reaches the bound however fast the
  // worker answers.
  config.service.batcher.max_batch =
      cluster::RouterConfig{}.max_inflight_per_shard;
  config.service.batcher.max_delay_s = 0.2;
  cluster::ClusterWorker worker(
      registry, config,
      [](serve::ModelRegistry& r, std::string_view bytes) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            1.5 * net::kSendTimeoutS));
        return serve::try_swap_from_bytes(r, bytes);
      });
  worker.start();
  cluster::ShardRouter router;
  ASSERT_EQ(router.add_shard(worker.port()), 0u);

  std::atomic<bool> pushing{true};
  auto submitter = std::async(std::launch::async, [&] {
    Rng rng(29);
    const std::vector<double> window = make_window(rng, 0);
    std::map<serve::RejectReason, std::size_t> sheds;
    std::deque<std::future<serve::ServeResult>> inflight;
    const std::size_t keep = 2 * cluster::RouterConfig{}.max_inflight_per_shard;
    const auto settle = [&sheds](std::future<serve::ServeResult>& f) {
      const serve::ServeResult r = f.get();
      if (!r.accepted) ++sheds[r.reject_reason];
    };
    while (pushing.load()) {
      inflight.push_back(router.submit(1, window, kSteps, kSensors));
      if (inflight.size() > keep) {
        settle(inflight.front());
        inflight.pop_front();
      }
    }
    for (std::future<serve::ServeResult>& f : inflight) settle(f);
    return sheds;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ByteWriter os;
  serve::save_bundle(*w.v2, os);
  const cluster::SwapReport report = router.push_bundle(os.take(),
                                                        "cluster-v2");
  pushing.store(false);
  const std::map<serve::RejectReason, std::size_t> sheds = submitter.get();

  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_TRUE(report.shards[0].ok) << report.shards[0].message;
  EXPECT_EQ(report.shards[0].active_version, "cluster-v2");
  EXPECT_EQ(router.live_shards(), 1u);
  EXPECT_EQ(sheds.count(serve::RejectReason::kShardDown), 0u);
  EXPECT_GT(sheds.count(serve::RejectReason::kQueueFull), 0u)
      << "the submits never reached the in-flight bound";
  router.stop();
  worker.stop();
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
