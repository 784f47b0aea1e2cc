// Tests of the debug lock-hierarchy tracker (common/lock_order.hpp).
//
// The tracker is compiled in only when SCWC_LOCK_ORDER_CHECK is defined —
// the asan/tsan presets set -DSCWC_LOCK_ORDER=ON. Under a release build
// every tracker test SKIPs except ReleaseBuildIsInert, which pins the
// no-op contract (empty results, acyclic, zero overhead paths compile).
//
// The deliberate-ABBA tests use lock classes namespaced "test.*" and
// clear() the global graph around themselves so they cannot contaminate
// the serve and cluster stress assertions (and vice versa).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

// The same-instance deliberate-inversion tests below nest the same two
// std::mutexes both ways, which TSan's own lock-order-inversion detector
// (rightly) reports as a potential deadlock and — with halt_on_error=1 —
// aborts. Those tests run under the asan preset instead, which also
// compiles the tracker in; under TSan they SKIP. The cross-instance
// inversion test runs under both: TSan cannot see it, the tracker can.
#if defined(__SANITIZE_THREAD__)
#define SCWC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCWC_UNDER_TSAN 1
#endif
#endif
#ifndef SCWC_UNDER_TSAN
#define SCWC_UNDER_TSAN 0
#endif

#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "common/byte_io.hpp"
#include "common/lock_order.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "data/window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"

namespace scwc {
namespace {

TEST(LockOrder, ReleaseBuildIsInert) {
  if (lock_order::enabled()) GTEST_SKIP() << "tracker compiled in";
  Mutex a{"inert.a"};
  Mutex b{"inert.b"};
  // Nest both ways — with the tracker compiled out nothing is recorded.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  EXPECT_TRUE(lock_order::violations().empty());
  EXPECT_TRUE(lock_order::edges().empty());
  EXPECT_TRUE(lock_order::acyclic());
}

TEST(LockOrder, ConsistentNestingStaysAcyclic) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  lock_order::clear();
  Mutex outer{"test.outer"};
  Mutex inner{"test.inner"};
  for (int i = 0; i < 3; ++i) {
    const LockGuard hold_outer(outer);
    const LockGuard hold_inner(inner);
  }
  EXPECT_TRUE(lock_order::violations().empty());
  EXPECT_TRUE(lock_order::acyclic());
  const auto edges = lock_order::edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, "test.outer");
  EXPECT_EQ(edges[0].second, "test.inner");
  lock_order::clear();
}

TEST(LockOrder, AbbaNestingProducesNamedReport) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  if (SCWC_UNDER_TSAN) GTEST_SKIP() << "TSan aborts deliberate inversions";
  lock_order::clear();
  Mutex a{"test.abba.A"};
  Mutex b{"test.abba.B"};
  {  // establish A -> B
    const LockGuard first(a);
    const LockGuard second(b);
  }
  {  // the conflicting order: B -> A
    const LockGuard first(b);
    const LockGuard second(a);
  }
  const std::vector<lock_order::Violation> v = lock_order::violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, "test.abba.B");   // held at violation time
  EXPECT_EQ(v[0].second, "test.abba.A");  // acquired under it
  // The report names both mutexes and renders both orders.
  EXPECT_NE(v[0].existing_order.find("\"test.abba.A\" -> \"test.abba.B\""),
            std::string::npos);
  EXPECT_EQ(v[0].new_order, "\"test.abba.B\" -> \"test.abba.A\"");
  EXPECT_NE(v[0].message.find("test.abba.A"), std::string::npos);
  EXPECT_NE(v[0].message.find("test.abba.B"), std::string::npos);
  EXPECT_NE(v[0].message.find("ABBA"), std::string::npos);
  EXPECT_FALSE(lock_order::acyclic());
  lock_order::clear();
}

// The case the tracker exists for. TSan's own lock-order-inversion
// detector works on mutex instances: it reports the same-instance ABBA
// above (which is why those tests skip under TSan) but stays silent when
// the two orders are taken on different instances of the same lock
// classes. The tracker keys its graph by class name, so it catches the
// inversion anyway — and this test runs under TSan too.
TEST(LockOrder, CrossInstanceAbbaIsCaughtByLockClass) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  lock_order::clear();
  Mutex a1{"test.xabba.A"};
  Mutex b1{"test.xabba.B"};
  Mutex a2{"test.xabba.A"};
  Mutex b2{"test.xabba.B"};
  {  // A1 -> B1 establishes class order A -> B
    const LockGuard first(a1);
    const LockGuard second(b1);
  }
  {  // B2 -> A2: no instance is shared, but the class order is inverted
    const LockGuard first(b2);
    const LockGuard second(a2);
  }
  const std::vector<lock_order::Violation> v = lock_order::violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].first, "test.xabba.B");
  EXPECT_EQ(v[0].second, "test.xabba.A");
  EXPECT_FALSE(lock_order::acyclic());
  lock_order::clear();
}

TEST(LockOrder, DuplicateConflictReportedOncePerPair) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  if (SCWC_UNDER_TSAN) GTEST_SKIP() << "TSan aborts deliberate inversions";
  lock_order::clear();
  Mutex a{"test.dup.A"};
  Mutex b{"test.dup.B"};
  for (int i = 0; i < 4; ++i) {
    {
      const LockGuard first(a);
      const LockGuard second(b);
    }
    {
      const LockGuard first(b);
      const LockGuard second(a);
    }
  }
  EXPECT_EQ(lock_order::violations().size(), 1u);
  lock_order::clear();
}

TEST(LockOrder, TransitiveCycleIsCaught) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  if (SCWC_UNDER_TSAN) GTEST_SKIP() << "TSan aborts deliberate inversions";
  lock_order::clear();
  Mutex a{"test.tri.a"};
  Mutex b{"test.tri.b"};
  Mutex c{"test.tri.c"};
  {
    const LockGuard g1(a);
    const LockGuard g2(b);
  }
  {
    const LockGuard g1(b);
    const LockGuard g2(c);
  }
  {  // c -> a closes the 3-cycle a -> b -> c -> a
    const LockGuard g1(c);
    const LockGuard g2(a);
  }
  const auto v = lock_order::violations();
  ASSERT_EQ(v.size(), 1u);
  // The established path runs through the intermediate class.
  EXPECT_NE(v[0].existing_order.find("test.tri.a"), std::string::npos);
  EXPECT_NE(v[0].existing_order.find("test.tri.b"), std::string::npos);
  EXPECT_NE(v[0].existing_order.find("test.tri.c"), std::string::npos);
  EXPECT_FALSE(lock_order::acyclic());
  lock_order::clear();
}

TEST(LockOrder, OutOfOrderReleaseKeepsStackConsistent) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  lock_order::clear();
  Mutex a{"test.ooo.a"};
  Mutex b{"test.ooo.b"};
  {
    LockGuard ga(a);
    const LockGuard gb(b);
    ga.unlock();  // release the OUTER guard first
    // With `a` released, taking a fresh class records b -> c, not a -> c.
    Mutex c{"test.ooo.c"};
    const LockGuard gc(c);
  }
  const auto edges = lock_order::edges();
  EXPECT_TRUE(lock_order::violations().empty());
  std::size_t from_a = 0;
  for (const auto& [from, to] : edges) {
    if (from == "test.ooo.a") ++from_a;
  }
  EXPECT_EQ(from_a, 1u);  // only a -> b; never a -> c
  lock_order::clear();
}

TEST(LockOrder, TimedMutexGivesUpAtDeadlineAndRecordsOnlySuccess) {
  lock_order::clear();
  TimedMutex call{"test.timed.call"};
  Mutex inner{"test.timed.inner"};
  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    const LockGuard hold(call);
    held.set_value();
    release.get_future().wait();
  });
  held.get_future().wait();
  EXPECT_FALSE(call.try_lock_until(std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(20)));
  release.set_value();
  holder.join();
  ASSERT_TRUE(call.try_lock_until(std::chrono::steady_clock::now() +
                                  std::chrono::seconds(5)));
  {
    const LockGuard adopted(call, std::adopt_lock);
    const LockGuard hold_inner(inner);
  }
  EXPECT_TRUE(lock_order::violations().empty());
  if (lock_order::enabled()) {
    const auto edges = lock_order::edges();
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].first, "test.timed.call");
    EXPECT_EQ(edges[0].second, "test.timed.inner");
  }
  lock_order::clear();
}

// ------------------------------------------------------- serve stress run

constexpr std::size_t kSteps = 12;
constexpr std::size_t kSensors = 3;

std::shared_ptr<const serve::ModelBundle> train_tiny(const std::string& ver,
                                                     std::uint64_t seed) {
  data::Tensor3 x{30, kSteps, kSensors};
  std::vector<int> y;
  Rng rng(4242);
  for (std::size_t i = 0; i < x.trials(); ++i) {
    const int label = static_cast<int>(i % 3);
    y.push_back(label);
    for (double& v : x.trial(i)) {
      v = rng.normal(static_cast<double>(label) * 2.0, 0.5);
    }
  }
  serve::RfBundleSpec spec;
  spec.version = ver;
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 4;
  spec.forest.seed = seed;
  return serve::train_rf_bundle(spec, x, y);
}

TEST(LockOrder, ServeStressRecordsAcyclicHierarchy) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  lock_order::clear();

  // Drive the full serving path — training, streaming ingestion, batching,
  // health routing, hot-swap, rollback, drain — and then require that every
  // lock acquisition observed fits one global hierarchy.
  serve::ModelRegistry registry;
  registry.register_bundle(train_tiny("lo-v1", 1));

  serve::ServiceConfig config;
  config.assembler.window_steps = kSteps;
  config.assembler.sensors = kSensors;
  config.batcher.max_batch = 8;
  config.batcher.max_delay_s = 0.001;
  config.health.enabled = true;  // exercises the chain -> registry edge
  {
    serve::ClassificationService service(registry, config);
    std::vector<serve::PendingWindow> pending;
    Rng rng(7);
    for (std::size_t t = 0; t < 4 * kSteps; ++t) {
      for (std::int64_t job = 1; job <= 3; ++job) {
        std::vector<double> row(kSensors);
        for (double& v : row) v = rng.normal(0.0, 1.0);
        auto out = service.ingest_block(job, row);
        for (auto& w : out) pending.push_back(std::move(w));
      }
      if (t == 2 * kSteps) {
        registry.register_bundle(train_tiny("lo-v2", 2));  // hot-swap
      }
      if (t == 3 * kSteps) {
        (void)registry.rollback();
      }
    }
    for (std::int64_t job = 1; job <= 3; ++job) {
      auto out = service.finish_job(job);
      for (auto& w : out) pending.push_back(std::move(w));
    }
    for (auto& p : pending) (void)p.result.get();
    service.stop();
  }

  EXPECT_TRUE(lock_order::violations().empty());
  EXPECT_TRUE(lock_order::acyclic());
  const auto edges = lock_order::edges();
  EXPECT_FALSE(edges.empty());
  // The one deliberate cross-component nesting is documented in DESIGN.md
  // §8: FallbackChain::route holds "serve.chain" while reading the
  // registry. The stress run must have recorded exactly that direction.
  bool chain_before_registry = false;
  bool registry_before_chain = false;
  for (const auto& [from, to] : edges) {
    if (from == "serve.chain" && to == "serve.registry") {
      chain_before_registry = true;
    }
    if (from == "serve.registry" && to == "serve.chain") {
      registry_before_chain = true;
    }
  }
  EXPECT_TRUE(chain_before_registry);
  EXPECT_FALSE(registry_before_chain);
  lock_order::clear();
}

TEST(LockOrder, ClusterStressWritesVerdictsOutsideServeLocks) {
  if (!lock_order::enabled()) GTEST_SKIP() << "tracker compiled out";
  lock_order::clear();

  // A router and an in-process worker through submits, a bundle push and
  // stop(). The worker frames and writes verdicts from whichever thread
  // resolves them, under cluster.worker.write: no serve lock may be held
  // then, or a stuck send would stall the service behind that lock.
  serve::ModelRegistry registry;
  registry.register_bundle(train_tiny("lo-c1", 3));
  cluster::WorkerConfig config;
  config.service.assembler.window_steps = kSteps;
  config.service.assembler.sensors = kSensors;
  config.service.batcher.max_batch = 8;
  config.service.batcher.max_delay_s = 0.001;
  config.service.health.enabled = true;
  cluster::ClusterWorker worker(registry, config);
  worker.start();
  {
    cluster::ShardRouter router;
    ASSERT_EQ(router.add_shard(worker.port()), 0u);
    Rng rng(11);
    std::vector<std::future<serve::ServeResult>> futures;
    const auto submit_some = [&] {
      for (std::int64_t job = 0; job < 200; ++job) {
        std::vector<double> window(kSteps * kSensors);
        for (double& v : window) v = rng.normal(0.0, 1.0);
        futures.push_back(router.submit(job, window, kSteps, kSensors));
      }
    };
    submit_some();
    ByteWriter bytes;
    serve::save_bundle(*train_tiny("lo-c2", 4), bytes);
    EXPECT_TRUE(router.push_bundle(bytes.take(), "lo-c2").ok);
    submit_some();
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
    }
    router.stop();
  }
  worker.stop();

  EXPECT_TRUE(lock_order::violations().empty());
  EXPECT_TRUE(lock_order::acyclic());
  const auto edges = lock_order::edges();
  EXPECT_FALSE(edges.empty());
  for (const auto& [from, to] : edges) {
    EXPECT_FALSE(to == "cluster.worker.write" && from.rfind("serve.", 0) == 0)
        << from << " is held while a verdict is written";
  }
  lock_order::clear();
}

}  // namespace
}  // namespace scwc
