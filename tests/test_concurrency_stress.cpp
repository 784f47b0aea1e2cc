// Concurrency stress tests, written to run under ThreadSanitizer (the
// `tsan` preset / tests/run_tsan.sh). Each test hammers one shared
// structure from many threads at once so TSan sees every pairing the
// production code can produce:
//   * ThreadPool submit racing stop(), and stop() racing stop() — the
//     destructor-under-live-workers edge fixed in thread_pool.cpp — and
//     the LIFO idle stack: stop() racing workers that are parking or just
//     woken, and a woken worker finding its task taken by a finisher;
//   * MetricsRegistry counter/gauge/histogram updates concurrent with
//     handle acquisition, snapshot() and reset();
//   * nested TraceSpans opened on several threads against one global tree;
//   * RF and GBT training in parallel on one shared dataset (the paper's
//     Table V/VI models), checking bit-identical results afterwards;
//   * the serving layer: MicroBatcher flushes racing submit() and stop(),
//     and ModelRegistry hot-swap/rollback racing live classification.
// The suite also runs in the plain and asan presets, where it still works
// as a correctness/determinism test — only the race detection needs TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/bundle_io.hpp"
#include "serve/chaos.hpp"
#include "serve/service.hpp"

namespace scwc {
namespace {

/// Enables observability for the duration of a test (the obs races we care
/// about only exist when the fast paths are live) and restores it after.
class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = true;
};

// ---------------------------------------------------------------- ThreadPool

TEST_F(ConcurrencyStressTest, PoolSubmitRacesStop) {
  // Several producer threads submit while another calls stop() midway.
  // Every submit must either complete (future becomes ready) or throw
  // scwc::Error — never hang, never corrupt the queue.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&pool, &executed, &rejected] {
        for (int i = 0; i < 64; ++i) {
          try {
            auto fut = pool.submit([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            });
            fut.wait();
          } catch (const Error&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::thread stopper([&pool] { pool.stop(); });
    for (auto& t : producers) t.join();
    stopper.join();
    EXPECT_EQ(executed.load() + rejected.load(), 4 * 64);
  }
}

TEST_F(ConcurrencyStressTest, ConcurrentStopCallsAllWaitForWorkers) {
  // The latent edge this PR fixes: two threads calling stop() at once.
  // Both calls must return only after every worker has exited, so the
  // pool (stack-allocated here) can be destroyed immediately afterwards.
  for (int round = 0; round < 16; ++round) {
    std::atomic<int> executed{0};
    {
      ThreadPool pool(4);
      for (int i = 0; i < 32; ++i) {
        (void)pool.submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
      std::thread a([&pool] { pool.stop(); });
      std::thread b([&pool] { pool.stop(); });
      std::thread c([&pool] { pool.stop(); });
      a.join();
      b.join();
      c.join();
      EXPECT_TRUE(pool.stopped());
    }  // ~ThreadPool runs a fourth stop(); workers must already be gone
    EXPECT_EQ(executed.load(), 32);  // stop() drains before joining
  }
}

TEST_F(ConcurrencyStressTest, DestructorRacesExternalStop) {
  // The sharpest form of the fixed edge: the destructor's stop() runs
  // while another thread is STILL INSIDE its own stop() call. Before the
  // fix, the destructor saw stop_ == true, returned without waiting, and
  // freed workers_ under the other call's join loop (use-after-free that
  // TSan reports as a race on the worker thread objects). Now the
  // destructor blocks on the join phase until the in-flight call is done.
  for (int round = 0; round < 32; ++round) {
    std::thread external;
    {
      ThreadPool pool(4);
      for (int i = 0; i < 16; ++i) {
        (void)pool.submit([] {
          std::this_thread::yield();  // keep workers busy into the join
        });
      }
      external = std::thread([&pool] { pool.stop(); });
      // Leave scope as soon as the external stop() is underway — the
      // destructor must now wait for it, not race it.
      while (!pool.stopped()) std::this_thread::yield();
    }
    external.join();
  }
}

TEST_F(ConcurrencyStressTest, SubmitAfterConcurrentStopThrowsOrRuns) {
  ThreadPool pool(2);
  std::thread stopper([&pool] { pool.stop(); });
  for (int i = 0; i < 100; ++i) {
    try {
      pool.submit([] {}).wait();
    } catch (const Error&) {
      break;  // pool stopped — every later submit throws too
    }
  }
  stopper.join();
  EXPECT_TRUE(pool.stopped());
  EXPECT_THROW((void)pool.submit([] {}), Error);
}

TEST_F(ConcurrencyStressTest, StopRacesParkingAndJustWokenWorkers) {
  // Idle workers park on their own wait slots. A producer submits tiny
  // tasks until the pool stops, so at any moment workers are parking,
  // parked, or popped off the idle stack and not yet running, while stop()
  // lands at a different point each round. stop() must wake every slot,
  // and every accepted task must still run (stop drains the queue).
  for (int round = 0; round < 32; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::thread producer([&pool, &executed, &accepted] {
      for (int i = 0; !pool.stopped(); ++i) {
        if (pool.try_submit(
                [&executed] {
                  executed.fetch_add(1, std::memory_order_relaxed);
                },
                8)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 4 == 0) std::this_thread::yield();
      }
    });
    while (executed.load(std::memory_order_relaxed) < round) {
      std::this_thread::yield();
    }
    pool.stop();
    producer.join();
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST_F(ConcurrencyStressTest, WokenWorkerFindsQueueTakenByFinishingWorker) {
  // Each producer keeps two tasks in flight, so a submit often pops an
  // idle worker while a busy one is finishing; the finisher takes the task
  // first and the woken worker meets an empty queue and must park again.
  // Afterwards all four workers must still be reachable: four tasks that
  // only finish together prove none was lost from the idle stack. Each
  // such wasted wake counts in scwc_common_pool_wasted_wakes_total.
  const auto wasted = [] {
    return obs::counter_value(obs::MetricsRegistry::global().snapshot(),
                              "scwc_common_pool_wasted_wakes_total");
  };
  const std::uint64_t wasted_before = wasted();
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &executed] {
      std::future<void> previous = pool.submit([] {});
      for (int i = 0; i < 2000; ++i) {
        std::future<void> next = pool.submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
        previous.wait();
        previous = std::move(next);
      }
      previous.wait();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(executed.load(), 4 * 2000);
  EXPECT_GT(wasted(), wasted_before);

  std::atomic<int> arrived{0};
  std::atomic<int> met{0};  // tasks that saw all four running at once
  std::vector<std::future<void>> together;
  for (int i = 0; i < 4; ++i) {
    together.push_back(pool.submit([&arrived, &met] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load(std::memory_order_acquire) < 4) {
        if (std::chrono::steady_clock::now() > give_up) return;
        std::this_thread::yield();
      }
      met.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : together) f.wait();
  EXPECT_EQ(met.load(), 4);
}

// ------------------------------------------------------------------- metrics

TEST_F(ConcurrencyStressTest, RegistryUpdatesRaceSnapshotsAndReset) {
  obs::MetricsRegistry reg;  // fresh instance — no global-state bleed
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Handles are deliberately (re-)acquired inside the loop on some
      // iterations so registration races live updates and snapshots.
      obs::CounterHandle c = reg.counter("stress_total");
      obs::GaugeHandle g = reg.gauge("stress_gauge");
      obs::HistogramHandle h = reg.histogram("stress_seconds");
      for (int i = 0; i < kIters; ++i) {
        if (i % 512 == 0) c = reg.counter("stress_total");
        c.inc();
        g.set(static_cast<double>(i));
        g.add(0.5);
        h.observe(1e-6 * static_cast<double>((t + 1) * (i + 1)));
        if (i % 257 == 0) {
          const obs::MetricsSnapshot snap = reg.snapshot();
          // Monotone while no reset runs concurrently in this test.
          EXPECT_LE(obs::counter_value(snap, "stress_total"),
                    static_cast<std::uint64_t>(kThreads) * kIters);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(obs::counter_value(snap, "stress_total"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count,
            static_cast<std::uint64_t>(kThreads) * kIters);
  reg.reset();
  const obs::MetricsSnapshot zeroed = reg.snapshot();
  EXPECT_EQ(obs::counter_value(zeroed, "stress_total"), 0u);
}

TEST_F(ConcurrencyStressTest, ResetRacesUpdatesWithoutTearing) {
  // reset() concurrent with inc/observe: counts are indeterminate but the
  // run must be race-free and the final reset must zero everything.
  obs::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread resetter([&reg, &stop] {
    while (!stop.load(std::memory_order_acquire)) reg.reset();
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg] {
      obs::CounterHandle c = reg.counter("reset_race_total");
      obs::HistogramHandle h = reg.histogram("reset_race_seconds");
      for (int i = 0; i < 4000; ++i) {
        c.inc();
        h.observe(1e-5);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  resetter.join();
  reg.reset();
  EXPECT_EQ(obs::counter_value(reg.snapshot(), "reset_race_total"), 0u);
}

// --------------------------------------------------------------------- trace

TEST_F(ConcurrencyStressTest, NestedSpansAcrossThreadsAggregateExactly) {
  obs::reset_span_tree();
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        const obs::TraceSpan outer("stress.outer");
        {
          const obs::TraceSpan mid("stress.mid");
          const obs::TraceSpan inner("stress.inner");
        }
        if (i % 64 == 0) {
          // Snapshots race span closure on the other threads.
          (void)obs::span_tree_snapshot();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::SpanStats root = obs::span_tree_snapshot();
  const auto find = [](const obs::SpanStats& node,
                       std::string_view name) -> const obs::SpanStats* {
    for (const obs::SpanStats& c : node.children) {
      if (c.name == name) return &c;
    }
    return nullptr;
  };
  const obs::SpanStats* outer = find(root, "stress.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, static_cast<std::uint64_t>(kThreads) * kIters);
  const obs::SpanStats* mid = find(*outer, "stress.mid");
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->calls, static_cast<std::uint64_t>(kThreads) * kIters);
  const obs::SpanStats* inner = find(*mid, "stress.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, static_cast<std::uint64_t>(kThreads) * kIters);
  obs::reset_span_tree();
}

// ------------------------------------------------------------- parallel ML

/// Tiny 3-class dataset with enough structure for trees to split on.
linalg::Matrix make_features(std::size_t rows, std::size_t cols,
                             std::vector<int>* labels) {
  Rng rng(991);
  linalg::Matrix x(rows, cols);
  labels->resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const int y = static_cast<int>(r % 3);
    (*labels)[r] = y;
    for (std::size_t c = 0; c < cols; ++c) {
      x(r, c) = rng.normal(static_cast<double>(y) * 2.0, 0.6);
    }
  }
  return x;
}

TEST_F(ConcurrencyStressTest, ParallelRfAndGbtTrainingOnSharedDataset) {
  std::vector<int> y;
  const linalg::Matrix x = make_features(90, 5, &y);

  // Serial reference fits first — concurrent fits must match them exactly
  // (forked per-tree RNG streams make results schedule-invariant).
  ml::RandomForestConfig rf_cfg;
  rf_cfg.n_estimators = 12;
  ml::GbtConfig gbt_cfg;
  gbt_cfg.n_rounds = 6;
  gbt_cfg.max_depth = 3;

  ml::RandomForest rf_ref(rf_cfg);
  rf_ref.fit(x, y);
  ml::GradientBoostedTrees gbt_ref(gbt_cfg);
  gbt_ref.fit(x, y);
  const std::vector<int> rf_ref_pred = rf_ref.predict(x);
  const std::vector<int> gbt_ref_pred = gbt_ref.predict(x);

  // Two RF fits and two GBT fits race on four threads, all reading the
  // same x/y, all funnelling tree growth through the shared global pool
  // and the shared metrics/trace singletons.
  std::vector<std::vector<int>> rf_preds(2);
  std::vector<std::vector<int>> gbt_preds(2);
  std::vector<std::thread> trainers;
  for (int i = 0; i < 2; ++i) {
    trainers.emplace_back([&x, &y, &rf_cfg, &rf_preds, i] {
      ml::RandomForest rf(rf_cfg);
      rf.fit(x, y);
      rf_preds[i] = rf.predict(x);
    });
    trainers.emplace_back([&x, &y, &gbt_cfg, &gbt_preds, i] {
      ml::GradientBoostedTrees gbt(gbt_cfg);
      gbt.fit(x, y);
      gbt_preds[i] = gbt.predict(x);
    });
  }
  for (auto& t : trainers) t.join();

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rf_preds[i], rf_ref_pred) << "RF fit " << i << " diverged";
    EXPECT_EQ(gbt_preds[i], gbt_ref_pred) << "GBT fit " << i << " diverged";
  }
}

TEST_F(ConcurrencyStressTest, ParallelForFromManyThreadsOnGlobalPool) {
  // External threads driving parallel_for concurrently — the global pool's
  // queue, condition variable and obs gauges all see multi-producer load.
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<double> sums(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &sums] {
      std::vector<std::atomic<int>> hits(2048);
      parallel_for(0, hits.size(),
                   [&hits](std::size_t i) {
                     hits[i].fetch_add(1, std::memory_order_relaxed);
                   });
      double sum = 0.0;
      for (auto& h : hits) sum += h.load(std::memory_order_relaxed);
      sums[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& t : threads) t.join();
  for (const double s : sums) EXPECT_DOUBLE_EQ(s, 2048.0);
}

// ------------------------------------------------------------------- serving

constexpr std::size_t kServeSteps = 8;
constexpr std::size_t kServeSensors = 3;

/// Cheap serving bundle (tiny forest, covariance features) for the serve
/// stress tests; `seed` differentiates versions' forests.
std::shared_ptr<const serve::ModelBundle> make_serve_bundle(
    const std::string& version, std::uint64_t seed) {
  data::Tensor3 x(45, kServeSteps, kServeSensors);
  std::vector<int> y;
  Rng rng(2024);
  for (std::size_t i = 0; i < x.trials(); ++i) {
    const int label = static_cast<int>(i % 3);
    y.push_back(label);
    for (double& v : x.trial(i)) {
      v = rng.normal(static_cast<double>(label) * 2.0, 0.6);
    }
  }
  serve::RfBundleSpec spec;
  spec.version = version;
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 5;
  spec.forest.seed = seed;
  return serve::train_rf_bundle(spec, x, y);
}

/// One plausible request window (per-thread deterministic).
std::vector<double> make_serve_window(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> window(kServeSteps * kServeSensors);
  for (double& v : window) v = rng.normal(2.0, 1.5);
  return window;
}

TEST_F(ConcurrencyStressTest, ServeBatcherFlushRacesSubmit) {
  // Producers hammer submit() while the flusher cuts batches on a short
  // deadline and a stopper closes the service midway. Every future must
  // resolve exactly once — answered or typed-shed, never hung — and the
  // two outcomes must account for every submitted request.
  serve::ModelRegistry registry;
  registry.register_bundle(make_serve_bundle("stress-v1", 1));
  serve::ServiceConfig config;
  config.assembler.window_steps = kServeSteps;
  config.assembler.sensors = kServeSensors;
  config.batcher.max_batch = 8;
  config.batcher.max_delay_s = 0.0005;
  config.admission.max_pending = 64;  // small enough to see real shedding
  serve::ClassificationService service(registry, config);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::atomic<bool> go{false};
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &go, &answered, &shed, p] {
      const std::vector<double> window =
          make_serve_window(7700 + static_cast<std::uint64_t>(p));
      while (!go.load(std::memory_order_acquire)) {
      }
      // Buffer the futures so the batcher's queue builds real depth (size
      // flushes, admission pressure) instead of lock-stepping one request.
      std::vector<std::future<serve::ServeResult>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futures.push_back(service.submit(std::vector<double>(window),
                                         kServeSteps, kServeSensors));
      }
      for (auto& fut : futures) {
        const serve::ServeResult result = fut.get();
        if (result.accepted) {
          answered.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GE(result.batch_size, 1u);
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
          EXPECT_NE(result.reject_reason, serve::RejectReason::kNone);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Stop midway through the load: queued requests drain, later ones shed
  // with kShutdown, nothing hangs.
  std::thread stopper([&service] { service.stop(); });
  for (auto& t : producers) t.join();
  stopper.join();
  EXPECT_EQ(answered.load() + shed.load(), kProducers * kPerProducer);
}

TEST_F(ConcurrencyStressTest, ServeRegistryHotSwapUnderLoad) {
  // A swapper thread alternates activate()/rollback() between two versions
  // while submitters stream requests. Atomic hot-swap contract: every
  // answered request reports exactly one of the two versions (a batch is
  // never served by a half-swapped model), and the service never fails to
  // answer because a swap was in flight.
  serve::ModelRegistry registry;
  registry.register_bundle(make_serve_bundle("swap-v1", 11));
  registry.register_bundle(make_serve_bundle("swap-v2", 22));
  serve::ServiceConfig config;
  config.assembler.window_steps = kServeSteps;
  config.assembler.sensors = kServeSensors;
  config.batcher.max_batch = 8;
  config.batcher.max_delay_s = 0.0005;
  serve::ClassificationService service(registry, config);

  // State after the two registrations: current == v2, history == [v1].
  // Each swapper iteration rolls back to v1 then re-activates v2, restoring
  // that state exactly — so the loop can spin forever without draining the
  // history, and the registry's counters tick on every pass.
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&registry, &stop_swapping] {
    while (!stop_swapping.load(std::memory_order_acquire)) {
      const auto rolled = registry.rollback();
      if (rolled == nullptr || rolled->version() != "swap-v1") {
        ADD_FAILURE() << "rollback lost the activation history";
        break;
      }
      registry.activate("swap-v2");
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 100;
  std::atomic<int> answered{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&service, &answered, s] {
      const std::vector<double> window =
          make_serve_window(8800 + static_cast<std::uint64_t>(s));
      for (int i = 0; i < kPerSubmitter; ++i) {
        const serve::ServeResult result =
            service
                .submit(std::vector<double>(window), kServeSteps,
                        kServeSensors)
                .get();
        ASSERT_TRUE(result.accepted);
        EXPECT_TRUE(result.model_version == "swap-v1" ||
                    result.model_version == "swap-v2")
            << "half-swapped version: " << result.model_version;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  service.stop();
  EXPECT_EQ(answered.load(), kSubmitters * kPerSubmitter);
}

TEST_F(ConcurrencyStressTest, ServeChaosStressEveryFutureResolves) {
  // The full self-healing stack under seeded machinery faults, with every
  // shared structure racing at once: the armed ChaosInjector stalls the
  // flusher, delays/drops batches and spikes predicts; a swap thread pushes
  // (mostly corrupted) bundle bytes through try_swap_from_bytes against
  // live classification; a starver floods the pool; the HealthMonitor and
  // FallbackChain transition under fire. The contract under ALL of it is
  // the same as ever: every future resolves exactly once, answered or
  // typed-shed — 100 % availability, no hangs, no TSan reports.
  serve::ModelRegistry registry;
  registry.register_bundle(make_serve_bundle("chaos-v1", 31));
  registry.register_bundle(make_serve_bundle("chaos-fb", 32),
                           /*activate=*/false);

  serve::ChaosProfile profile = serve::ChaosProfile::at_severity(0.3);
  profile.flusher_stall_s = 0.002;  // keep the stress wall-clock tight
  profile.batch_delay_s = 0.001;
  profile.predict_spike_s = 0.002;
  profile.starve_task_s = 0.002;
  serve::ChaosInjector chaos(profile, 20260808);

  ThreadPool pool(4);
  serve::ServiceConfig config;
  config.assembler.window_steps = kServeSteps;
  config.assembler.sensors = kServeSensors;
  config.batcher.max_batch = 8;
  config.batcher.max_delay_s = 0.0005;
  config.admission.max_pending = 64;
  config.default_deadline_s = 0.05;
  config.health.enabled = true;
  config.health.window_s = 5.0;
  config.health.window_slots = 10;
  config.health.min_samples = 8;
  config.health.max_p99_s = 0.02;
  config.health.max_shed_rate = 0.5;
  config.health.max_model_errors = 4;
  config.health.open_cooldown_s = 0.02;
  config.health.half_open_probes = 2;
  config.health.fallback_version = "chaos-fb";
  config.chaos = &chaos;
  serve::ClassificationService service(registry, config, &pool);

  // Bundle bytes the swap thread replays (corrupting most attempts).
  ByteWriter serialized;
  serve::save_bundle(*make_serve_bundle("chaos-swap", 33), serialized);
  const std::string bundle_bytes = serialized.take();

  chaos.set_armed(true);
  std::atomic<bool> stop_aux{false};
  std::thread swapper([&registry, &chaos, &bundle_bytes, &stop_aux] {
    while (!stop_aux.load(std::memory_order_acquire)) {
      std::vector<char> bytes(bundle_bytes.begin(), bundle_bytes.end());
      (void)chaos.on_swap_bytes(bytes);  // usually flips one bit
      // Either a complete swap or a counted, registry-preserving refusal
      // (duplicate version after the first success also refuses cleanly).
      (void)serve::try_swap_from_bytes(
          registry, std::string_view(bytes.data(), bytes.size()));
      std::this_thread::yield();
    }
  });
  std::thread starver([&pool, &chaos, &stop_aux] {
    while (!stop_aux.load(std::memory_order_acquire)) {
      chaos.starve(pool);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &answered, &shed, p] {
      const std::vector<double> window =
          make_serve_window(9900 + static_cast<std::uint64_t>(p));
      std::vector<std::future<serve::ServeResult>> futures;
      futures.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futures.push_back(service.submit(std::vector<double>(window),
                                         kServeSteps, kServeSensors));
      }
      for (auto& fut : futures) {
        const serve::ServeResult result = fut.get();
        if (result.accepted) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
          EXPECT_NE(result.reject_reason, serve::RejectReason::kNone);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop_aux.store(true, std::memory_order_release);
  swapper.join();
  starver.join();
  chaos.set_armed(false);
  service.stop();

  EXPECT_EQ(answered.load() + shed.load(), kProducers * kPerProducer);
  EXPECT_GT(chaos.counts().total(), 0u);  // the chaos actually fired
}

}  // namespace
}  // namespace scwc
