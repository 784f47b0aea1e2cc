// Unit tests of the online serving subsystem (src/serve/): streaming
// window assembly, micro-batching, the model registry with hot-swap and
// rollback, bundle persistence, admission control, and the end-to-end
// batched == single-request invariant of the ClassificationService.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/window.hpp"
#include "obs/metrics.hpp"
#include "robust/fault.hpp"
#include "robust/robust_window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"

namespace scwc {
namespace {

constexpr std::size_t kSteps = 12;
constexpr std::size_t kSensors = 3;

/// Deterministic 3-class training world + a fitted RF bundle, built once —
/// forest training is the expensive part of this suite.
struct TinyWorld {
  data::Tensor3 x{90, kSteps, kSensors};
  std::vector<int> y;
  std::shared_ptr<const serve::ModelBundle> bundle;
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
    spec.version = "tiny-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 8;
    w.bundle = serve::train_rf_bundle(spec, w.x, w.y);
    return w;
  }();
  return world;
}

/// A second, distinguishable bundle (different seed → different forest).
std::shared_ptr<const serve::ModelBundle> make_v2_bundle() {
  const TinyWorld& w = tiny_world();
  serve::RfBundleSpec spec;
  spec.version = "tiny-v2";
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 8;
  spec.forest.seed = 99991;
  return serve::train_rf_bundle(spec, w.x, w.y);
}

/// Stream whose sample at step t is {t, 10t, 100t} — window contents are
/// predictable from the start offset.
std::vector<double> ramp_row(std::size_t t) {
  const auto v = static_cast<double>(t);
  return {v, 10.0 * v, 100.0 * v};
}

// ------------------------------------------------------------ WindowAssembler

TEST(WindowAssembler, TumblingWindowsCloseExactlyAtBoundaries) {
  serve::WindowAssembler assembler({kSteps, kSensors});
  std::size_t closed = 0;
  for (std::size_t t = 0; t < 3 * kSteps; ++t) {
    const auto out = assembler.push(7, ramp_row(t));
    if ((t + 1) % kSteps == 0) {
      ASSERT_EQ(out.size(), 1u) << "window must close at step " << t;
      EXPECT_EQ(out[0].job_id, 7);
      EXPECT_EQ(out[0].start_step, closed * kSteps);
      EXPECT_EQ(out[0].values.size(), kSteps * kSensors);
      EXPECT_EQ(out[0].extraction.truncated_steps, 0u);
      // First value of the window is the ramp at its start step.
      const double expected = static_cast<double>(closed * kSteps);
      EXPECT_TRUE(std::memcmp(out[0].values.data(), &expected,
                              sizeof(double)) == 0);
      ++closed;
    } else {
      EXPECT_TRUE(out.empty());
    }
  }
  EXPECT_EQ(closed, 3u);
  EXPECT_EQ(assembler.active_jobs(), 1u);
}

TEST(WindowAssembler, OverlappingStrideEmitsSharedSuffixWindows) {
  serve::WindowAssemblerConfig config{kSteps, kSensors};
  config.stride_steps = 4;  // 8-step overlap between consecutive windows
  serve::WindowAssembler assembler(config);
  std::vector<serve::AssembledWindow> all;
  for (std::size_t t = 0; t < kSteps + 8; ++t) {
    auto out = assembler.push(1, ramp_row(t));
    for (auto& w : out) all.push_back(std::move(w));
  }
  ASSERT_EQ(all.size(), 3u);  // starts 0, 4, 8 all closed by step 19
  for (std::size_t k = 0; k < all.size(); ++k) {
    EXPECT_EQ(all[k].start_step, 4 * k);
    // Window k starts on the ramp value of its start step.
    const std::vector<double> expected = ramp_row(4 * k);
    EXPECT_TRUE(std::memcmp(all[k].values.data(), expected.data(),
                            kSensors * sizeof(double)) == 0);
  }
}

TEST(WindowAssembler, FinishEmitsNaNPaddedPartialAndDropsJob) {
  serve::WindowAssembler assembler({kSteps, kSensors});
  for (std::size_t t = 0; t < kSteps + 5; ++t) {
    (void)assembler.push(3, ramp_row(t));
  }
  const auto out = assembler.finish(3);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].start_step, kSteps);
  EXPECT_EQ(out[0].extraction.truncated_steps, kSteps - 5);
  // The 5 buffered steps are real, the padded tail is NaN.
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t s = 0; s < kSensors; ++s) {
      const double v = out[0].values[t * kSensors + s];
      if (t < 5) {
        EXPECT_TRUE(std::isfinite(v));
      } else {
        EXPECT_TRUE(std::isnan(v));
      }
    }
  }
  EXPECT_EQ(assembler.active_jobs(), 0u);
  EXPECT_TRUE(assembler.finish(3).empty());  // unknown job now
}

TEST(WindowAssembler, FinishBelowMinPartialStepsEmitsNothing) {
  serve::WindowAssemblerConfig config{kSteps, kSensors};
  config.min_partial_steps = 6;
  serve::WindowAssembler assembler(config);
  for (std::size_t t = 0; t < 5; ++t) (void)assembler.push(9, ramp_row(t));
  EXPECT_TRUE(assembler.finish(9).empty());
  EXPECT_EQ(assembler.active_jobs(), 0u);
}

TEST(WindowAssembler, JobsAssembleIndependently) {
  serve::WindowAssembler assembler({kSteps, kSensors});
  // Interleave two jobs with different phase; each closes on its own count.
  for (std::size_t t = 0; t < kSteps; ++t) {
    EXPECT_TRUE(assembler.push(1, ramp_row(t)).empty() || t == kSteps - 1);
    if (t % 2 == 0) {
      EXPECT_TRUE(assembler.push(2, ramp_row(100 + t)).empty());
    }
  }
  EXPECT_EQ(assembler.stream_steps(1), kSteps);
  EXPECT_EQ(assembler.stream_steps(2), kSteps / 2);
  EXPECT_EQ(assembler.active_jobs(), 2u);
}

TEST(WindowAssembler, CleanStreamWindowMatchesCleanExtractionBitForBit) {
  // On a complete stream the assembler's robust extraction must reproduce
  // data::extract_window exactly (same invariant the robust layer holds).
  telemetry::TimeSeries series;
  series.sample_hz = 1.0;
  series.values = linalg::Matrix(kSteps, kSensors);
  Rng rng(77);
  for (double& v : series.values.flat()) v = rng.uniform(-3.0, 3.0);

  serve::WindowAssembler assembler({kSteps, kSensors});
  const auto out =
      assembler.push_block(5, series.values.flat());
  ASSERT_EQ(out.size(), 1u);
  std::vector<double> reference(kSteps * kSensors);
  data::extract_window(series, 0, kSteps, reference);
  EXPECT_TRUE(std::memcmp(out[0].values.data(), reference.data(),
                          reference.size() * sizeof(double)) == 0);
}

TEST(WindowAssembler, RejectsMisalignedBlocksAndZeroGeometry) {
  serve::WindowAssembler assembler({kSteps, kSensors});
  const std::vector<double> bad(kSensors + 1, 0.0);
  EXPECT_THROW((void)assembler.push_block(1, bad), Error);
  EXPECT_THROW(serve::WindowAssembler({0, kSensors}), Error);
  EXPECT_THROW(serve::WindowAssembler({kSteps, 0}), Error);
}

// --------------------------------------------------------------- MicroBatcher

TEST(MicroBatcher, SizeBoundFlushesFullBatchImmediately) {
  std::mutex mu;
  std::vector<std::size_t> batch_sizes;
  serve::MicroBatcherConfig config;
  config.max_batch = 4;
  config.max_delay_s = 60.0;  // deadline effectively off
  serve::MicroBatcher batcher(
      config, [&](std::vector<serve::BatchRequest>&& batch) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          batch_sizes.push_back(batch.size());
        }
        for (auto& r : batch) r.promise.set_value(serve::ServeResult{});
      });
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < 8; ++i) {
    serve::BatchRequest request;
    request.steps = kSteps;
    request.sensors = kSensors;
    futures.push_back(request.promise.get_future());
    ASSERT_TRUE(batcher.submit(std::move(request)));
  }
  for (auto& f : futures) (void)f.get();
  batcher.stop();
  const std::lock_guard<std::mutex> lock(mu);
  std::size_t total = 0;
  for (const std::size_t n : batch_sizes) {
    EXPECT_LE(n, config.max_batch);
    total += n;
  }
  EXPECT_EQ(total, 8u);
}

TEST(MicroBatcher, DeadlineFlushesPartialBatch) {
  serve::MicroBatcherConfig config;
  config.max_batch = 1000;     // size bound never reached
  config.max_delay_s = 0.002;  // 2 ms deadline does the flushing
  std::promise<std::size_t> seen;
  serve::MicroBatcher batcher(
      config, [&](std::vector<serve::BatchRequest>&& batch) {
        seen.set_value(batch.size());
        for (auto& r : batch) r.promise.set_value(serve::ServeResult{});
      });
  serve::BatchRequest request;
  std::future<serve::ServeResult> f = request.promise.get_future();
  ASSERT_TRUE(batcher.submit(std::move(request)));
  EXPECT_EQ(seen.get_future().get(), 1u);  // flushed alone, by deadline
  (void)f.get();
  batcher.stop();
}

TEST(MicroBatcher, StopFlushesQueuedRequestsAndRejectsNewOnes) {
  serve::MicroBatcherConfig config;
  config.max_batch = 100;
  config.max_delay_s = 60.0;
  std::atomic<std::size_t> served{0};
  serve::MicroBatcher batcher(
      config, [&](std::vector<serve::BatchRequest>&& batch) {
        served.fetch_add(batch.size());
        for (auto& r : batch) r.promise.set_value(serve::ServeResult{});
      });
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < 5; ++i) {
    serve::BatchRequest request;
    futures.push_back(request.promise.get_future());
    ASSERT_TRUE(batcher.submit(std::move(request)));
  }
  batcher.stop();  // must drain the 5 queued requests through the runner
  EXPECT_EQ(served.load(), 5u);
  for (auto& f : futures) (void)f.get();
  serve::BatchRequest late;
  EXPECT_FALSE(batcher.submit(std::move(late)));
}

TEST(MicroBatcher, EarlierDeadlineArrivingMidWaitIsShedOnTime) {
  // A arrives first with no deadline, so the flusher waits out max_delay_s
  // (500 ms). B arrives mid-wait with a 20 ms deadline; the flusher must
  // wake for it and shed it near 20 ms, not after A's 500 ms.
  using Clock = std::chrono::steady_clock;
  serve::MicroBatcherConfig config;
  config.max_batch = 100;
  config.max_delay_s = 0.5;
  serve::MicroBatcher batcher(
      config,
      [](std::vector<serve::BatchRequest>&& batch) {
        for (auto& r : batch) r.promise.set_value(serve::ServeResult{});
      },
      [](serve::BatchRequest&& request) {
        serve::ServeResult shed;
        shed.reject_reason = serve::RejectReason::kDeadlineExceeded;
        request.promise.set_value(shed);
      });
  serve::BatchRequest a;
  std::future<serve::ServeResult> fa = a.promise.get_future();
  ASSERT_TRUE(batcher.submit(std::move(a)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::BatchRequest b;
  b.deadline = Clock::now() + std::chrono::milliseconds(20);
  std::future<serve::ServeResult> fb = b.promise.get_future();
  ASSERT_TRUE(batcher.submit(std::move(b)));
  ASSERT_EQ(fb.wait_for(std::chrono::milliseconds(250)),
            std::future_status::ready);
  EXPECT_EQ(fb.get().reject_reason, serve::RejectReason::kDeadlineExceeded);
  (void)fa.get();
  batcher.stop();
}

TEST(MicroBatcher, OneSubmitterWakesTheFlusherAtMostTwicePerBatch) {
  // The flusher needs two wakes per batch: the first request and the one
  // that fills it. Waking it on every submit would give about 16.
  const auto wakeups = [] {
    return obs::counter_value(obs::MetricsRegistry::global().snapshot(),
                              "scwc_serve_batch_flusher_wakeups_total");
  };
  serve::MicroBatcherConfig config;
  config.max_batch = 16;
  config.max_delay_s = 60.0;  // only the size bound flushes
  serve::MicroBatcher batcher(
      config, [](std::vector<serve::BatchRequest>&& batch) {
        for (auto& r : batch) r.promise.set_value(serve::ServeResult{});
      });
  const std::uint64_t before = wakeups();
  std::vector<std::future<serve::ServeResult>> futures;
  std::thread submitter([&] {
    for (std::size_t i = 0; i < config.max_batch; ++i) {
      serve::BatchRequest request;
      futures.push_back(request.promise.get_future());
      ASSERT_TRUE(batcher.submit(std::move(request)));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  submitter.join();
  for (auto& f : futures) (void)f.get();
  EXPECT_LE(wakeups() - before, 3u);
  batcher.stop();
}

// -------------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, RegisterActivateSwapRollback) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.rollback(), nullptr);  // no history yet

  const auto v1 = tiny_world().bundle;
  const auto v2 = make_v2_bundle();
  registry.register_bundle(v1);
  EXPECT_EQ(registry.current()->version(), "tiny-v1");
  registry.register_bundle(v2);  // activate defaults true → hot-swap
  EXPECT_EQ(registry.current()->version(), "tiny-v2");

  const auto rolled = registry.rollback();
  ASSERT_NE(rolled, nullptr);
  EXPECT_EQ(rolled->version(), "tiny-v1");
  EXPECT_EQ(registry.current()->version(), "tiny-v1");

  registry.activate("tiny-v2");
  EXPECT_EQ(registry.current()->version(), "tiny-v2");
  EXPECT_THROW(registry.activate("nope"), Error);
  EXPECT_EQ(registry.get("nope"), nullptr);
  EXPECT_EQ(registry.get("tiny-v1"), v1);
  EXPECT_EQ(registry.versions(),
            (std::vector<std::string>{"tiny-v1", "tiny-v2"}));
}

TEST(ModelRegistry, RegisterWithoutActivateLeavesCurrentAlone) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  registry.register_bundle(make_v2_bundle(), /*activate=*/false);
  EXPECT_EQ(registry.current()->version(), "tiny-v1");
  EXPECT_THROW(registry.register_bundle(tiny_world().bundle), Error);
}

// ------------------------------------------------------------------ bundle_io

std::string saved(const serve::ModelBundle& bundle) {
  ByteWriter w;
  serve::save_bundle(bundle, w);
  return w.take();
}

std::shared_ptr<const serve::ModelBundle> loaded_from(std::string_view bytes) {
  ByteReader r(bytes, "load_bundle");
  return serve::load_bundle(r);
}

TEST(BundleIo, RoundTripPreservesVersionConfigAndPredictions) {
  const TinyWorld& w = tiny_world();
  const auto loaded = loaded_from(saved(*w.bundle));

  EXPECT_EQ(loaded->version(), w.bundle->version());
  EXPECT_EQ(loaded->guard_config().window_steps, kSteps);
  EXPECT_EQ(loaded->guard_config().sensors, kSensors);
  EXPECT_EQ(loaded->guard_config().fallback_label,
            w.bundle->guard_config().fallback_label);

  // Every training window, and FaultInjector-damaged copies of the first
  // 24 at severities 0 to 1 (fixed seeds), classifies identically through
  // both bundles: the same verdict, abstain reason and quality report.
  const std::vector<double> severities = {0.0, 0.25, 0.5, 0.75, 1.0};
  data::Tensor3 batch(w.x.trials() + 24 * severities.size(), kSteps,
                      kSensors);
  std::copy(w.x.raw().begin(), w.x.raw().end(), batch.raw().begin());
  std::size_t row = w.x.trials();
  for (const double severity : severities) {
    const robust::FaultInjector injector(
        robust::FaultProfile::at_severity(severity));
    for (std::size_t i = 0; i < 24; ++i) {
      telemetry::TimeSeries series;
      series.sample_hz = 1.0;
      series.values = w.x.trial_matrix(i);
      Rng rng(0xB0D1EULL + 7 * i);
      injector.corrupt(series, rng);
      (void)robust::robust_extract_window(series, 0, kSteps,
                                          batch.trial(row++));
    }
  }
  const std::vector<robust::GuardedPrediction> a =
      w.bundle->guard().classify_batch(batch);
  const std::vector<robust::GuardedPrediction> b =
      loaded->guard().classify_batch(batch);
  ASSERT_EQ(a.size(), batch.trials());
  ASSERT_EQ(a.size(), b.size());
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].abstained, b[i].abstained);
    EXPECT_EQ(a[i].reason, b[i].reason);
    const robust::QualityReport& ra = a[i].report;
    const robust::QualityReport& rb = b[i].report;
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.sensors, rb.sensors);
    EXPECT_EQ(ra.missing_values, rb.missing_values);
    EXPECT_EQ(ra.missing_steps, rb.missing_steps);
    EXPECT_EQ(ra.dead_sensors, rb.dead_sensors);
    EXPECT_EQ(ra.truncated_steps, rb.truncated_steps);
    EXPECT_EQ(ra.repaired_values, rb.repaired_values);
    EXPECT_EQ(ra.shape_ok, rb.shape_ok);
    if (ra.missing_values > 0) ++damaged;
  }
  EXPECT_GT(damaged, 0u) << "the faulted windows must carry damage";
}

TEST(BundleIo, RejectsGarbageAndTruncation) {
  EXPECT_THROW(
      (void)loaded_from("this is not a bundle at all, not even close"),
      Error);

  const std::string full = saved(*tiny_world().bundle);
  EXPECT_THROW((void)loaded_from(full.substr(0, full.size() / 2)), Error);
  EXPECT_THROW((void)loaded_from(""), Error);
}

/// A deliberately small serialised bundle (one shallow tree) so the fuzz
/// loops below can afford a load attempt per byte offset.
std::string tiny_serialized_bundle() {
  static const std::string bytes = [] {
    const TinyWorld& w = tiny_world();
    serve::RfBundleSpec spec;
    spec.version = "fuzz-v1";
    spec.pipeline = {preprocess::Reduction::kCovariance, 0};
    spec.forest.n_estimators = 1;
    spec.forest.tree.max_depth = 3;
    const auto bundle = serve::train_rf_bundle(spec, w.x, w.y);
    return saved(*bundle);
  }();
  return bytes;
}

TEST(BundleIo, FuzzByteFlipAtEveryOffsetFailsTypedOrLoadsClean) {
  const std::string full = tiny_serialized_bundle();
  ASSERT_FALSE(full.empty());
  data::Tensor3 window(1, kSteps, kSensors);
  const auto first = tiny_world().x.trial(0);
  std::copy(first.begin(), first.end(), window.trial(0).begin());
  std::size_t rejected = 0;
  for (std::size_t offset = 0; offset < full.size(); ++offset) {
    std::string corrupted = full;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^ 0xA5U);
    // The contract: every single-byte corruption either still parses into
    // a working bundle (flip landed in a benign double) or throws a typed
    // scwc::Error — never a crash, never an unbounded allocation, never
    // any other exception type.
    try {
      const auto bundle = loaded_from(corrupted);
      ASSERT_NE(bundle, nullptr) << "offset " << offset;
      // A bundle that loads must also serve a window: any out-of-bounds
      // read the load let through shows up here under ASan.
      EXPECT_EQ(bundle->guard().classify_batch(window).size(), 1u)
          << "offset " << offset;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // The structural prefix (magic, lengths, enums, geometry) must actually
  // reject; if nothing ever threw the checks are dead code.
  EXPECT_GT(rejected, 0u);
}

TEST(BundleIo, RejectsForestWiderThanThePipelineOutput) {
  // A forest that splits on feature 6+ next to a pipeline producing 6
  // covariance features would read past every feature row it is given.
  const auto& base = *tiny_world().bundle;
  constexpr std::size_t kWide = 10;
  linalg::Matrix x(60, kWide);  // columns below 6 constant: never split on
  std::vector<int> y(60);
  Rng rng(17);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = static_cast<int>(r % 3);
    for (std::size_t c = 6; c < kWide; ++c) {
      x(r, c) = static_cast<double>(y[r]) + rng.normal(0.0, 0.3);
    }
  }
  ml::RandomForestConfig config;
  config.n_estimators = 4;
  auto forest = std::make_unique<ml::RandomForest>(config);
  forest->fit(x, y);
  ASSERT_GT(forest->input_width(), base.pipeline().output_dim());
  const serve::ModelBundle wide("wide-v1", base.pipeline(), std::move(forest),
                                base.guard_config());
  EXPECT_THROW((void)loaded_from(saved(wide)), Error);
}

TEST(BundleIo, FuzzTruncationAtEveryOffsetThrowsTyped) {
  const std::string full = tiny_serialized_bundle();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    EXPECT_THROW((void)loaded_from(full.substr(0, keep)), Error)
        << "kept " << keep;
  }
}

TEST(BundleIo, TrySwapNeverLeavesPartialRegistryState) {
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.bundle);
  const std::string full = tiny_serialized_bundle();

  // Corrupting any byte must refuse the swap and leave the registry
  // exactly as it was — same current bundle, same version list.
  for (std::size_t offset = 0; offset < full.size();
       offset += 7) {  // stride: the per-offset contract is proven above
    std::string corrupted = full;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^ 0xFFU);
    const auto swapped = serve::try_swap_from_bytes(registry, corrupted);
    if (swapped == nullptr) {
      EXPECT_EQ(registry.current()->version(), "tiny-v1") << offset;
      EXPECT_EQ(registry.versions().size(), 1u) << offset;
    } else {
      // Benign flip (e.g. inside the version string's own bytes): the load
      // produced a usable bundle and the swap is COMPLETE — current is the
      // loaded bundle, never a half-registered state. Undo and stop here.
      EXPECT_EQ(registry.current()->version(), swapped->version());
      EXPECT_EQ(registry.versions().size(), 2u);
      EXPECT_NE(registry.rollback(), nullptr);
      EXPECT_EQ(registry.current()->version(), "tiny-v1");
      break;  // one successful swap is enough to prove the branch
    }
  }

  // An uncorrupted stream swaps atomically.
  serve::ModelRegistry fresh;
  fresh.register_bundle(w.bundle);
  const auto swapped = serve::try_swap_from_bytes(fresh, full);
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(fresh.current()->version(), "fuzz-v1");
  EXPECT_NE(fresh.rollback(), nullptr);
  EXPECT_EQ(fresh.current()->version(), "tiny-v1");
}

// ------------------------------------------------------------------ admission

TEST(AdmissionController, TypedRejectionsPerBound) {
  ThreadPool pool(1);
  serve::AdmissionConfig config;
  config.max_pending = 2;
  config.max_executor_queue = 0;  // pool never accepts a batch
  serve::AdmissionController admission(pool, config);

  EXPECT_EQ(admission.admit_request(0), serve::RejectReason::kNone);
  EXPECT_EQ(admission.admit_request(1), serve::RejectReason::kNone);
  EXPECT_EQ(admission.admit_request(2), serve::RejectReason::kQueueFull);
  EXPECT_EQ(admission.dispatch([] {}), serve::RejectReason::kExecutor);

  admission.close();
  EXPECT_EQ(admission.admit_request(0), serve::RejectReason::kShutdown);
  EXPECT_EQ(admission.dispatch([] {}), serve::RejectReason::kShutdown);
  pool.stop();
}

TEST(AdmissionController, StoppedPoolRejectsAsShutdown) {
  ThreadPool pool(1);
  pool.stop();
  serve::AdmissionController admission(pool, {});
  EXPECT_EQ(admission.dispatch([] {}), serve::RejectReason::kShutdown);
}

TEST(ServeTypes, RejectReasonNamesAreStable) {
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kNone), "none");
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kQueueFull),
               "queue_full");
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kExecutor),
               "executor");
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kShutdown),
               "shutdown");
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kNoModel),
               "no_model");
  EXPECT_STREQ(
      serve::reject_reason_name(serve::RejectReason::kDeadlineExceeded),
      "deadline");
  EXPECT_STREQ(serve::reject_reason_name(serve::RejectReason::kInternal),
               "internal");
}

TEST(ServeTypes, RetryableCoversTransientReasonsOnly) {
  EXPECT_TRUE(serve::retryable(serve::RejectReason::kQueueFull));
  EXPECT_TRUE(serve::retryable(serve::RejectReason::kExecutor));
  EXPECT_TRUE(serve::retryable(serve::RejectReason::kInternal));
  EXPECT_FALSE(serve::retryable(serve::RejectReason::kNone));
  EXPECT_FALSE(serve::retryable(serve::RejectReason::kShutdown));
  EXPECT_FALSE(serve::retryable(serve::RejectReason::kNoModel));
  EXPECT_FALSE(serve::retryable(serve::RejectReason::kDeadlineExceeded));
}

// -------------------------------------------------------------------- service

serve::ServiceConfig tiny_service_config() {
  serve::ServiceConfig config;
  config.assembler.window_steps = kSteps;
  config.assembler.sensors = kSensors;
  config.batcher.max_batch = 16;
  config.batcher.max_delay_s = 0.002;
  return config;
}

TEST(ClassificationService, BatchedResultsEqualSingleRequestResults) {
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.bundle);
  serve::ClassificationService service(registry, tiny_service_config());

  // Clean windows, FaultInjector-damaged windows at severities 0.5 and 1
  // and one odd-geometry request, in one burst so the batcher coalesces
  // them. Execution repairs each request's buffer in place, so the
  // originals are kept here for the single-window reference.
  struct Sent {
    std::vector<double> window;
    std::size_t steps = kSteps;
    std::size_t sensors = kSensors;
  };
  std::vector<Sent> sent;
  for (std::size_t i = 0; i < 48; ++i) {
    const auto src = w.x.trial(i % w.x.trials());
    sent.push_back({{src.begin(), src.end()}});
  }
  for (const double severity : {0.5, 1.0}) {
    const robust::FaultInjector injector(
        robust::FaultProfile::at_severity(severity));
    for (std::size_t i = 0; i < 24; ++i) {
      telemetry::TimeSeries series;
      series.sample_hz = 1.0;
      series.values = w.x.trial_matrix(i);
      Rng rng(0xDA3AULL + 7 * i);
      injector.corrupt(series, rng);
      Sent damaged;
      damaged.window.resize(kSteps * kSensors);
      (void)robust::robust_extract_window(series, 0, kSteps, damaged.window);
      sent.insert(sent.begin() + static_cast<std::ptrdiff_t>(3 * i + 1),
                  std::move(damaged));
    }
  }
  sent.insert(sent.begin() + 20, Sent{std::vector<double>(5 * 2, 1.0), 5, 2});

  std::vector<std::future<serve::ServeResult>> futures;
  for (const Sent& request : sent) {
    futures.push_back(
        service.submit(request.window, request.steps, request.sensors));
  }
  std::size_t repaired = 0, shape = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const serve::ServeResult result = futures[i].get();
    ASSERT_TRUE(result.accepted) << "request " << i;
    EXPECT_EQ(result.model_version, "tiny-v1");
    EXPECT_GE(result.batch_size, 1u);
    const robust::GuardedPrediction single = w.bundle->guard().classify(
        sent[i].window, sent[i].steps, sent[i].sensors);
    const robust::GuardedPrediction& got = result.prediction;
    EXPECT_EQ(got.label, single.label) << "request " << i;
    EXPECT_EQ(got.abstained, single.abstained) << "request " << i;
    EXPECT_EQ(got.reason, single.reason) << "request " << i;
    EXPECT_EQ(got.report.missing_values, single.report.missing_values)
        << "request " << i;
    EXPECT_EQ(got.report.repaired_values, single.report.repaired_values)
        << "request " << i;
    if (got.report.repaired_values > 0) ++repaired;
    if (got.reason == robust::AbstainReason::kShape) ++shape;
  }
  EXPECT_GT(repaired, 0u) << "the burst must carry damaged windows";
  EXPECT_EQ(shape, 1u);
  service.stop();
}

TEST(ClassificationService, OddGeometryRequestAbstainsWithShape) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ClassificationService service(registry, tiny_service_config());
  std::vector<double> wrong(5 * 2, 0.0);
  const serve::ServeResult result =
      service.submit(std::move(wrong), 5, 2).get();
  ASSERT_TRUE(result.accepted);
  EXPECT_TRUE(result.prediction.abstained);
  EXPECT_EQ(result.prediction.reason, robust::AbstainReason::kShape);
  service.stop();
}

TEST(ClassificationService, EmptyRegistryShedsWithNoModel) {
  serve::ModelRegistry registry;
  serve::ClassificationService service(registry, tiny_service_config());
  const serve::ServeResult result =
      service.submit(std::vector<double>(kSteps * kSensors, 0.0), kSteps,
                     kSensors)
          .get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kNoModel);
  service.stop();
}

TEST(ClassificationService, ZeroPendingBoundShedsWithQueueFull) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ServiceConfig config = tiny_service_config();
  config.admission.max_pending = 0;
  serve::ClassificationService service(registry, config);
  const serve::ServeResult result =
      service.submit(std::vector<double>(kSteps * kSensors, 0.0), kSteps,
                     kSensors)
          .get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kQueueFull);
  service.stop();
}

TEST(ClassificationService, ZeroExecutorBoundShedsWithExecutor) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ServiceConfig config = tiny_service_config();
  config.admission.max_executor_queue = 0;  // pool refuses every batch
  serve::ClassificationService service(registry, config);
  const serve::ServeResult result =
      service.submit(std::vector<double>(kSteps * kSensors, 0.0), kSteps,
                     kSensors)
          .get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kExecutor);
  service.stop();
}

TEST(ClassificationService, SubmitAfterStopShedsWithShutdown) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ClassificationService service(registry, tiny_service_config());
  service.stop();
  const serve::ServeResult result =
      service.submit(std::vector<double>(kSteps * kSensors, 0.0), kSteps,
                     kSensors)
          .get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kShutdown);
}

TEST(ClassificationService, StreamingIngestClassifiesClosedWindows) {
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.bundle);
  serve::ClassificationService service(registry, tiny_service_config());

  // Stream one training trial's window; its prediction must match the
  // direct guarded classification of the same values.
  const auto src = w.x.trial(4);
  std::vector<serve::PendingWindow> pending;
  for (std::size_t t = 0; t < kSteps; ++t) {
    auto out = service.ingest_block(
        42, std::span<const double>(src).subspan(t * kSensors, kSensors));
    for (auto& p : out) pending.push_back(std::move(p));
  }
  auto tail = service.finish_job(42);
  for (auto& p : tail) pending.push_back(std::move(p));

  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].job_id, 42);
  EXPECT_EQ(pending[0].start_step, 0u);
  const serve::ServeResult result = pending[0].result.get();
  ASSERT_TRUE(result.accepted);
  const robust::GuardedPrediction direct =
      w.bundle->guard().classify(src, kSteps, kSensors);
  EXPECT_EQ(result.prediction.label, direct.label);
  EXPECT_EQ(result.prediction.abstained, direct.abstained);
  service.stop();
}

TEST(ClassificationService, AllNaNWindowAbstainsOnQualityNotCrash) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ClassificationService service(registry, tiny_service_config());
  std::vector<double> window(kSteps * kSensors,
                             std::numeric_limits<double>::quiet_NaN());
  const serve::ServeResult result =
      service.submit(std::move(window), kSteps, kSensors).get();
  ASSERT_TRUE(result.accepted);
  EXPECT_TRUE(result.prediction.abstained);
  EXPECT_EQ(result.prediction.reason, robust::AbstainReason::kQuality);
  service.stop();
}

// ------------------------------------------------------------------ deadlines

TEST(ClassificationService, ExpiredDeadlineShedsAtEnqueue) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ClassificationService service(registry, tiny_service_config());
  // A deadline already in the past must be rejected before it wastes queue
  // space — checkpoint 1 of 3.
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const serve::ServeResult result =
      service
          .submit(std::vector<double>(kSteps * kSensors, 0.0), kSteps,
                  kSensors, past)
          .get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kDeadlineExceeded);
  service.stop();
}

TEST(ClassificationService, DeadlineExpiringInQueueShedsAtBatchCapture) {
  serve::ModelRegistry registry;
  registry.register_bundle(tiny_world().bundle);
  serve::ServiceConfig config = tiny_service_config();
  // Flush far later than the deadline: the request MUST expire while
  // queued, and the deadline-aware flusher wait must still resolve it
  // promptly (checkpoint 2 of 3) instead of after max_delay.
  config.batcher.max_delay_s = 0.25;
  config.batcher.max_batch = 64;
  serve::ClassificationService service(registry, config);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  auto future = service.submit(std::vector<double>(kSteps * kSensors, 0.0),
                               kSteps, kSensors, deadline);
  // Well before max_delay_s the future must already be resolved.
  ASSERT_EQ(future.wait_for(std::chrono::milliseconds(150)),
            std::future_status::ready);
  const serve::ServeResult result = future.get();
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, serve::RejectReason::kDeadlineExceeded);
  service.stop();
}

TEST(ClassificationService, GenerousDeadlineAnswersNormally) {
  const TinyWorld& w = tiny_world();
  serve::ModelRegistry registry;
  registry.register_bundle(w.bundle);
  serve::ServiceConfig config = tiny_service_config();
  config.default_deadline_s = 5.0;  // never binds in a healthy run
  serve::ClassificationService service(registry, config);
  const auto src = w.x.trial(3);
  const serve::ServeResult result =
      service.submit({src.begin(), src.end()}, kSteps, kSensors).get();
  ASSERT_TRUE(result.accepted);
  EXPECT_EQ(result.degrade_level, 0);
  EXPECT_EQ(result.prediction.label,
            w.bundle->guard().classify(src, kSteps, kSensors).label);
  service.stop();
}

TEST(ClassificationService, StopRacingDeadlineExpiryResolvesEveryFuture) {
  // Regression for the stop-during-flush silent-failure edge: requests
  // whose deadline expires exactly while stop() drains the batcher must
  // still be resolved (with kDeadlineExceeded or kShutdown), never leaked.
  for (int round = 0; round < 10; ++round) {
    serve::ModelRegistry registry;
    registry.register_bundle(tiny_world().bundle);
    serve::ServiceConfig config = tiny_service_config();
    config.batcher.max_delay_s = 0.002;
    serve::ClassificationService service(registry, config);

    std::vector<std::future<serve::ServeResult>> futures;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < 32; ++i) {
      // Deadlines straddle the stop(): some already expired, some expire
      // mid-drain, some comfortably in the future.
      const auto deadline =
          now + std::chrono::microseconds(200 * static_cast<int>(i));
      futures.push_back(
          service.submit(std::vector<double>(kSteps * kSensors, 0.0),
                         kSteps, kSensors, deadline));
    }
    service.stop();

    for (auto& future : futures) {
      // Every promise must be fulfilled by the time stop() returned.
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const serve::ServeResult result = future.get();
      if (!result.accepted) {
        EXPECT_TRUE(result.reject_reason ==
                        serve::RejectReason::kDeadlineExceeded ||
                    result.reject_reason == serve::RejectReason::kShutdown ||
                    result.reject_reason == serve::RejectReason::kQueueFull)
            << serve::reject_reason_name(result.reject_reason);
      }
    }
  }
}

TEST(GuardedClassifierBatch, MixedQualityBatchGatesPerWindow) {
  const TinyWorld& w = tiny_world();
  data::Tensor3 batch(3, kSteps, kSensors);
  const auto good = w.x.trial(0);
  std::copy(good.begin(), good.end(), batch.trial(0).begin());
  for (double& v : batch.trial(1)) {
    v = std::numeric_limits<double>::quiet_NaN();  // hopeless window
  }
  const auto also_good = w.x.trial(1);
  std::copy(also_good.begin(), also_good.end(), batch.trial(2).begin());

  const std::vector<robust::GuardedPrediction> out =
      w.bundle->guard().classify_batch(batch);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out[0].abstained);
  EXPECT_TRUE(out[1].abstained);
  EXPECT_EQ(out[1].reason, robust::AbstainReason::kQuality);
  EXPECT_FALSE(out[2].abstained);
  // Gating another window must not perturb the survivors' labels.
  EXPECT_EQ(out[0].label,
            w.bundle->guard().classify(good, kSteps, kSensors).label);
  EXPECT_EQ(out[2].label,
            w.bundle->guard().classify(also_good, kSteps, kSensors).label);
}

}  // namespace
}  // namespace scwc
