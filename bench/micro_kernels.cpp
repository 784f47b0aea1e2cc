// M1 — google-benchmark micro-benchmarks for the heavy kernels backing the
// reproduction: GEMM, covariance reduction, gap accounting and repair, PCA
// fit, forest fit and predict, SMO SVM, boosted trees, LSTM step,
// telemetry synthesis and the SCWCWIRE codec of the sharded serving path.
#include <benchmark/benchmark.h>

#include <string>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/rolling.hpp"
#include "obs/trace.hpp"
#include "linalg/eigen.hpp"
#include "linalg/gemm.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "net/wire.hpp"
#include "nn/lstm.hpp"
#include "preprocess/covariance_kernel.hpp"
#include "preprocess/pca.hpp"
#include "preprocess/pipeline.hpp"
#include "preprocess/scaler.hpp"
#include "robust/fault.hpp"
#include "robust/repair_kernel.hpp"
#include "robust/robust_window.hpp"
#include "telemetry/gpu_synth.hpp"

namespace {

using namespace scwc;
using linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.normal();
  return m;
}

void blob_data(std::size_t n, std::size_t d, std::size_t classes, Matrix& x,
               std::vector<int>& y) {
  Rng rng(11);
  x = Matrix(n, d);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<int>(i % classes);
    for (std::size_t c = 0; c < d; ++c) {
      x(i, c) = (c % classes == static_cast<std::size_t>(y[i]) ? 2.0 : 0.0) +
                rng.normal();
    }
  }
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Matrix b = random_matrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul_at_b(a, b));
  }
}
BENCHMARK(BM_GemmTransposed)->Arg(128);

// The one standardise → covariance path: a fitted covariance pipeline
// scaling and reducing a batch of range(1) windows of range(0) steps × 7
// sensors. 60×64 and 540×64 are the serve geometry (short windows, the
// paper's trials); 540×128 and 540×512 are split-sized batches.
// parallel_for splits the windows across the pool, so CPU time on the
// calling thread alone would overstate the rate; report wall time. The
// label names the instance that ran (avx2 or sse2).
void BM_CovariancePipelineTransform(benchmark::State& state) {
  const auto steps = static_cast<std::size_t>(state.range(0));
  const auto windows = static_cast<std::size_t>(state.range(1));
  Rng rng(12);
  data::Tensor3 train(256, steps, 7);
  for (double& v : train.raw()) v = rng.normal();
  data::Tensor3 batch(windows, steps, 7);
  for (double& v : batch.raw()) v = rng.normal();
  preprocess::FeaturePipeline pipeline(
      {preprocess::Reduction::kCovariance, 0});
  pipeline.fit(train);
  state.SetLabel(preprocess::best_covariance_kernel().name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.transform(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows));
}
BENCHMARK(BM_CovariancePipelineTransform)
    ->Args({60, 64})
    ->Args({540, 64})
    ->Args({540, 128})
    ->Args({540, 512})
    ->UseRealTime();

// The guard's repair step: one WindowRepairer accounting and repairing a
// batch of 64 windows of range(0) steps × 7 sensors, damaged by
// FaultInjector at severity range(2)/100, under Imputation policy range(1),
// through instance range(3) of robust::repair_kernels() (0 is the best
// built, the label names it; one this CPU lacks is skipped). Severity 0
// leaves every window clean, so it times what clean windows still pay: the
// per-row finiteness scan. Restoring the damaged batch between iterations
// is not timed.
void BM_AccountAndImpute(benchmark::State& state) {
  constexpr std::size_t kWindows = 64, kSensors = 7;
  const auto kernels = robust::repair_kernels();
  const auto instance = static_cast<std::size_t>(state.range(3));
  if (instance >= kernels.size()) {
    state.SkipWithError("no such instance in this build");
    return;
  }
  const robust::RepairKernel& kernel = kernels[instance];
  if (!kernel.supported) {
    const std::string why =
        std::string(kernel.name) + " instance: this CPU does not support it";
    state.SkipWithError(why.c_str());
    return;
  }
  state.SetLabel(kernel.name);
  const auto steps = static_cast<std::size_t>(state.range(0));
  const robust::FaultInjector injector(robust::FaultProfile::at_severity(
      static_cast<double>(state.range(2)) / 100.0));
  Rng rng(13);
  data::Tensor3 damaged(kWindows, steps, kSensors);
  for (std::size_t i = 0; i < kWindows; ++i) {
    telemetry::TimeSeries series;
    series.values = random_matrix(steps, kSensors, 100 + i);
    injector.corrupt(series, rng);
    (void)robust::robust_extract_window(series, 0, steps, damaged.trial(i));
  }
  robust::ImputationConfig config;
  config.policy = static_cast<robust::Imputation>(state.range(1));
  config.sensor_prior_means.assign(kSensors, 0.5);
  data::Tensor3 batch = damaged;
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(damaged.raw().begin(), damaged.raw().end(), batch.raw().begin());
    state.ResumeTiming();
    robust::WindowRepairer repairer(kSensors, config);
    for (std::size_t i = 0; i < kWindows; ++i) {
      robust::QualityReport report;
      kernel.repair(repairer, batch.trial(i), steps, report);
      benchmark::DoNotOptimize(report);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindows));
}
BENCHMARK(BM_AccountAndImpute)
    ->ArgsProduct({{540, 60},
                   {static_cast<int>(robust::Imputation::kForwardFill),
                    static_cast<int>(robust::Imputation::kLinear),
                    static_cast<int>(robust::Imputation::kPriorMean)},
                   {50, 0},
                   {0, 1}})
    ->UseRealTime();

// Fit from row views, then scale every row: what FeaturePipeline::fit and
// a kNone transform do to a split.
void BM_ScalerFitTransform(benchmark::State& state) {
  const Matrix x = random_matrix(1024, 630, 6);
  std::vector<std::span<const double>> rows;
  for (std::size_t r = 0; r < x.rows(); ++r) rows.push_back(x.row(r));
  Matrix out(x.rows(), x.cols());
  for (auto _ : state) {
    preprocess::StandardScaler scaler;
    scaler.fit(rows);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      scaler.transform_row(rows[r], out.row(r));
    }
    benchmark::DoNotOptimize(out.flat().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ScalerFitTransform);

void BM_PcaFit(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_matrix(400, 630, 7);
  for (auto _ : state) {
    preprocess::Pca pca(k);
    pca.fit(x);
    benchmark::DoNotOptimize(pca.components_matrix());
  }
}
BENCHMARK(BM_PcaFit)->Arg(28)->Arg(64);

void BM_RandomForestFit(benchmark::State& state) {
  Matrix x;
  std::vector<int> y;
  blob_data(800, 28, 26, x, y);
  for (auto _ : state) {
    ml::RandomForestConfig forest_config;
    forest_config.n_estimators = 50;
    ml::RandomForest forest(forest_config);
    forest.fit(x, y);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_RandomForestFit);

// Served-model geometry: 100 fully grown (so one-hot) trees over 28
// covariance features and 26 classes.
const ml::RandomForest& served_geometry_forest() {
  static const ml::RandomForest forest = [] {
    Matrix x;
    std::vector<int> y;
    blob_data(800, 28, 26, x, y);
    ml::RandomForestConfig config;
    config.n_estimators = 100;
    ml::RandomForest out(config);
    out.fit(x, y);
    return out;
  }();
  return forest;
}

// predict_proba on a batch of 1 or 64 rows: every tree, votes counted.
void BM_RandomForestPredict(benchmark::State& state) {
  const ml::RandomForest& forest = served_geometry_forest();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const Matrix batch = random_matrix(rows, 28, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_RandomForestPredict)->Arg(1)->Arg(64)->UseRealTime();

// predict, the call the service makes: labels only, so a row stops
// walking trees once its label is decided.
void BM_RandomForestPredictLabels(benchmark::State& state) {
  const ml::RandomForest& forest = served_geometry_forest();
  const auto rows = static_cast<std::size_t>(state.range(0));
  const Matrix batch = random_matrix(rows, 28, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_RandomForestPredictLabels)->Arg(1)->Arg(64)->UseRealTime();

void BM_SvmFit(benchmark::State& state) {
  Matrix x;
  std::vector<int> y;
  blob_data(400, 28, 8, x, y);
  for (auto _ : state) {
    ml::Svm svm;
    svm.fit(x, y);
    benchmark::DoNotOptimize(svm.support_vector_count());
  }
}
BENCHMARK(BM_SvmFit);

void BM_GbtFit(benchmark::State& state) {
  Matrix x;
  std::vector<int> y;
  blob_data(500, 28, 26, x, y);
  for (auto _ : state) {
    ml::GradientBoostedTrees gbt({.n_rounds = 10});
    gbt.fit(x, y);
    benchmark::DoNotOptimize(gbt.rounds_fitted());
  }
}
BENCHMARK(BM_GbtFit);

void BM_BiLstmForward(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  nn::BiLstm lstm(7, hidden, rng);
  nn::Sequence x(90, 32, 7);
  for (std::size_t t = 0; t < 90; ++t) {
    for (double& v : x[t].flat()) v = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_BiLstmForward)->Arg(32)->Arg(128);

void BM_BiLstmTrainStep(benchmark::State& state) {
  Rng rng(9);
  nn::BiLstm lstm(7, 32, rng);
  nn::Sequence x(90, 32, 7);
  for (std::size_t t = 0; t < 90; ++t) {
    for (double& v : x[t].flat()) v = rng.normal();
  }
  nn::Sequence dout(90, 32, 64);
  for (std::size_t t = 0; t < 90; ++t) {
    for (double& v : dout[t].flat()) v = rng.normal() * 0.01;
  }
  for (auto _ : state) {
    lstm.zero_grad();
    benchmark::DoNotOptimize(lstm.forward(x));
    benchmark::DoNotOptimize(lstm.backward(dout));
  }
}
BENCHMARK(BM_BiLstmTrainStep);

void BM_GpuSynthesis(benchmark::State& state) {
  telemetry::JobSpec job;
  job.job_id = 1;
  job.class_id = 5;
  job.num_gpus = 1;
  job.num_nodes = 1;
  job.duration_s = 600.0;
  job.seed = 77;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        telemetry::synthesize_gpu_series(job, 0, 9.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(600 * 9));
}
BENCHMARK(BM_GpuSynthesis);

void BM_TopkEigen(benchmark::State& state) {
  const Matrix x = random_matrix(200, 400, 10);
  const Matrix cov = linalg::gram_at_a(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::topk_eigen(cov, 16));
  }
}
BENCHMARK(BM_TopkEigen);

// --- scwc::obs overhead --------------------------------------------------
// The instrumentation budget: a counter inc must stay in the nanoseconds
// (one relaxed atomic add when enabled, one null check when disabled), and
// a TraceSpan must be cheap enough for per-epoch/per-round placement.

class ObsToggle {
 public:
  explicit ObsToggle(bool on) : was_(obs::enabled()) { obs::set_enabled(on); }
  ~ObsToggle() { obs::set_enabled(was_); }

 private:
  bool was_;
};

void BM_ObsCounterInc(benchmark::State& state) {
  const ObsToggle on(true);
  obs::CounterHandle c =
      obs::MetricsRegistry::global().counter("scwc_bench_obs_counter_total");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncDisabled(benchmark::State& state) {
  const ObsToggle off(false);
  obs::CounterHandle c = obs::MetricsRegistry::global().counter(
      "scwc_bench_obs_counter_off_total");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterIncDisabled);

void BM_ObsHistogramObserve(benchmark::State& state) {
  const ObsToggle on(true);
  obs::HistogramHandle h = obs::MetricsRegistry::global().histogram(
      "scwc_bench_obs_histogram_seconds",
      obs::MetricsRegistry::default_seconds_buckets());
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsTraceSpan(benchmark::State& state) {
  const ObsToggle on(true);
  for (auto _ : state) {
    const obs::TraceSpan span("bench.obs_span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsTraceSpan);

void BM_ObsTraceSpanDisabled(benchmark::State& state) {
  const ObsToggle off(false);
  for (auto _ : state) {
    const obs::TraceSpan span("bench.obs_span_off");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsTraceSpanDisabled);

// Rolling-window observe: one mutex acquire, a slot-id check, a bucket
// increment. This sits on the serve hot path (per answered request), so the
// obs-overhead gate in tools/check_all.sh holds it to a documented bound.
void BM_ObsRollingObserve(benchmark::State& state) {
  const ObsToggle on(true);
  obs::RollingHistogram h(obs::MetricsRegistry::default_seconds_buckets());
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsRollingObserve);

// Snapshot cost bounds the scrape-endpoint latency (it merges every live
// slot under the lock); scraped at ~1 Hz, not per request.
void BM_ObsRollingSnapshot(benchmark::State& state) {
  const ObsToggle on(true);
  obs::RollingHistogram h(obs::MetricsRegistry::default_seconds_buckets());
  for (int i = 0; i < 4096; ++i) h.observe(1e-4 * (1 + i % 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.snapshot());
  }
}
BENCHMARK(BM_ObsRollingSnapshot);

// Trace-id issue + head-sampling verdict: the cost EVERY request pays
// (one relaxed fetch_add + one SplitMix64 mix), sampled or not.
void BM_ObsTracerBeginSampled(benchmark::State& state) {
  obs::RequestTracerConfig config;
  config.sample_rate = 0.01;
  obs::RequestTracer tracer(config);
  for (auto _ : state) {
    const std::uint64_t id = tracer.begin_trace();
    benchmark::DoNotOptimize(tracer.sampled(id));
  }
}
BENCHMARK(BM_ObsTracerBeginSampled);

// Record retention for a sampled request (ring push under the mutex) —
// paid by the sampled fraction only.
void BM_ObsTracerRecord(benchmark::State& state) {
  obs::RequestTracerConfig config;
  config.sample_rate = 1.0;
  config.capacity = 1024;
  obs::RequestTracer tracer(config);
  for (auto _ : state) {
    obs::RequestTraceRecord rec;
    rec.trace_id = tracer.begin_trace();
    rec.outcome = "answer";
    rec.model_version = "rf-cov-v1";
    tracer.record(std::move(rec));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsTracerRecord);

// ---------------------------------------------------------- SCWCWIRE codec
// One served 60×7 window as the router ships it: a 3,405-byte
// SubmitWindow payload inside a 24-byte frame header.

net::SubmitWindowFrame served_window_frame() {
  net::SubmitWindowFrame f;
  f.request_id = 1;
  f.job_id = 17;
  f.steps = 60;
  f.sensors = 7;
  const Matrix window = random_matrix(60, 7, 5);
  f.values.assign(window.flat().begin(), window.flat().end());
  return f;
}

void BM_WireSubmitWindowEncode(benchmark::State& state) {
  const net::SubmitWindowFrame f = served_window_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_frame(
        net::FrameType::kSubmitWindow, net::encode_submit_window(f)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireSubmitWindowEncode);

void BM_WireSubmitWindowDecode(benchmark::State& state) {
  const std::string frame =
      net::encode_frame(net::FrameType::kSubmitWindow,
                        net::encode_submit_window(served_window_frame()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::decode_submit_window(net::decode_frame(frame).payload));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireSubmitWindowDecode);

void BM_WireCrc32(benchmark::State& state) {
  const std::string payload = net::encode_submit_window(served_window_frame());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WireCrc32);

}  // namespace
