// Tests for the GPU/CPU telemetry synthesisers: determinism, physical
// invariants, phase structure and class separability properties.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/stats.hpp"
#include "telemetry/corpus.hpp"
#include "telemetry/cpu_synth.hpp"
#include "telemetry/gpu_synth.hpp"
#include "telemetry/signature.hpp"

namespace scwc::telemetry {
namespace {

JobSpec make_job(int class_id, double duration_s, std::uint64_t seed,
                 int gpus = 2) {
  JobSpec job;
  job.job_id = 1;
  job.class_id = class_id;
  job.num_gpus = gpus;
  job.num_nodes = nodes_for_gpus(gpus);
  job.duration_s = duration_s;
  job.seed = seed;
  return job;
}

TEST(GpuSynth, ShapeMatchesDurationAndRate) {
  const JobSpec job = make_job(0, 120.0, 7);
  const TimeSeries ts = synthesize_gpu_series(job, 0, 2.0);
  EXPECT_EQ(ts.steps(), 240u);
  EXPECT_EQ(ts.sensors(), kNumGpuSensors);
  EXPECT_DOUBLE_EQ(ts.sample_hz, 2.0);
  EXPECT_NEAR(ts.duration_s(), 120.0, 1.0);
}

TEST(GpuSynth, IsDeterministic) {
  const JobSpec job = make_job(5, 200.0, 99);
  const TimeSeries a = synthesize_gpu_series(job, 1, 1.0);
  const TimeSeries b = synthesize_gpu_series(job, 1, 1.0);
  EXPECT_DOUBLE_EQ(a.values.max_abs_diff(b.values), 0.0);
}

TEST(GpuSynth, DifferentGpusOfOneJobDiffer) {
  const JobSpec job = make_job(5, 200.0, 99, 4);
  const TimeSeries a = synthesize_gpu_series(job, 0, 1.0);
  const TimeSeries b = synthesize_gpu_series(job, 2, 1.0);
  EXPECT_GT(a.values.max_abs_diff(b.values), 1.0);
}

TEST(GpuSynth, PrefixMatchesFullSeriesPrefix) {
  const JobSpec job = make_job(3, 300.0, 1234);
  const TimeSeries full = synthesize_gpu_series(job, 0, 1.0);
  const TimeSeries prefix = synthesize_gpu_series_prefix(job, 0, 1.0, 60);
  ASSERT_EQ(prefix.steps(), 60u);
  for (std::size_t t = 0; t < 60; ++t) {
    for (std::size_t s = 0; s < kNumGpuSensors; ++s) {
      EXPECT_DOUBLE_EQ(prefix.values(t, s), full.values(t, s));
    }
  }
}

TEST(GpuSynth, SeriesStepsIsTheSynthesisedLength) {
  CorpusConfig config;
  config.jobs_per_class_scale = 0.01;  // the challenge tests' micro corpus
  config.min_jobs_per_class = 3;
  config.seed = 11;
  const Corpus corpus = generate_corpus(config);
  std::size_t fractional = 0;
  for (const JobSpec& job : corpus.jobs()) {
    for (const double hz : {0.5, 1.0, 2.0, 9.0}) {
      const std::size_t steps = gpu_series_steps(job, hz);
      // Every sample period ends inside the job and one more would not:
      // steps ≤ duration × hz < steps + 1, i.e. the floor.
      const double samples = job.duration_s * hz;
      EXPECT_LE(static_cast<double>(steps), samples) << "job " << job.job_id;
      EXPECT_LT(samples, static_cast<double>(steps + 1))
          << "job " << job.job_id;
      if (samples != std::floor(samples)) ++fractional;
      // First, last and one middle GPU of every job.
      for (const int g : {0, job.num_gpus / 2, job.num_gpus - 1}) {
        EXPECT_EQ(steps, synthesize_gpu_series(job, g, hz).steps())
            << "job " << job.job_id << " gpu " << g << " at " << hz << " Hz";
      }
    }
  }
  // Durations with a fractional sample count are what tell floor from ceil.
  EXPECT_GT(fractional, 0u);
}

class GpuPhysicalInvariants : public ::testing::TestWithParam<int> {};

TEST_P(GpuPhysicalInvariants, AllSamplesWithinDeviceLimits) {
  const int class_id = GetParam();
  const JobSpec job = make_job(class_id, 400.0, 4242 + class_id);
  const TimeSeries ts = synthesize_gpu_series(job, 0, 2.0);
  const GpuDevice& dev = gpu_device();
  for (std::size_t t = 0; t < ts.steps(); ++t) {
    const auto row = ts.values.row(t);
    EXPECT_GE(row[kUtilizationGpuPct], 0.0);
    EXPECT_LE(row[kUtilizationGpuPct], 100.0);
    EXPECT_GE(row[kUtilizationMemoryPct], 0.0);
    EXPECT_LE(row[kUtilizationMemoryPct], 100.0);
    // Free + used must equal the V100's 32 GiB board memory.
    EXPECT_NEAR(row[kMemoryFreeMiB] + row[kMemoryUsedMiB],
                dev.total_memory_mib, 1e-6);
    EXPECT_GE(row[kMemoryUsedMiB], 0.0);
    // HBM runs hotter than ambient, die stays below throttle ceiling.
    EXPECT_GT(row[kTemperatureGpu], 5.0);
    EXPECT_LT(row[kTemperatureGpu], 96.0);
    EXPECT_LT(row[kTemperatureMemory], 100.0);
    EXPECT_GE(row[kPowerDrawW], 0.5 * dev.idle_power_w);
    EXPECT_LE(row[kPowerDrawW], dev.max_power_w);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, GpuPhysicalInvariants,
                         ::testing::Range(0, 26));

TEST(GpuSynth, TemperatureLagsBehindPower) {
  // Thermal inertia: temperature at the start is near ambient and rises
  // towards a load-dependent level.
  const JobSpec job = make_job(0, 600.0, 5);
  const TimeSeries ts = synthesize_gpu_series(job, 0, 1.0);
  const double early = ts.values(5, kTemperatureGpu);
  const double late = ts.values(500, kTemperatureGpu);
  EXPECT_GT(late, early + 5.0);
}

TEST(GpuSynth, PowerTracksUtilization) {
  const JobSpec job = make_job(1, 800.0, 6);
  const TimeSeries ts = synthesize_gpu_series(job, 0, 1.0);
  std::vector<double> util;
  std::vector<double> power;
  for (std::size_t t = 0; t < ts.steps(); ++t) {
    util.push_back(ts.values(t, kUtilizationGpuPct));
    power.push_back(ts.values(t, kPowerDrawW));
  }
  EXPECT_GT(linalg::pearson(util, power), 0.9);
}

TEST(GpuSynth, StartupPhaseHasLowerUtilizationThanSteady) {
  const JobSpec job = make_job(0, 900.0, 77);  // VGG: high steady util
  const TimeSeries ts = synthesize_gpu_series(job, 0, 1.0);
  double early_util = 0.0;
  double late_util = 0.0;
  for (std::size_t t = 0; t < 30; ++t) {
    early_util += ts.values(t, kUtilizationGpuPct);
  }
  for (std::size_t t = 600; t < 630; ++t) {
    late_util += ts.values(t, kUtilizationGpuPct);
  }
  EXPECT_LT(early_util / 30.0, late_util / 30.0 - 20.0);
}

TEST(GpuSynth, StartupIsClassGeneric) {
  // The mean utilisation of the first 30 s must be far more similar across
  // classes than the steady-state level is — the property behind the
  // paper's "start windows are hardest" finding.
  std::vector<double> early_means;
  std::vector<double> steady_means;
  for (const int cls : {0, 5, 11, 20, 22}) {  // VGG, ResNet, UNet, Bert, GNN
    const JobSpec job = make_job(cls, 900.0, 1000 + cls);
    const TimeSeries ts = synthesize_gpu_series(job, 0, 1.0);
    double early = 0.0;
    double steady = 0.0;
    for (std::size_t t = 0; t < 30; ++t) {
      early += ts.values(t, kUtilizationGpuPct);
    }
    for (std::size_t t = 500; t < 700; ++t) {
      steady += ts.values(t, kUtilizationGpuPct);
    }
    early_means.push_back(early / 30.0);
    steady_means.push_back(steady / 200.0);
  }
  EXPECT_LT(linalg::sample_stddev(early_means),
            0.5 * linalg::sample_stddev(steady_means));
}

TEST(GpuSynth, GnnIsBurstierThanUNet) {
  const JobSpec gnn = make_job(22, 900.0, 9);   // Schnet
  const JobSpec unet = make_job(11, 900.0, 9);  // U3-32
  const TimeSeries g = synthesize_gpu_series(gnn, 0, 1.0);
  const TimeSeries u = synthesize_gpu_series(unet, 0, 1.0);
  std::vector<double> g_util;
  std::vector<double> u_util;
  for (std::size_t t = 200; t < 800; ++t) {
    g_util.push_back(g.values(t, kUtilizationGpuPct));
    u_util.push_back(u.values(t, kUtilizationGpuPct));
  }
  EXPECT_GT(linalg::variance(g_util), 1.2 * linalg::variance(u_util));
  EXPECT_LT(linalg::mean(g_util), linalg::mean(u_util));
}

TEST(GpuSynth, InvalidArgumentsThrow) {
  const JobSpec job = make_job(0, 100.0, 1);
  EXPECT_THROW((void)synthesize_gpu_series(job, -1, 1.0), Error);
  EXPECT_THROW((void)synthesize_gpu_series(job, 5, 1.0), Error);  // 2 GPUs
  EXPECT_THROW((void)synthesize_gpu_series(job, 0, 0.0), Error);
}

TEST(Signature, JitterPreservesPlausibleRanges) {
  Rng rng(55);
  for (const auto& arch : architecture_registry()) {
    const GpuSignature nominal = base_signature(arch);
    for (int i = 0; i < 20; ++i) {
      const GpuSignature s = jitter_signature(nominal, rng);
      EXPECT_GT(s.util_base, 0.0);
      EXPECT_LE(s.util_base, 100.0);
      EXPECT_GT(s.batch_period_s, 0.0);
      EXPECT_GT(s.mem_used_mib, 0.0);
      EXPECT_LT(s.mem_used_mib, gpu_device().total_memory_mib);
      EXPECT_GT(s.startup_mean_s, 0.0);
    }
  }
}

TEST(Signature, DeeperVariantsUseMoreMemory) {
  const GpuSignature v11 = base_signature(architecture_by_name("VGG11"));
  const GpuSignature v19 = base_signature(architecture_by_name("VGG19"));
  EXPECT_GT(v19.mem_used_mib, v11.mem_used_mib);
  const GpuSignature r50 = base_signature(architecture_by_name("ResNet50"));
  const GpuSignature r152 = base_signature(architecture_by_name("ResNet152"));
  EXPECT_GT(r152.mem_used_mib, r50.mem_used_mib);
}

TEST(CpuSynth, ShapeAndDeterminism) {
  const JobSpec job = make_job(0, 1200.0, 321);
  const TimeSeries a = synthesize_cpu_series(job, 0);
  EXPECT_EQ(a.sensors(), kNumCpuMetrics);
  EXPECT_EQ(a.steps(), 120u);  // 1200 s at 0.1 Hz
  const TimeSeries b = synthesize_cpu_series(job, 0);
  EXPECT_DOUBLE_EQ(a.values.max_abs_diff(b.values), 0.0);
}

TEST(CpuSynth, CpuAndGpuRatesDifferForSameTrial) {
  // The paper: "the CPU and GPU time series are sampled at different rates,
  // they will have different lengths for the same trial."
  const JobSpec job = make_job(4, 600.0, 11);
  const TimeSeries gpu = synthesize_gpu_series(job, 0, 9.0);
  const TimeSeries cpu = synthesize_cpu_series(job, 0);
  EXPECT_GT(gpu.steps(), 10 * cpu.steps());
}

TEST(CpuSynth, CumulativeCountersAreMonotone) {
  const JobSpec job = make_job(20, 2000.0, 13);
  const TimeSeries ts = synthesize_cpu_series(job, 0);
  for (std::size_t t = 1; t < ts.steps(); ++t) {
    EXPECT_GE(ts.values(t, 1), ts.values(t - 1, 1));  // CPUTime
    EXPECT_GE(ts.values(t, 5), ts.values(t - 1, 5));  // Pages
  }
}

TEST(CpuSynth, PhysicalRanges) {
  const JobSpec job = make_job(12, 1500.0, 17);
  const TimeSeries ts = synthesize_cpu_series(job, 0);
  for (std::size_t t = 0; t < ts.steps(); ++t) {
    const auto row = ts.values.row(t);
    EXPECT_GE(row[0], 1200.0);  // CPUFrequency MHz
    EXPECT_LE(row[0], 4000.0);
    EXPECT_GE(row[2], 0.0);     // CPUUtilization
    EXPECT_LE(row[2], 100.0);
    EXPECT_GT(row[3], 0.0);     // RSS
    EXPECT_GT(row[4], row[3]);  // VMSize > RSS
    EXPECT_GE(row[6], 0.0);     // ReadMB
    EXPECT_GE(row[7], 0.0);     // WriteMB
  }
}

TEST(CpuSynth, CheckpointWritesAppearAtEpochBoundaries) {
  const JobSpec job = make_job(0, 3000.0, 19);
  const TimeSeries ts = synthesize_cpu_series(job, 0);
  double max_write = 0.0;
  for (std::size_t t = 0; t < ts.steps(); ++t) {
    max_write = std::max(max_write, ts.values(t, 7));
  }
  EXPECT_GT(max_write, 100.0);  // VGG checkpoints are hundreds of MB
}

TEST(CpuSynth, InvalidNodeThrows) {
  const JobSpec job = make_job(0, 100.0, 1);
  EXPECT_THROW((void)synthesize_cpu_series(job, 5), Error);
}

}  // namespace
}  // namespace scwc::telemetry
