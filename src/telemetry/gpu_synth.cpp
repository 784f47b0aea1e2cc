#include "telemetry/gpu_synth.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace scwc::telemetry {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Evolving state for one synthesised GPU.
struct SynthState {
  double temp_c;        // die temperature (first-order model)
  double mem_wander;    // slow random walk on the memory footprint
  double stall_left_s;  // remaining duration of the current stall
  double batch_phase;   // per-GPU oscillation phase offset
  double startup_s;     // realised startup duration for this GPU
};

double clamp01pct(double v) { return std::clamp(v, 0.0, 100.0); }

}  // namespace

std::size_t gpu_series_steps(const JobSpec& job, double sample_hz) {
  SCWC_REQUIRE(sample_hz > 0.0, "sample_hz must be positive");
  return static_cast<std::size_t>(std::floor(job.duration_s * sample_hz));
}

TimeSeries synthesize_gpu_series_prefix(const JobSpec& job, int gpu_index,
                                        double sample_hz,
                                        std::size_t max_steps) {
  SCWC_REQUIRE(sample_hz > 0.0, "sample_hz must be positive");
  SCWC_REQUIRE(gpu_index >= 0 && gpu_index < job.num_gpus,
               "gpu_index out of range for job");

  const GpuDevice& dev = gpu_device();
  const StartupSignature& su = startup_signature();

  // Signature jitter depends on the job seed only: all GPUs of a job run
  // the same model with the same batch size.
  Rng job_rng(job.seed);
  const GpuSignature nominal =
      base_signature(architecture(job.class_id));
  const GpuSignature sig = jitter_signature(nominal, job_rng);

  // Per-GPU streams: noise, phase offsets, local thermals.
  Rng rng(job.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                  gpu_index + 1)));

  SynthState st{};
  st.temp_c = dev.ambient_temp_c + rng.normal(0.0, 1.0);
  st.mem_wander = 0.0;
  st.stall_left_s = 0.0;
  st.batch_phase = rng.uniform(0.0, kTwoPi);
  // GPU 0 hosts the dataloader rank: it starts a little earlier and stalls
  // slightly more; the rest join once data is staged.
  st.startup_s = sig.startup_mean_s * (gpu_index == 0 ? 1.0 : 1.08) *
                 std::exp(rng.normal(0.0, 0.10));

  const double dt = 1.0 / sample_hz;
  const std::size_t steps =
      std::min(gpu_series_steps(job, sample_hz), max_steps);

  TimeSeries out;
  out.sample_hz = sample_hz;
  out.values = linalg::Matrix(steps, kNumGpuSensors);

  const double stall_rate =
      sig.stall_rate_hz * (gpu_index == 0 ? 1.25 : 1.0);
  // Small per-GPU ambient offset (rack position).
  const double ambient = dev.ambient_temp_c + rng.normal(0.0, 1.2);
  const double epoch_phase = rng.uniform(0.0, 1.0);

  for (std::size_t i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) * dt;
    double util = 0.0;
    double mem_util = 0.0;
    double mem_used = 0.0;

    if (t < st.startup_s) {
      // ---- Startup phase: mostly class-generic, partially leaking ----
      // Data staging and imports look alike for every model, but the first
      // compiled batches already run at the class's operating point. The
      // blend weight ramps linearly through the phase, which yields the
      // paper's start-window behaviour: clearly harder than steady windows
      // (Table V/VI) yet far above chance.
      const double frac = t / st.startup_s;
      const double generic_util =
          su.util_burst_level +
          su.util_burst_amp *
              std::sin(kTwoPi * t / su.burst_period_s + st.batch_phase) +
          rng.normal(0.0, su.util_noise_sd);
      const double w = kTwoPi / sig.batch_period_s;
      const double steady_osc =
          std::sin(w * t + st.batch_phase) +
          0.35 * std::sin(2.0 * w * t + 1.3 * st.batch_phase);
      const double steady_util = sig.util_base +
                                 sig.util_batch_amp * 0.74 * steady_osc +
                                 rng.normal(0.0, sig.util_noise_sd);
      const double blend = 0.70 * frac;
      util = (1.0 - blend) * generic_util + blend * steady_util;

      // Memory ramps from the framework baseline to the model footprint as
      // the model and optimiser state are materialised.
      const double ramp =
          std::min(1.0, frac / std::max(1e-9, su.ramp_fraction));
      mem_used = su.base_memory_mib +
                 ramp * (sig.mem_used_mib - su.base_memory_mib);
      const double generic_mem_util =
          su.mem_util_level + rng.normal(0.0, su.mem_util_noise_sd);
      const double steady_mem_util =
          sig.mem_util_base +
          sig.mem_util_coupling * (steady_util - sig.util_base) +
          rng.normal(0.0, sig.mem_util_noise_sd);
      mem_util = (1.0 - blend) * generic_mem_util + blend * steady_mem_util;
    } else {
      // ---- Steady training ----
      const double ts = t - st.startup_s;
      // Batch-frequency oscillation: sine + its second harmonic gives the
      // asymmetric sawtooth-ish shape of real utilisation traces.
      const double w = kTwoPi / sig.batch_period_s;
      double osc = std::sin(w * ts + st.batch_phase) +
                   0.35 * std::sin(2.0 * w * ts + 1.3 * st.batch_phase);
      util = sig.util_base + sig.util_batch_amp * 0.74 * osc +
             rng.normal(0.0, sig.util_noise_sd);

      // Epoch dip (validation / checkpointing).
      const double epos =
          std::fmod(ts / sig.epoch_period_s + epoch_phase, 1.0);
      const bool in_dip = epos < sig.epoch_dip_frac;
      if (in_dip) util *= (1.0 - sig.epoch_dip_depth);

      // Dataloader stalls (Poisson arrivals, exponential length).
      if (st.stall_left_s > 0.0) {
        util *= sig.stall_residual;
        st.stall_left_s -= dt;
      } else if (rng.bernoulli(1.0 - std::exp(-stall_rate * dt))) {
        st.stall_left_s = rng.exponential(1.0 / std::max(0.05, sig.stall_len_s));
      }

      // Memory footprint: constant plus a slow bounded random walk
      // (allocator caching) plus a dip while validating.
      st.mem_wander += rng.normal(0.0, sig.mem_wander_mib * 0.05);
      st.mem_wander = std::clamp(st.mem_wander, -sig.mem_wander_mib,
                                 sig.mem_wander_mib);
      mem_used = sig.mem_used_mib + st.mem_wander;
      if (in_dip) mem_used *= 0.97;

      mem_util = sig.mem_util_base +
                 sig.mem_util_coupling * (util - sig.util_base) +
                 rng.normal(0.0, sig.mem_util_noise_sd);
    }

    util = clamp01pct(util);
    mem_util = clamp01pct(mem_util);
    mem_used = std::clamp(mem_used, 0.0, dev.total_memory_mib);

    // Power: affine in utilisation with measurement noise.
    double power = dev.idle_power_w + sig.power_per_util * util +
                   rng.normal(0.0, sig.power_noise_sd);
    power = std::clamp(power, 0.8 * dev.idle_power_w, dev.max_power_w);

    // First-order thermal response to dissipated power.
    const double temp_target = ambient + dev.temp_per_watt * power;
    st.temp_c += (dt / dev.temp_tau_s) * (temp_target - st.temp_c);
    const double temp_gpu =
        std::clamp(st.temp_c + rng.normal(0.0, 0.3), 10.0, 95.0);
    const double temp_mem = std::clamp(
        temp_gpu + dev.mem_temp_offset_c + rng.normal(0.0, 0.4), 10.0, 99.0);

    auto row = out.values.row(i);
    row[kUtilizationGpuPct] = util;
    row[kUtilizationMemoryPct] = mem_util;
    row[kMemoryFreeMiB] = dev.total_memory_mib - mem_used;
    row[kMemoryUsedMiB] = mem_used;
    row[kTemperatureGpu] = temp_gpu;
    row[kTemperatureMemory] = temp_mem;
    row[kPowerDrawW] = power;
  }
  return out;
}

TimeSeries synthesize_gpu_series(const JobSpec& job, int gpu_index,
                                 double sample_hz) {
  return synthesize_gpu_series_prefix(job, gpu_index, sample_hz,
                                      static_cast<std::size_t>(-1));
}

}  // namespace scwc::telemetry
