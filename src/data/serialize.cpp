#include "data/serialize.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/architectures.hpp"

namespace scwc::data {

namespace {

constexpr std::string_view kMagic = "SCWCB001";

void write_string(ByteWriter& w, std::string_view s) {
  w.u64(s.size());
  w.bytes(s);
}

std::string read_string(ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n >= (1ULL << 24)) {
    r.fail("unreasonable string length " + std::to_string(n));
  }
  return r.bytes(n);
}

void write_split(ByteWriter& w, const Tensor3& x, const std::vector<int>& y,
                 const std::vector<std::string>& names,
                 const std::vector<std::int64_t>& jobs) {
  w.u64(x.trials());
  w.u64(x.steps());
  w.u64(x.sensors());
  w.u64(x.raw().size());
  w.f64s(x.raw());
  w.u64(y.size());
  for (const int label : y) w.i64(label);
  w.u64(names.size());
  for (const auto& n : names) write_string(w, n);
  w.u64(jobs.size());
  for (const auto j : jobs) w.i64(j);
}

void read_split(ByteReader& r, Tensor3& x, std::vector<int>& y,
                std::vector<std::string>& names,
                std::vector<std::int64_t>& jobs) {
  const std::uint64_t trials = r.u64();
  const std::uint64_t steps = r.u64();
  const std::uint64_t sensors = r.u64();
  // Dimension sanity *before* multiplying, so a corrupted header cannot
  // overflow std::size_t and silently alias a smaller tensor.
  constexpr std::uint64_t kDimCap = 1ULL << 26;
  if (trials >= kDimCap || steps >= kDimCap || sensors >= kDimCap) {
    r.fail("implausible tensor dimensions " + std::to_string(trials) + "×" +
           std::to_string(steps) + "×" + std::to_string(sensors));
  }
  const std::uint64_t n = r.u64();
  if (n >= (1ULL << 32)) {
    r.fail("unreasonable tensor data length " + std::to_string(n));
  }
  // Overflow-safe product: capped dimensions still multiply past 64 bits,
  // and an overflowed product could alias n.
  const std::uint64_t ts = trials * steps;  // < 2^52, cannot overflow
  r.require(sensors == 0 ||
                ts <= std::numeric_limits<std::uint64_t>::max() / sensors,
            "tensor dimensions overflow");
  if (ts * sensors != n) {
    r.fail("tensor size mismatch (header implies " + std::to_string(trials) +
           "×" + std::to_string(steps) + "×" + std::to_string(sensors) +
           " values, got " + std::to_string(n) + ")");
  }
  x = Tensor3(trials, steps, sensors, r.f64s(n));

  r.require(r.u64() == trials, "label count mismatch");
  y.resize(trials);
  for (auto& label : y) label = static_cast<int>(r.i64());

  r.require(r.u64() == trials, "model-name count mismatch");
  names.resize(trials);
  for (auto& name : names) name = read_string(r);

  r.require(r.u64() == trials, "job-id count mismatch");
  jobs.resize(trials);
  for (auto& j : jobs) j = r.i64();
}

}  // namespace

void write_scb(const ChallengeDataset& dataset, ByteWriter& w) {
  const obs::TraceSpan span("scb.write");
  const std::uint64_t start = w.offset();
  w.bytes(kMagic);
  write_string(w, dataset.name);
  w.u64(static_cast<std::uint64_t>(dataset.policy));
  write_split(w, dataset.x_train, dataset.y_train, dataset.model_train,
              dataset.job_train);
  write_split(w, dataset.x_test, dataset.y_test, dataset.model_test,
              dataset.job_test);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_scb_writes_total").inc();
  reg.counter("scwc_data_scb_bytes_written_total").inc(w.offset() - start);
}

ChallengeDataset read_scb(ByteReader& r) {
  const obs::TraceSpan span("scb.read");
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t start = r.offset();
  r.require(r.bytes(kMagic.size()) == kMagic, "bad magic (not an .scb file)");
  ChallengeDataset d;
  d.name = read_string(r);
  const std::uint64_t policy = r.u64();
  if (policy > 2) r.fail("bad window policy " + std::to_string(policy));
  d.policy = static_cast<WindowPolicy>(policy);
  read_split(r, d.x_train, d.y_train, d.model_train, d.job_train);
  read_split(r, d.x_test, d.y_test, d.model_test, d.job_test);
  d.validate();
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("scwc_data_scb_reads_total").inc();
  reg.counter("scwc_data_scb_bytes_read_total").inc(r.offset() - start);
  reg.histogram("scwc_data_scb_read_seconds")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
  return d;
}

void save_scb(const ChallengeDataset& dataset,
              const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  ByteWriter w(os);
  write_scb(dataset, w);
  w.flush();
}

ChallengeDataset load_scb(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  SCWC_REQUIRE(is.is_open(), "cannot open " + path.string() + " for reading");
  ByteReader r(is, "scb");
  return read_scb(r);
}

void export_trial_csv(const Tensor3& x, std::size_t trial,
                      const std::filesystem::path& path) {
  SCWC_REQUIRE(trial < x.trials(), "trial index out of range");
  std::ofstream os(path, std::ios::trunc);
  SCWC_REQUIRE(os.is_open(), "cannot open " + path.string() + " for writing");
  for (std::size_t s = 0; s < x.sensors(); ++s) {
    if (s > 0) os << ',';
    os << telemetry::gpu_sensor_name(s);
  }
  os << '\n';
  for (std::size_t t = 0; t < x.steps(); ++t) {
    for (std::size_t s = 0; s < x.sensors(); ++s) {
      if (s > 0) os << ',';
      os << x(trial, t, s);
    }
    os << '\n';
  }
}

}  // namespace scwc::data
