// The benchmark's open-loop load generator and its measurement helpers.
//
// One generator thread walks a seeded Poisson schedule and calls submit at
// each due time; arrivals never wait for completions, so a backlog shows up
// as latency instead of as a slower offered rate. Every request is timed
// from when it was DUE, not from when submit ran, and how late the
// generator ran is recorded per request. A collector thread harvests the
// futures in submission order so bookkeeping stays bounded by what is in
// flight; both bench threads report their own CPU so it can be subtracted
// from the process total.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "serve/serve_types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Linear-interpolated quantile of `values` (copied and sorted); 0 for an
/// empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Seconds between two steady-clock points.
[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// A seeded open-loop arrival schedule: due offsets (seconds from phase
/// start, Poisson at `rate`) and the payload each arrival carries.
struct Schedule {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<double> due_s;
  std::vector<std::uint32_t> payload;
};

[[nodiscard]] Schedule poisson_schedule(double rate, double seconds,
                                        std::size_t payloads, scwc::Rng& rng);

/// What the generator and the collector saw of one request.
struct Issued {
  double due_s = 0.0;     ///< scheduled arrival, from phase start
  double lag_s = 0.0;     ///< how late submit started against due_s
  double submit_s = 0.0;  ///< duration of the submit call itself
  std::uint32_t payload = 0;
  scwc::serve::ServeResult result;
};

/// When one drive() call started, and the CPU seconds its two bench
/// threads used (to subtract from the process total).
struct DriveReport {
  Clock::time_point start;
  double generator_s = 0.0;
  double collector_s = 0.0;
};

/// Runs `schedule` open loop on the calling thread. `submit(i, due)` issues
/// request i (payload schedule.payload[i]) and returns its future; `sink`
/// receives every finished request, in submission order, on the collector
/// thread. Returns once every future has resolved.
DriveReport drive(
    const Schedule& schedule,
    const std::function<std::future<scwc::serve::ServeResult>(
        std::size_t, Clock::time_point)>& submit,
    const std::function<void(std::size_t, Issued&&)>& sink);

/// Runs closed loop on the calling thread for `seconds`: `window` requests
/// stay in flight, and as each resolves (oldest first) the next is issued,
/// so the system under test always has a full queue. `submit(i)` issues
/// request i; `sink(i, result, in_time)` receives every resolved request,
/// with in_time false for those that resolved after `seconds` had passed
/// (the drain). Returns how many requests were issued.
std::size_t saturate(
    std::size_t window, double seconds,
    const std::function<std::future<scwc::serve::ServeResult>(std::size_t)>& submit,
    const std::function<void(std::size_t, scwc::serve::ServeResult&&, bool)>& sink);

/// CPU seconds consumed so far: this process (all threads, getrusage) and
/// the listed child processes (utime + stime from /proc/<pid>/stat).
struct CpuTotals {
  double process_s = 0.0;
  double children_s = 0.0;
};
[[nodiscard]] CpuTotals cpu_totals(const std::vector<pid_t>& children);

/// CPU seconds of the calling thread (RUSAGE_THREAD).
[[nodiscard]] double thread_cpu_s();

/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 = this process.
[[nodiscard]] double vm_hwm_mb(pid_t pid);

/// Run provenance: nproc, build type, compiler, git describe and the seed,
/// so a figure can be re-checked on a seed not used while writing it.
[[nodiscard]] scwc::obs::Json provenance(const std::string& workload,
                                         std::uint64_t seed,
                                         const std::string& git_describe);

}  // namespace perfbench
