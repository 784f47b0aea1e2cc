#include "openloop.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Schedule poisson_schedule(double rate, double seconds, std::size_t payloads,
                          scwc::Rng& rng) {
  Schedule s;
  s.rate = rate;
  s.seconds = seconds;
  const auto expect = static_cast<std::size_t>(rate * seconds * 1.1) + 16;
  s.due_s.reserve(expect);
  s.payload.reserve(expect);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    s.due_s.push_back(t);
    s.payload.push_back(static_cast<std::uint32_t>(rng() % payloads));
  }
  return s;
}

double thread_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

DriveReport drive(
    const Schedule& schedule,
    const std::function<std::future<scwc::serve::ServeResult>(
        std::size_t, Clock::time_point)>& submit,
    const std::function<void(std::size_t, Issued&&)>& sink) {
  const std::size_t n = schedule.due_s.size();
  std::vector<std::future<scwc::serve::ServeResult>> futures(n);
  std::vector<double> lag_s(n);
  std::vector<double> submit_s(n);
  std::atomic<std::size_t> published{0};
  std::atomic<bool> abandoned{false};
  DriveReport report;
  report.start = Clock::now();
  const Clock::time_point start = report.start;

  std::thread collector([&] {
    const double cpu0 = thread_cpu_s();
    for (std::size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        if (abandoned.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Issued done;
      done.due_s = schedule.due_s[i];
      done.lag_s = lag_s[i];
      done.submit_s = submit_s[i];
      done.payload = schedule.payload[i];
      try {
        done.result = futures[i].get();
      } catch (const std::exception&) {
        // A future that breaks instead of resolving is a lost request.
        done.result.reject_reason = scwc::serve::RejectReason::kInternal;
      }
      futures[i] = {};  // free the shared state as soon as it is read
      sink(i, std::move(done));
    }
    report.collector_s = thread_cpu_s() - cpu0;
  });

  const double cpu0 = thread_cpu_s();
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule.due_s[i]));
      // Sleep through long gaps, spin through short ones: a sleep
      // overshoots by tens of microseconds, which would show up as lag.
      for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
        if (due - now > std::chrono::microseconds(300)) {
          std::this_thread::sleep_for(due - now - std::chrono::microseconds(200));
        } else {
          std::this_thread::yield();
        }
      }
      const Clock::time_point t0 = Clock::now();
      futures[i] = submit(i, due);
      const Clock::time_point t1 = Clock::now();
      lag_s[i] = seconds_between(due, t0);
      submit_s[i] = seconds_between(t0, t1);
      published.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    abandoned.store(true);  // the collector drains what was published
    collector.join();
    throw;
  }
  report.generator_s = thread_cpu_s() - cpu0;
  collector.join();
  return report;
}

std::size_t saturate(
    std::size_t window, double seconds,
    const std::function<std::future<scwc::serve::ServeResult>(std::size_t)>& submit,
    const std::function<void(std::size_t, scwc::serve::ServeResult&&, bool)>& sink) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::deque<std::pair<std::size_t, std::future<scwc::serve::ServeResult>>> inflight;
  std::size_t issued = 0;
  bool open = true;
  while (true) {
    while (open && inflight.size() < window) {
      inflight.emplace_back(issued, submit(issued));
      ++issued;
    }
    if (inflight.empty()) break;
    auto [i, future] = std::move(inflight.front());
    inflight.pop_front();
    scwc::serve::ServeResult result;
    try {
      result = future.get();
    } catch (const std::exception&) {
      result.reject_reason = scwc::serve::RejectReason::kInternal;
    }
    const bool in_time = Clock::now() < end;
    open = open && in_time;
    sink(i, std::move(result), in_time);
  }
  return issued;
}

CpuTotals cpu_totals(const std::vector<pid_t>& children) {
  CpuTotals t;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  t.process_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (const pid_t pid : children) {
    std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(is, line)) continue;
    // utime and stime are fields 14 and 15; counting resumes at field 3
    // after the parenthesised command name, which may contain spaces.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int k = 3; k <= 15 && (rest >> field); ++k) {
      if (k == 14) utime = std::stod(field);
      if (k == 15) stime = std::stod(field);
    }
    t.children_s += (utime + stime) / tick;
  }
  return t;
}

double vm_hwm_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream is(path);
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

scwc::obs::Json provenance(const std::string& workload, std::uint64_t seed,
                           const std::string& git_describe) {
  return scwc::obs::Json::Object{
      {"workload", scwc::obs::Json(workload)},
      {"seed", scwc::obs::Json(static_cast<double>(seed))},
      {"nproc", scwc::obs::Json(static_cast<double>(
                    std::thread::hardware_concurrency()))},
      {"build_type", scwc::obs::Json(PERFBENCH_BUILD_TYPE)},
      {"compiler", scwc::obs::Json(PERFBENCH_COMPILER)},
      {"git_describe", scwc::obs::Json(git_describe)}};
}

}  // namespace perfbench
