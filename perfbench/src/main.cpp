// perfbench — the repo benchmark: the paper's RF-on-covariance classifier
// served open loop, end to end, with a per-layer ledger timed from outside.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --worker <scwc_worker binary> --out-dir <dir>
//
// Workloads (deadline 20 ms everywhere, one generator thread):
//   serve_short_clean    ClassificationService, clean tiny-profile 60×7
//                        windows — the model path is predict-bound (ml)
//   serve_long_faulty    ClassificationService, paper-geometry 540×7 windows
//                        damaged by FaultInjector at severity 0.5 — impute
//                        and transform dominate (robust, preprocess)
//   cluster_short_clean  the serve_short_clean windows through ShardRouter
//                        to two forked scwc_workers over loopback SCWCWIRE
//                        (net, cluster)
//
// --trace 0 measures the end-to-end metrics with request tracing off in
// the service, the router and every worker. --trace 1 is the separate
// traced run: the layer ledger, the service instruments, and the same
// light, saturation and SLO-ladder phases untraced and traced, whose
// difference is the tracing overhead. Every verdict of every phase is
// checked against the single-window GuardedClassifier::classify label of a
// bundle that went through save_bundle/load_bundle; any mismatch fails the
// run.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name → {value, unit}).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/challenge.hpp"
#include "fleet.hpp"
#include "ledger.hpp"
#include "obs/json.hpp"
#include "openloop.hpp"
#include "robust/fault.hpp"
#include "robust/robust_window.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "telemetry/corpus.hpp"

namespace {

using namespace scwc;
using perfbench::Clock;
using perfbench::SpanLog;

constexpr double kDeadlineS = 0.020;
constexpr std::size_t kMaxBatch = 64;
constexpr std::size_t kPayloads = 1024;  ///< distinct payload windows per run
constexpr std::size_t kClusterJobs = 64;
constexpr std::size_t kClusterWorkers = 2;
constexpr std::size_t kSetups = 5;  ///< set-ups per --trace 0 run (median)
/// A --trace 0 run measures in rounds of about kRoundS seconds, each a
/// light phase, saturation phases and overload bursts. Each figure is the
/// lower quartile over rounds (the upper quartile for capacity): a slow
/// spell caused by other tenants of a shared host spoils some rounds and
/// is discounted, while a change to the program moves every round.
/// --seconds sets the number of rounds.
constexpr double kRoundS = 2.5;
constexpr double kLightS = 1.0;   ///< light phase per round
constexpr double kProbeS = 0.2;   ///< one capacity-ladder probe
constexpr double kBurstS = 0.05;  ///< one overload burst
/// Capacity is the rate of right verdicts while a closed loop keeps
/// kSaturationWindow requests in flight (four full batches), measured in
/// kSaturationsPerRound phases of kSaturationS per round. The SLO ladder
/// (highest Poisson rate meeting p99 ≤ deadline) hinges on a 0.2 s tail,
/// which one scheduler stall on a shared host flips; it is reported by the
/// traced run only.
constexpr std::size_t kSaturationWindow = 4 * kMaxBatch;
constexpr double kSaturationS = 0.25;
constexpr std::size_t kSaturationsPerRound = 3;
/// Overload bursts per round, each starting from an empty queue; the
/// goodput figure is the median over every burst of the run.
constexpr std::size_t kBurstsPerRound = 6;
/// Capacity ladder: light rate × 2^(k/32), a 2.2% step.
constexpr int kLadderStepsPerDoubling = 32;

struct WorkloadSpec {
  std::string name;
  bool paper_geometry = false;  ///< 540×7 @ 9 Hz, faulted; else 60×7 clean
  bool cluster = false;
  double light_wps = 0.0;     ///< fixed light rate (≈ capacity / 4)
  double overload_wps = 0.0;  ///< fixed overload rate (≈ 2 × capacity)
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"serve_short_clean", false, false, 40000.0, 300000.0},
      {"serve_long_faulty", true, false, 8000.0, 72000.0},
      {"cluster_short_clean", false, true, 9000.0, 72000.0},
  };
  return specs;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

double since(Clock::time_point t) {
  return perfbench::seconds_between(t, Clock::now());
}

// ------------------------------------------------------------- targets

/// The system under test behind one submit call: the single-process
/// service or the router in front of its forked fleet.
class Target {
 public:
  Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  virtual ~Target() = default;
  [[nodiscard]] virtual std::future<serve::ServeResult> submit(
      std::size_t request, const std::vector<double>& window,
      Clock::time_point due) = 0;
  /// Shard owning request `request`'s job (0 for the single process).
  [[nodiscard]] virtual std::uint32_t owner(std::size_t /*request*/) const {
    return 0;
  }
  [[nodiscard]] virtual std::vector<pid_t> children() const { return {}; }
  virtual void stop() = 0;
};

class ServeTarget final : public Target {
 public:
  ServeTarget(std::shared_ptr<const serve::ModelBundle> bundle,
              double trace_sample)
      : steps_(bundle->guard_config().window_steps),
        sensors_(bundle->guard_config().sensors) {
    registry_.register_bundle(std::move(bundle));
    serve::ServiceConfig config;
    config.assembler.window_steps = steps_;
    config.assembler.sensors = sensors_;
    config.batcher.max_batch = kMaxBatch;
    config.batcher.max_delay_s = kDeadlineS / 4.0;
    config.admission.max_pending = 4096;
    config.default_deadline_s = kDeadlineS;
    config.trace.sample_rate = trace_sample;
    service_ = std::make_unique<serve::ClassificationService>(registry_, config);
  }
  ~ServeTarget() override { stop(); }

  std::future<serve::ServeResult> submit(std::size_t /*request*/,
                                         const std::vector<double>& window,
                                         Clock::time_point due) override {
    return service_->submit(window, steps_, sensors_,
                            due + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(kDeadlineS)));
  }
  void stop() override { service_->stop(); }

 private:
  std::size_t steps_;
  std::size_t sensors_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::ClassificationService> service_;
};

class ClusterTarget final : public Target {
 public:
  ClusterTarget(const perfbench::FleetOptions& options, std::size_t workers,
                std::size_t steps, std::size_t sensors)
      : steps_(steps), sensors_(sensors) {
    fleet_ = perfbench::spawn_fleet(options, workers);
    try {
      cluster::RouterConfig config;
      config.default_deadline_s = kDeadlineS;
      config.trace.sample_rate = options.trace_sample;
      router_ = std::make_unique<cluster::ShardRouter>(config);
      for (const perfbench::WorkerProc& w : fleet_) router_->add_shard(w.port);
    } catch (...) {
      perfbench::reap_fleet(fleet_, 0.0);
      throw;
    }
  }
  ~ClusterTarget() override { stop(); }

  std::future<serve::ServeResult> submit(std::size_t request,
                                         const std::vector<double>& window,
                                         Clock::time_point /*due*/) override {
    return router_->submit(job_of(request), window, steps_, sensors_);
  }
  std::uint32_t owner(std::size_t request) const override {
    return router_->owner(job_of(request)).value_or(0);
  }
  std::vector<pid_t> children() const override {
    std::vector<pid_t> pids;
    for (const perfbench::WorkerProc& w : fleet_) {
      if (w.pid > 0) pids.push_back(w.pid);
    }
    return pids;
  }
  void stop() override {
    if (stopped_) return;
    stopped_ = true;
    router_->shutdown_workers();
    router_->stop();
    perfbench::reap_fleet(fleet_, 5.0);
  }

 private:
  static std::int64_t job_of(std::size_t request) {
    return static_cast<std::int64_t>(request % kClusterJobs);
  }

  std::size_t steps_;
  std::size_t sensors_;
  std::vector<perfbench::WorkerProc> fleet_;
  std::unique_ptr<cluster::ShardRouter> router_;
  bool stopped_ = false;
};

// --------------------------------------------------------------- set-up

struct Options {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_bin;
  std::string out_dir;
  std::string git_describe;
};

struct SetupTimes {
  double corpus_s = 0.0;
  double dataset_s = 0.0;
  double train_s = 0.0;
  double bundle_load_s = 0.0;
  double bringup_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
};

/// Everything one set-up produces: the served bundle, the reference bundle
/// (the same model after save_bundle/load_bundle), the test split the
/// payload is drawn from, and the running target.
struct Setup {
  std::shared_ptr<const serve::ModelBundle> bundle;
  std::shared_ptr<const serve::ModelBundle> reference;
  std::string bundle_path;
  data::Tensor3 x_test;
  std::size_t steps = 0;
  std::size_t sensors = 0;
  std::unique_ptr<Target> target;
  SetupTimes times;
};

perfbench::FleetOptions fleet_options(const Options& opt, const Setup& s,
                                      const std::string& tag,
                                      double trace_sample) {
  perfbench::FleetOptions o;
  o.worker_bin = opt.worker_bin;
  o.bundle_path = s.bundle_path;
  o.work_dir = opt.out_dir;
  o.tag = opt.spec.name + "-" + tag;
  o.batch_delay_ms = kDeadlineS / 4.0 * 1000.0;
  o.trace_sample = trace_sample;
  return o;
}

std::unique_ptr<Target> make_target(const Options& opt, const Setup& s,
                                     const std::string& tag,
                                     double trace_sample) {
  if (opt.spec.cluster) {
    return std::make_unique<ClusterTarget>(
        fleet_options(opt, s, tag, trace_sample), kClusterWorkers, s.steps,
        s.sensors);
  }
  return std::make_unique<ServeTarget>(s.bundle, trace_sample);
}

/// Submits `count` clean test windows and waits for every verdict.
void warm_up(Target& target, const data::Tensor3& x, std::size_t count) {
  std::vector<std::future<serve::ServeResult>> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto w = x.trial(i % x.trials());
    pending.push_back(target.submit(i, std::vector<double>(w.begin(), w.end()),
                                    Clock::now()));
  }
  for (auto& f : pending) (void)f.get();
}

Setup set_up(const Options& opt, std::size_t index) {
  Setup s;
  const Clock::time_point start = Clock::now();
  const ScaleProfile profile = ScaleProfile::named("tiny");

  Clock::time_point t = Clock::now();
  telemetry::CorpusConfig corpus_config;
  corpus_config.jobs_per_class_scale = profile.jobs_per_class;
  const telemetry::Corpus corpus = telemetry::generate_corpus(corpus_config);
  s.times.corpus_s = since(t);

  t = Clock::now();
  core::ChallengeConfig cfg = core::ChallengeConfig::from_profile(profile);
  if (opt.spec.paper_geometry) {
    cfg.window_steps = 540;  // Table IV: 60 s at 9 Hz
    cfg.sample_hz = 9.0;
  }
  data::ChallengeDataset ds = core::build_challenge_dataset(
      corpus, cfg, data::WindowPolicy::kRandom, 0);  // 60-random-1
  s.times.dataset_s = since(t);

  t = Clock::now();
  serve::RfBundleSpec spec;
  spec.version = "rf-cov-v1";
  spec.pipeline = {preprocess::Reduction::kCovariance, 0};
  spec.forest.n_estimators = 100;
  s.bundle = serve::train_rf_bundle(spec, ds.x_train, ds.y_train);
  s.times.train_s = since(t);

  s.bundle_path = opt.out_dir + "/" + opt.spec.name + "-bundle" +
                  std::to_string(index) + ".scwcbndl";
  serve::save_bundle_file(*s.bundle, s.bundle_path);
  t = Clock::now();
  s.reference = serve::load_bundle_file(s.bundle_path);
  s.times.bundle_load_s = since(t);

  s.steps = ds.steps();
  s.sensors = ds.sensors();
  s.x_test = std::move(ds.x_test);

  t = Clock::now();
  s.target = make_target(opt, s, "setup" + std::to_string(index), 0.0);
  s.times.bringup_s = since(t);

  t = Clock::now();
  warm_up(*s.target, s.x_test, 1024);
  s.times.warmup_s = since(t);
  s.times.total_s = since(start);
  return s;
}

// -------------------------------------------------------------- payload

/// The seeded request payload and its reference verdicts.
struct Payload {
  std::vector<std::vector<double>> windows;
  std::vector<robust::GuardedPrediction> expected;
};

Payload make_payload(const Options& opt, const Setup& s) {
  Payload p;
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0x7061796cULL);
  const robust::FaultInjector injector(robust::FaultProfile::at_severity(0.5));
  for (std::size_t i = 0; i < kPayloads; ++i) {
    const auto src = s.x_test.trial(rng() % s.x_test.trials());
    std::vector<double> w(src.begin(), src.end());
    if (opt.spec.paper_geometry) {
      telemetry::TimeSeries series;
      series.sample_hz = 9.0;
      series.values = linalg::Matrix(s.steps, s.sensors);
      std::copy(w.begin(), w.end(), series.values.flat().begin());
      (void)injector.corrupt(series, rng);
      // Truncated tails come back NaN-padded to the full window, so they
      // reach imputation and the quality gate instead of a shape abstain.
      (void)robust::robust_extract_window(series, 0, s.steps, w);
    }
    p.expected.push_back(s.reference->guard().classify(w, s.steps, s.sensors));
    p.windows.push_back(std::move(w));
  }
  return p;
}

bool same_verdict(const robust::GuardedPrediction& a,
                  const robust::GuardedPrediction& b) {
  return a.label == b.label && a.abstained == b.abstained &&
         a.reason == b.reason;
}

// --------------------------------------------------------------- phases

/// Everything one open-loop phase measured.
struct PhaseStats {
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t accepted = 0;
  std::size_t shed = 0;
  std::size_t mismatched = 0;
  std::size_t good = 0;  ///< right verdict within the deadline from due
  std::map<std::string, std::size_t> shed_by_reason;
  std::vector<double> latency_s;  ///< from due; + deadline when failed
  std::vector<double> lag_s;
  std::vector<double> submit_s;
  std::vector<double> queue_s;
  std::vector<double> wire_s;
  std::vector<double> queue_first_third;
  std::vector<double> queue_last_third;
  std::vector<std::size_t> per_job = std::vector<std::size_t>(kClusterJobs, 0);
  double batch_size_sum = 0.0;
  double cpu_s = 0.0;  ///< process + workers − the two bench threads

  [[nodiscard]] std::size_t failed() const { return shed + mismatched; }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  [[nodiscard]] double latency_q(double q) const {
    return perfbench::quantile(latency_s, q);
  }
  /// The backlog grew by more than a quarter of the deadline between the
  /// first and the last third of the phase.
  [[nodiscard]] bool queue_growing() const {
    return perfbench::median(queue_last_third) >
           perfbench::median(queue_first_third) + kDeadlineS / 4.0;
  }
  [[nodiscard]] bool meets_slo() const {
    return latency_q(0.99) <= kDeadlineS && failed_frac() <= 0.01 &&
           !queue_growing();
  }
  [[nodiscard]] double cpu_us_per_window() const {
    return accepted == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(accepted);
  }
};

void record_spans(SpanLog& spans, double t0, const perfbench::Issued& r,
                  double latency, bool cluster) {
  const std::uint64_t id = spans.next_id();
  const double due = t0 + r.due_s;
  const double sub = due + r.lag_s;
  spans.add(id, "request", "", due, due + latency);
  spans.add(id, "generator.lag", "request", due, sub);
  spans.add(id, cluster ? "cluster.submit" : "serve.submit", "request", sub,
            sub + r.submit_s);
  // The phase breakdown the verdict carries, laid end to end from submit.
  const obs::RequestPhases& ph = r.result.phases;
  const std::pair<const char*, double> parts[] = {
      {"serve.admission", ph.admission_s}, {"cluster.route", ph.route_s},
      {"net.wire_send", ph.wire_send_s},   {"serve.queue", ph.queue_s},
      {"serve.batch_wait", ph.batch_wait_s},
      {"preprocess.transform", ph.transform_s},
      {"ml.predict", ph.predict_s},        {"net.wire_recv", ph.wire_recv_s}};
  double at = sub;
  for (const auto& [name, d] : parts) {
    if (d <= 0.0) continue;
    spans.add(id, name, "request", at, at + d);
    at += d;
  }
}

PhaseStats run_phase(Target& target, const Payload& payload, double rate,
                     double seconds, Rng& rng, SpanLog& spans, bool cluster) {
  const perfbench::Schedule schedule =
      perfbench::poisson_schedule(rate, seconds, payload.windows.size(), rng);
  PhaseStats st;
  st.rate = rate;
  st.seconds = seconds;
  const std::size_t n = schedule.due_s.size();
  st.latency_s.reserve(n);
  st.lag_s.reserve(n);
  st.submit_s.reserve(n);
  st.queue_s.reserve(n);
  double t0 = 0.0;

  const auto sink = [&](std::size_t i, perfbench::Issued&& r) {
    const serve::ServeResult& res = r.result;
    ++st.attempted;
    ++st.per_job[i % kClusterJobs];
    st.lag_s.push_back(r.lag_s);
    st.submit_s.push_back(r.submit_s);
    const bool right =
        res.accepted && same_verdict(res.prediction, payload.expected[r.payload]);
    if (!res.accepted) {
      ++st.shed;
      ++st.shed_by_reason[serve::reject_reason_name(res.reject_reason)];
    } else {
      ++st.accepted;
      if (!right) ++st.mismatched;
      // Worker-side queue for the cluster; submit → batch cut in-process.
      const double queue = cluster ? res.phases.queue_s : res.queue_delay_s;
      st.queue_s.push_back(queue);
      if (r.due_s < seconds / 3.0) st.queue_first_third.push_back(queue);
      if (r.due_s >= 2.0 * seconds / 3.0) st.queue_last_third.push_back(queue);
      st.wire_s.push_back(res.phases.wire_send_s + res.phases.wire_recv_s);
      st.batch_size_sum += static_cast<double>(res.batch_size);
    }
    // A failed request misses the latency limit: it counts as its own
    // latency plus the deadline.
    const double latency = r.lag_s + res.total_latency_s;
    st.latency_s.push_back(right ? latency : latency + kDeadlineS);
    if (right && latency <= kDeadlineS) ++st.good;
    if (spans.enabled()) record_spans(spans, t0, r, latency, cluster);
  };

  const std::vector<pid_t> kids = target.children();
  const perfbench::CpuTotals c0 = perfbench::cpu_totals(kids);
  t0 = spans.now_s();
  const perfbench::DriveReport d = perfbench::drive(
      schedule,
      [&](std::size_t i, Clock::time_point due) {
        return target.submit(i, payload.windows[schedule.payload[i]], due);
      },
      sink);
  const perfbench::CpuTotals c1 = perfbench::cpu_totals(kids);
  st.cpu_s = (c1.process_s - c0.process_s) - d.generator_s - d.collector_s +
             (c1.children_s - c0.children_s);
  return st;
}

/// One saturation phase: the service kept busy by a closed loop of
/// kSaturationWindow requests in flight.
struct Saturation {
  double wps = 0.0;  ///< right verdicts resolved in the phase per second
  std::size_t attempted = 0;
  std::size_t mismatched = 0;
  std::size_t shed = 0;
};

Saturation run_saturation(Target& target, const Payload& payload,
                          double seconds, Rng& rng) {
  Saturation sat;
  std::vector<std::uint32_t> order(payload.windows.size());
  for (std::uint32_t& p : order) {
    p = static_cast<std::uint32_t>(rng() % payload.windows.size());
  }
  std::size_t good = 0;
  sat.attempted = perfbench::saturate(
      kSaturationWindow, seconds,
      [&](std::size_t i) {
        return target.submit(i, payload.windows[order[i % order.size()]],
                             Clock::now());
      },
      [&](std::size_t i, serve::ServeResult&& res, bool in_time) {
        if (!res.accepted) {
          ++sat.shed;
        } else if (!same_verdict(res.prediction,
                                 payload.expected[order[i % order.size()]])) {
          ++sat.mismatched;
        } else if (in_time) {
          ++good;
        }
      });
  sat.wps = static_cast<double>(good) / seconds;
  return sat;
}

double ladder_rate(const WorkloadSpec& spec, int k) {
  return spec.light_wps * std::exp2(static_cast<double>(k) /
                                    static_cast<double>(kLadderStepsPerDoubling));
}

struct Probe {
  double rate = 0.0;
  bool ok = false;
  double p99_ms = 0.0;
  double failed_frac = 0.0;
  bool queue_growing = false;
  double lag_p99_ms = 0.0;
};

struct Capacity {
  double wps = 0.0;
  std::vector<Probe> probes;
  std::size_t attempted = 0;
  std::size_t mismatched = 0;
};

/// Highest ladder rate whose phase meets p99 ≤ deadline, failed ≤ 1% and
/// a non-growing queue: a coarse walk in half-doubling (×1.41) strides
/// from 1.5 doublings above the light rate, then bisection down to one
/// 2.2% step.
Capacity find_capacity(Target& target, const Payload& payload,
                       const WorkloadSpec& spec, double probe_s, Rng& rng,
                       SpanLog& spans) {
  Capacity cap;
  const auto probe = [&](int k) {
    const PhaseStats st = run_phase(target, payload, ladder_rate(spec, k),
                                    probe_s, rng, spans, spec.cluster);
    cap.attempted += st.attempted;
    cap.mismatched += st.mismatched;
    const bool ok = st.meets_slo();
    cap.probes.push_back({st.rate, ok, st.latency_q(0.99) * 1e3,
                          st.failed_frac(), st.queue_growing(),
                          perfbench::quantile(st.lag_s, 0.99) * 1e3});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // settle
    return ok;
  };
  constexpr int kStride = kLadderStepsPerDoubling / 2;
  constexpr int kLowest = -2 * kLadderStepsPerDoubling;
  constexpr int kHighest = 4 * kLadderStepsPerDoubling;
  int lo = kLowest - 1;  // highest passing step seen
  int hi = kHighest + 1;  // lowest failing step seen
  int k = 3 * kStride;
  if (probe(k)) {
    lo = k;
    for (k += kStride; k <= kHighest; k += kStride) {
      if (!probe(k)) {
        hi = k;
        break;
      }
      lo = k;
    }
  } else {
    hi = k;
    for (k -= kStride; k >= kLowest; k -= kStride) {
      if (probe(k)) {
        lo = k;
        break;
      }
      hi = k;
    }
  }
  if (lo >= kLowest && hi <= kHighest) {
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (probe(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  cap.wps = ladder_rate(spec, std::max(lo, kLowest));
  return cap;
}

/// The overload rate offered in short bursts, each starting from an empty
/// queue, so the figure does not hinge on one collapse.
struct Overload {
  double goodput_wps = 0.0;  ///< in-deadline answers per burst second
  std::vector<double> burst_goodput_wps;
  std::size_t attempted = 0;
  std::size_t accepted = 0;
  std::size_t mismatched = 0;
  std::map<std::string, std::size_t> shed_by_reason;
  std::vector<double> lag_p99_ms;
};

Overload run_overload(Target& target, const Payload& payload,
                      const WorkloadSpec& spec, std::size_t bursts,
                      double burst_s, Rng& rng, SpanLog& spans) {
  Overload o;
  std::size_t good = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    const PhaseStats st = run_phase(target, payload, spec.overload_wps,
                                    burst_s, rng, spans, spec.cluster);
    o.burst_goodput_wps.push_back(static_cast<double>(st.good) / st.seconds);
    good += st.good;
    o.attempted += st.attempted;
    o.accepted += st.accepted;
    o.mismatched += st.mismatched;
    for (const auto& [reason, n] : st.shed_by_reason) o.shed_by_reason[reason] += n;
    o.lag_p99_ms.push_back(perfbench::quantile(st.lag_s, 0.99) * 1e3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // settle
  }
  o.goodput_wps = static_cast<double>(good) / (burst_s * static_cast<double>(bursts));
  return o;
}

obs::Json overload_json(const Overload& o) {
  obs::Json::Object shed;
  for (const auto& [reason, count] : o.shed_by_reason) {
    shed[reason] = obs::Json(static_cast<double>(count));
  }
  obs::Json::Array bursts;
  for (std::size_t b = 0; b < o.burst_goodput_wps.size(); ++b) {
    bursts.push_back(obs::Json::Object{
        {"goodput_wps", obs::Json(o.burst_goodput_wps[b])},
        {"generator_lag_p99_ms", obs::Json(o.lag_p99_ms[b])}});
  }
  return obs::Json::Object{
      {"goodput_wps", obs::Json(o.goodput_wps)},
      {"attempted", obs::Json(static_cast<double>(o.attempted))},
      {"accepted", obs::Json(static_cast<double>(o.accepted))},
      {"mismatched", obs::Json(static_cast<double>(o.mismatched))},
      {"shed", obs::Json(std::move(shed))},
      {"bursts", obs::Json(std::move(bursts))}};
}

void print_overload(const char* label, const WorkloadSpec& spec,
                    const Overload& o) {
  std::cout << label << ": " << spec.overload_wps << " w/s in "
            << o.burst_goodput_wps.size() << " bursts, " << o.attempted << " attempted, " << o.accepted
            << " accepted, " << o.mismatched << " mismatched; goodput per burst";
  for (const double g : o.burst_goodput_wps) std::cout << ' ' << static_cast<long>(g);
  std::cout << " w/s; generator lag p99 per burst";
  for (const double l : o.lag_p99_ms) std::cout << ' ' << fmt(l);
  std::cout << " ms\n";
}

// --------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    os << (i ? ", " : "") << '"' << name << "\": {\"value\": "
       << (std::isfinite(m.value) ? fmt(m.value) : "null")
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

obs::Json metrics_json(const Metrics& metrics) {
  obs::Json::Object o;
  for (const auto& [name, m] : metrics) {
    o[name] = obs::Json::Object{{"value", obs::Json(m.value)},
                                {"unit", obs::Json(m.unit)}};
  }
  return obs::Json(std::move(o));
}

obs::Json phase_json(const PhaseStats& st) {
  obs::Json::Object shed;
  for (const auto& [reason, count] : st.shed_by_reason) {
    shed[reason] = obs::Json(static_cast<double>(count));
  }
  return obs::Json::Object{
      {"rate_wps", obs::Json(st.rate)},
      {"seconds", obs::Json(st.seconds)},
      {"attempted", obs::Json(static_cast<double>(st.attempted))},
      {"accepted", obs::Json(static_cast<double>(st.accepted))},
      {"mismatched", obs::Json(static_cast<double>(st.mismatched))},
      {"shed", obs::Json(std::move(shed))},
      {"latency_p50_ms", obs::Json(st.latency_q(0.50) * 1e3)},
      {"latency_p99_ms", obs::Json(st.latency_q(0.99) * 1e3)},
      {"samples", obs::Json(static_cast<double>(st.latency_s.size()))},
      {"generator_lag_p50_ms",
       obs::Json(perfbench::quantile(st.lag_s, 0.50) * 1e3)},
      {"generator_lag_p99_ms",
       obs::Json(perfbench::quantile(st.lag_s, 0.99) * 1e3)},
      {"cpu_us_per_window", obs::Json(st.cpu_us_per_window())}};
}

void print_phase(const char* label, const PhaseStats& st) {
  std::cout << std::fixed << std::setprecision(3) << label << ": "
            << st.rate << " w/s offered for " << st.seconds << " s, "
            << st.attempted << " attempted, " << st.accepted << " accepted, "
            << st.shed << " shed, " << st.mismatched << " mismatched; p50 "
            << st.latency_q(0.50) * 1e3 << " ms, p99 "
            << st.latency_q(0.99) * 1e3 << " ms (n=" << st.latency_s.size()
            << "); generator lag p50/p99 "
            << perfbench::quantile(st.lag_s, 0.50) * 1e3 << "/"
            << perfbench::quantile(st.lag_s, 0.99) * 1e3 << " ms\n";
  std::cout.unsetf(std::ios::floatfield);
}

/// Writes the run's detail document next to the build and says where.
void write_detail(const Options& opt, obs::Json::Object detail) {
  detail["provenance"] =
      perfbench::provenance(opt.spec.name, opt.seed, opt.git_describe);
  const std::string path = opt.out_dir + "/" + opt.spec.name + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream os(path);
  obs::Json(std::move(detail)).write(os, 2);
  os << '\n';
  std::cout << "detail: " << path << '\n';
}

/// Generator lag p99 at the light rate beyond which a run is flagged.
constexpr double kGeneratorLagLimitS = 0.001;

// ------------------------------------------------------------ the runs

/// One measuring round of a --trace 0 run.
struct Round {
  PhaseStats light;
  std::vector<Saturation> sats;
  Overload over;
};

obs::Json round_json(const Round& r) {
  obs::Json::Array sats;
  for (const Saturation& s : r.sats) {
    sats.push_back(obs::Json::Object{
        {"wps", obs::Json(s.wps)},
        {"attempted", obs::Json(static_cast<double>(s.attempted))},
        {"shed", obs::Json(static_cast<double>(s.shed))},
        {"mismatched", obs::Json(static_cast<double>(s.mismatched))}});
  }
  return obs::Json::Object{{"light", phase_json(r.light)},
                           {"saturation", obs::Json(std::move(sats))},
                           {"overload", overload_json(r.over)}};
}

obs::Json probes_json(const Capacity& cap) {
  obs::Json::Array probes;
  for (const Probe& p : cap.probes) {
    probes.push_back(obs::Json::Object{
        {"rate_wps", obs::Json(p.rate)},
        {"met_slo", obs::Json(p.ok)},
        {"latency_p99_ms", obs::Json(p.p99_ms)},
        {"failed_frac", obs::Json(p.failed_frac)},
        {"queue_growing", obs::Json(p.queue_growing)},
        {"generator_lag_p99_ms", obs::Json(p.lag_p99_ms)}});
  }
  return obs::Json(std::move(probes));
}

int run_end_to_end(const Options& opt) {
  const WorkloadSpec& spec = opt.spec;
  SpanLog spans(false);

  // The first set-up serves every round; its peak resident set, taken
  // after the first light phase, is one bring-up plus light-rate serving.
  std::vector<double> setup_totals;
  Setup s = set_up(opt, 0);
  setup_totals.push_back(s.times.total_s);
  const Payload payload = make_payload(opt, s);

  Rng rng(opt.seed ^ 0x6f70656e6c6f6f70ULL);
  const auto round_count =
      std::max<std::size_t>(3, static_cast<std::size_t>(opt.seconds / kRoundS));
  std::vector<Round> rounds;
  double rss_mb = 0.0;
  for (std::size_t r = 0; r < round_count; ++r) {
    Round round;
    round.light = run_phase(*s.target, payload, spec.light_wps, kLightS, rng,
                            spans, spec.cluster);
    if (r == 0) {
      rss_mb = perfbench::vm_hwm_mb(0);
      for (const pid_t pid : s.target->children()) rss_mb += perfbench::vm_hwm_mb(pid);
    }
    for (std::size_t k = 0; k < kSaturationsPerRound; ++k) {
      round.sats.push_back(run_saturation(*s.target, payload, kSaturationS, rng));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // settle
    }
    round.over = run_overload(*s.target, payload, spec, kBurstsPerRound,
                              kBurstS, rng, spans);
    std::cout << "round " << r << ": light p50/p99 "
              << fmt(round.light.latency_q(0.50) * 1e3) << "/"
              << fmt(round.light.latency_q(0.99) * 1e3) << " ms (n="
              << round.light.attempted << ", " << round.light.failed()
              << " failed, generator lag p99 "
              << fmt(perfbench::quantile(round.light.lag_s, 0.99) * 1e3)
              << " ms), cpu " << fmt(round.light.cpu_us_per_window())
              << " us/window; saturated";
    for (const Saturation& sat : round.sats) std::cout << ' ' << fmt(sat.wps);
    std::cout << " w/s; goodput at "
              << spec.overload_wps << " w/s " << fmt(round.over.goodput_wps)
              << " w/s\n";
    rounds.push_back(std::move(round));
  }
  s.target->stop();

  // Further set-ups are only timed; setup_s is the median of all of them.
  for (std::size_t i = 1; i < kSetups; ++i) {
    Setup again = set_up(opt, i);
    again.target->stop();
    setup_totals.push_back(again.times.total_s);
  }

  // A failed operation is a wrong verdict. Sheds are counted apart: under
  // overload they are the measured response, and at the light rate the
  // rare one a host stall causes already costs its request the deadline
  // in the latency figures.
  std::size_t attempted = 0;
  std::size_t mismatched = 0;
  std::size_t light_shed = 0;
  std::vector<double> p50, p99, cpu, capacity, goodput, lag_p99;
  for (const Round& r : rounds) {
    attempted += r.light.attempted + r.over.attempted;
    mismatched += r.light.mismatched + r.over.mismatched;
    light_shed += r.light.shed;
    for (const Saturation& sat : r.sats) {
      attempted += sat.attempted;
      mismatched += sat.mismatched;
      capacity.push_back(sat.wps);
    }
    p50.push_back(r.light.latency_q(0.50));
    p99.push_back(r.light.latency_q(0.99));
    cpu.push_back(r.light.cpu_us_per_window());
    goodput.insert(goodput.end(), r.over.burst_goodput_wps.begin(),
                   r.over.burst_goodput_wps.end());
    lag_p99.push_back(perfbench::quantile(r.light.lag_s, 0.99));
  }
  const double lag = perfbench::median(lag_p99);
  const bool generator_behind = lag > kGeneratorLagLimitS;

  const Metrics metrics = {
      {"setup_s", {perfbench::median(setup_totals), "s"}},
      {"capacity_wps", {perfbench::quantile(capacity, 0.75), "windows/s"}},
      {"latency_p50_ms", {perfbench::quantile(p50, 0.25) * 1e3, "ms"}},
      {"cpu_us_per_window", {perfbench::quantile(cpu, 0.25), "us"}},
      {"rss_peak_mb", {rss_mb, "MiB"}},
  };

  if (generator_behind) {
    std::cout << "FLAG: generator fell behind at the light rate (lag p99 "
              << fmt(lag * 1e3) << " ms > " << kGeneratorLagLimitS * 1e3
              << " ms); latency figures include that lag\n";
  }
  std::cout << "lower quartile over " << round_count
            << " rounds (capacity: upper quartile over " << capacity.size()
            << " saturation phases of " << kSaturationWindow
            << " in flight); latency from each request's due time, "
            << rounds.front().light.attempted << " samples per light phase; "
               "tracing off (service/router sample_rate 0, worker "
               "--trace-sample 0)\n";
  for (const auto& [name, m] : metrics) {
    std::cout << "  " << std::left << std::setw(22) << name << std::right
              << fmt(m.value) << ' ' << m.unit << '\n';
  }
  // Two figures are printed but bounded nowhere; the traced run reports
  // both as per-layer figures. The light-rate p99 doubles whenever other
  // tenants load the host, for minutes at a time, while the median and
  // CPU per window barely move. Goodput under overload is the size of the
  // transient before the backlog outgrows the deadline, which amplifies
  // every drift in host speed.
  const double p99_ms = perfbench::quantile(p99, 0.25) * 1e3;
  const double goodput_wps = perfbench::median(goodput);
  std::cout << "  " << std::left << std::setw(22) << "latency_p99_ms"
            << std::right << fmt(p99_ms) << " ms (unbounded)\n";
  std::cout << "  " << std::left << std::setw(22) << "goodput_overload_wps"
            << std::right << fmt(goodput_wps) << " windows/s (median of "
            << goodput.size() << " bursts at " << spec.overload_wps
            << " w/s; unbounded)\n";
  std::cout << "oracle: " << attempted - mismatched << "/" << attempted
            << " verdicts match the single-window reference; " << light_shed
            << " light-rate requests shed\n";

  obs::Json::Array round_list;
  for (const Round& r : rounds) round_list.push_back(round_json(r));
  obs::Json::Array setups;
  for (const double t : setup_totals) setups.push_back(obs::Json(t));
  write_detail(opt, obs::Json::Object{
      {"metrics", metrics_json(metrics)},
      {"rounds", obs::Json(std::move(round_list))},
      {"setup_totals_s", obs::Json(std::move(setups))},
      {"generator_lag_p99_ms", obs::Json(lag * 1e3)},
      {"light_shed", obs::Json(static_cast<double>(light_shed))},
      {"latency_p99_ms", obs::Json(p99_ms)},
      {"goodput_overload_wps", obs::Json(goodput_wps)},
      {"generator_behind", obs::Json(generator_behind)},
      {"trace_sample_rates", obs::Json::Object{{"service_or_router", obs::Json(0.0)},
                                               {"workers", obs::Json(0.0)}}},
      {"rates_wps", obs::Json::Object{{"light", obs::Json(spec.light_wps)},
                                      {"overload", obs::Json(spec.overload_wps)}}},
      {"deadline_ms", obs::Json(kDeadlineS * 1e3)}});

  std::cout << result_line(mismatched == 0, attempted, mismatched, metrics)
            << '\n';
  return mismatched == 0 ? 0 : 1;
}

/// Median saturated rate over `phases` saturation phases.
double saturated_wps(Target& target, const Payload& payload, std::size_t phases,
                     Rng& rng, std::size_t& attempted, std::size_t& mismatched) {
  std::vector<double> wps;
  for (std::size_t k = 0; k < phases; ++k) {
    const Saturation sat = run_saturation(target, payload, kSaturationS, rng);
    wps.push_back(sat.wps);
    attempted += sat.attempted;
    mismatched += sat.mismatched;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // settle
  }
  return perfbench::median(wps);
}

int run_traced(const Options& opt) {
  const WorkloadSpec& spec = opt.spec;
  SpanLog spans(true);
  SpanLog untraced_spans(false);
  Setup s = set_up(opt, 0);
  const Payload payload = make_payload(opt, s);

  const perfbench::Ledger ledger = perfbench::measure_ledger(
      *s.bundle, payload.windows, s.steps, s.sensors, 0.1 * opt.seconds, spans);

  const double light_s = 0.1 * opt.seconds;
  const double probe_s = kProbeS;
  const double burst_s = kBurstS;

  // The same schedules untraced and traced: each side reseeds identically.
  const std::uint64_t phase_seed = opt.seed ^ 0x6f70656e6c6f6f70ULL;
  Rng rng_off(phase_seed);
  const PhaseStats light_off = run_phase(*s.target, payload, spec.light_wps,
                                         light_s, rng_off, untraced_spans, spec.cluster);
  const Capacity cap_off =
      find_capacity(*s.target, payload, spec, probe_s, rng_off, untraced_spans);
  const Overload over_off = run_overload(*s.target, payload, spec, 4 * kBurstsPerRound,
                                         burst_s, rng_off, untraced_spans);
  print_overload("overload", spec, over_off);
  std::size_t sat_attempted = 0;
  std::size_t sat_mismatched = 0;
  Rng sat_rng_off(phase_seed + 1);
  const double sat_off = saturated_wps(*s.target, payload, 4, sat_rng_off,
                                       sat_attempted, sat_mismatched);
  s.target->stop();

  const std::unique_ptr<Target> traced = make_target(opt, s, "traced", 1.0);
  warm_up(*traced, s.x_test, 1024);
  Rng rng_on(phase_seed);
  const PhaseStats light_on = run_phase(*traced, payload, spec.light_wps, light_s,
                                        rng_on, spans, spec.cluster);
  print_phase("light (traced)", light_on);
  // Request spans come from the traced light phase only; the probes run
  // traced but keep no spans of their own.
  const Capacity cap_on =
      find_capacity(*traced, payload, spec, probe_s, rng_on, untraced_spans);
  Rng sat_rng_on(phase_seed + 1);
  const double sat_on = saturated_wps(*traced, payload, 4, sat_rng_on,
                                      sat_attempted, sat_mismatched);
  double shard_skew = 1.0;
  if (spec.cluster) {
    std::map<std::uint32_t, double> per_shard;
    for (std::size_t j = 0; j < kClusterJobs; ++j) {
      per_shard[traced->owner(j)] += static_cast<double>(light_on.per_job[j]);
    }
    double max_w = 0.0;
    double sum_w = 0.0;
    for (const auto& [shard, w] : per_shard) {
      max_w = std::max(max_w, w);
      sum_w += w;
    }
    // Mean over every shard of the fleet, including any that got nothing.
    shard_skew = max_w / (sum_w / static_cast<double>(kClusterWorkers));
  }
  traced->stop();

  // On the serve workloads nothing goes through the router: the cluster
  // figures there come from a one-shard probe on the same windows (what
  // routing this workload would cost), and cluster.routed_frac says so.
  PhaseStats routed = light_on;
  if (!spec.cluster) {
    ClusterTarget probe(fleet_options(opt, s, "probe", 0.0), 1, s.steps, s.sensors);
    warm_up(probe, s.x_test, 256);
    Rng rng_probe(phase_seed);
    routed = run_phase(probe, payload, spec.light_wps / 4.0, 0.05 * opt.seconds,
                       rng_probe, untraced_spans, true);
    probe.stop();
  }

  // A failed operation is a wrong verdict; sheds are reported apart.
  const std::size_t mismatched = light_off.mismatched + cap_off.mismatched +
                                 over_off.mismatched + light_on.mismatched +
                                 cap_on.mismatched + sat_mismatched +
                                 (spec.cluster ? 0 : routed.mismatched);
  const std::size_t attempted = light_off.attempted + cap_off.attempted +
                                over_off.attempted + light_on.attempted +
                                cap_on.attempted + sat_attempted +
                                (spec.cluster ? 0 : routed.attempted);

  std::size_t abstained = 0;
  double missing = 0.0;
  for (const auto& e : payload.expected) {
    abstained += e.abstained ? 1 : 0;
    missing += e.report.missing_fraction();
  }
  const double over_attempted =
      static_cast<double>(std::max<std::size_t>(over_off.attempted, 1));
  const auto shed_frac = [&](const char* reason) {
    const auto it = over_off.shed_by_reason.find(reason);
    return it == over_off.shed_by_reason.end()
               ? 0.0
               : static_cast<double>(it->second) / over_attempted;
  };
  const std::size_t s64 = s.steps * s.sensors;
  const Metrics metrics = {
      {"ml.predict_us_per_window.b64", {ledger.predict_b64_us, "us"}},
      {"ml.predict_us_per_window.b1", {ledger.predict_b1_us, "us"}},
      {"preprocess.transform_us_per_window.b64", {ledger.transform_b64_us, "us"}},
      {"preprocess.bytes_per_window",
       {static_cast<double>(s64 * sizeof(double)), "bytes"}},
      {"preprocess.cov_flops_per_window",
       {static_cast<double>(2 * s64 + s.steps * s.sensors * (s.sensors + 1)),
        "flop"}},
      {"robust.impute_us_per_window", {ledger.impute_us, "us"}},
      {"robust.classify_batch_us_per_window.b64", {ledger.classify_b64_us, "us"}},
      {"robust.classify_batch_us_per_window.b1", {ledger.classify_b1_us, "us"}},
      {"robust.residual_us_per_window", {ledger.residual_us, "us"}},
      {"robust.abstain_frac",
       {static_cast<double>(abstained) / static_cast<double>(kPayloads), "frac"}},
      {"robust.missing_frac", {missing / static_cast<double>(kPayloads), "frac"}},
      {"latency_p99_ms", {light_off.latency_q(0.99) * 1e3, "ms"}},
      {"serve.submit_us_p50", {perfbench::median(light_on.submit_s) * 1e6, "us"}},
      {"serve.queue_ms_p50", {perfbench::quantile(light_on.queue_s, 0.50) * 1e3, "ms"}},
      {"serve.queue_ms_p99", {perfbench::quantile(light_on.queue_s, 0.99) * 1e3, "ms"}},
      {"serve.batch_size_mean",
       {light_on.batch_size_sum /
            static_cast<double>(std::max<std::size_t>(light_on.accepted, 1)),
        "windows"}},
      {"serve.accept_frac",
       {static_cast<double>(over_off.accepted) / over_attempted, "frac"}},
      {"serve.goodput_overload_wps",
       {perfbench::median(over_off.burst_goodput_wps), "windows/s"}},
      {"serve.shed.queue_full", {shed_frac("queue_full"), "frac"}},
      {"serve.shed.executor", {shed_frac("executor"), "frac"}},
      {"serve.shed.deadline", {shed_frac("deadline"), "frac"}},
      {"net.encode_submit_us", {ledger.encode_submit_us, "us"}},
      {"net.decode_submit_us", {ledger.decode_submit_us, "us"}},
      {"net.encode_verdict_us", {ledger.encode_verdict_us, "us"}},
      {"net.decode_verdict_us", {ledger.decode_verdict_us, "us"}},
      {"net.frame_bytes_per_window", {ledger.frame_bytes_per_window, "bytes"}},
      {"cluster.routed_frac", {spec.cluster ? 1.0 : 0.0, "frac"}},
      {"cluster.submit_us_p50", {perfbench::median(routed.submit_s) * 1e6, "us"}},
      {"cluster.wire_ms_p50", {perfbench::median(routed.wire_s) * 1e3, "ms"}},
      {"cluster.shard_skew", {shard_skew, "ratio"}},
      {"telemetry.corpus_s", {s.times.corpus_s, "s"}},
      {"data.dataset_s", {s.times.dataset_s, "s"}},
      {"ml.train_s", {s.times.train_s, "s"}},
      {"serve.bundle_load_s", {s.times.bundle_load_s, "s"}},
      {"gen.lag_ms_p99", {perfbench::quantile(light_on.lag_s, 0.99) * 1e3, "ms"}},
      {"obs.trace_overhead_frac",
       {light_on.cpu_us_per_window() / light_off.cpu_us_per_window() - 1.0,
        "frac"}},
      {"obs.trace_capacity_ratio", {sat_on / sat_off, "ratio"}},
      {"serve.slo_capacity_wps", {cap_off.wps, "windows/s"}},
  };

  // Ledger shares of classify_batch at batch 64, and the design check.
  const double whole = ledger.classify_b64_us;
  const double share_impute = ledger.impute_us / whole;
  const double share_transform = ledger.transform_b64_us / whole;
  const double share_predict = ledger.predict_b64_us / whole;
  const double share_residual = ledger.residual_us / whole;
  std::cout << std::setprecision(3) << "ledger (classify_batch b64 = " << whole
            << " us/window): impute " << share_impute * 100 << "%, transform "
            << share_transform * 100 << "%, predict " << share_predict * 100
            << "%, residual " << share_residual * 100 << "%\n";
  std::cout << "ledger closure (parts ≤ whole, outside ≈ classify_batch's own "
               "transform+predict "
            << ledger.inside_transform_us + ledger.inside_predict_us
            << " us): " << (ledger.closes ? "ok" : "NOT CLOSED") << '\n';
  const bool predict_largest =
      share_predict >= std::max({share_impute, share_transform, share_residual});
  const bool impute_transform_bound = share_impute + share_transform > 0.75;
  std::cout << "design check: predict is the largest share: "
            << (predict_largest ? "yes" : "no")
            << "; impute + transform > 3/4: "
            << (impute_transform_bound ? "yes" : "no") << '\n';
  std::cout << "geometry-derived (not measured): preprocess.bytes_per_window "
               "= steps×sensors×8, preprocess.cov_flops_per_window = "
               "2·steps·sensors (scale) + steps·sensors·(sensors+1) "
               "(upper-triangle covariance multiply-adds)\n";
  std::cout << "tracing: traced side sample_rate 1 (service/router) and worker "
               "--trace-sample 1; untraced side 0 and 0\n";
  for (const auto& [name, m] : metrics) {
    std::cout << "  " << std::left << std::setw(42) << name << std::right
              << fmt(m.value) << ' ' << m.unit << '\n';
  }

  // One span file per workload, overwritten by the next traced run.
  const std::string span_path = opt.out_dir + "/" + spec.name + "-spans.jsonl";
  if (!spans.write(span_path)) {
    std::cout << "cannot write spans to " << span_path << '\n';
    return 1;
  }
  std::cout << "spans: " << spans.size() << " → " << span_path << '\n';
  write_detail(opt, obs::Json::Object{
      {"metrics", metrics_json(metrics)},
      {"ledger_shares", obs::Json::Object{
           {"impute", obs::Json(share_impute)},
           {"transform", obs::Json(share_transform)},
           {"predict", obs::Json(share_predict)},
           {"residual", obs::Json(share_residual)}}},
      {"ledger_closes", obs::Json(ledger.closes)},
      {"design_check", obs::Json::Object{
           {"predict_largest_share", obs::Json(predict_largest)},
           {"impute_plus_transform_over_three_quarters",
            obs::Json(impute_transform_bound)}}},
      {"light_untraced", phase_json(light_off)},
      {"light_traced", phase_json(light_on)},
      {"overload", overload_json(over_off)},
      {"setup_s", obs::Json::Object{
           {"corpus", obs::Json(s.times.corpus_s)},
           {"dataset", obs::Json(s.times.dataset_s)},
           {"train", obs::Json(s.times.train_s)},
           {"bundle_load", obs::Json(s.times.bundle_load_s)},
           {"bringup", obs::Json(s.times.bringup_s)},
           {"warmup", obs::Json(s.times.warmup_s)},
           {"total", obs::Json(s.times.total_s)}}},
      {"saturated_untraced_wps", obs::Json(sat_off)},
      {"saturated_traced_wps", obs::Json(sat_on)},
      {"slo_capacity_untraced_wps", obs::Json(cap_off.wps)},
      {"slo_capacity_traced_wps", obs::Json(cap_on.wps)},
      {"slo_capacity_probes_untraced", probes_json(cap_off)},
      {"trace_sample_rates", obs::Json::Object{
           {"untraced", obs::Json(0.0)}, {"traced", obs::Json(1.0)}}}});

  std::cout << result_line(mismatched == 0, attempted, mismatched, metrics)
            << '\n';
  return mismatched == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("The repo benchmark: open-loop serving of the RF-on-covariance "
                "classifier, end to end and per layer.");
  cli.add_flag("workload", "", "serve_short_clean | serve_long_faulty | "
                               "cluster_short_clean");
  cli.add_flag("seed", "1", "workload seed: payload windows, faults, arrivals");
  cli.add_flag("seconds", "10", "measured seconds per run");
  cli.add_flag("trace", "0", "1 = the traced per-layer run");
  cli.add_flag("worker", "", "scwc_worker binary");
  cli.add_flag("out-dir", ".", "where bundles, logs, spans and details go");
  cli.add_flag("git-describe", "unknown", "source revision, for provenance");
  cli.add_flag("list", "0", "1 = print the workload names and exit");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;
  if (cli.get_int("list") != 0) {
    for (const WorkloadSpec& w : workloads()) std::cout << w.name << '\n';
    return 0;
  }

  Options opt;
  const std::string name = cli.get_string("workload");
  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const WorkloadSpec& w) { return w.name == name; });
  if (it == workloads().end()) {
    std::cerr << "unknown workload '" << name << "'\n";
    return 2;
  }
  opt.spec = *it;
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opt.seconds = cli.get_double("seconds");
  opt.trace = cli.get_int("trace") != 0;
  opt.worker_bin = cli.get_string("worker");
  opt.out_dir = cli.get_string("out-dir");
  opt.git_describe = cli.get_string("git-describe");
  std::filesystem::create_directories(opt.out_dir);

  std::cout << "perfbench " << opt.spec.name << " seed " << opt.seed << ", "
            << opt.seconds << " s, trace " << opt.trace << ", nproc "
            << std::thread::hardware_concurrency() << ", " << PERFBENCH_BUILD_TYPE
            << ", " << PERFBENCH_COMPILER << ", " << opt.git_describe << '\n';
  try {
    return opt.trace ? run_traced(opt) : run_end_to_end(opt);
  } catch (const std::exception& e) {
    std::cout << "perfbench failed: " << e.what() << '\n';
    return 1;
  }
}
