#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "serve/audit.hpp"
#include "serve/chaos.hpp"

namespace scwc::serve {

using obs::seconds_between;

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// Absolute deadline for a request arriving now under `budget_s` (0 = none).
std::chrono::steady_clock::time_point deadline_from(double budget_s) {
  if (budget_s <= 0.0) return kNoDeadline;
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(budget_s));
}

/// Version string reported by abstain-only degraded answers, which no real
/// bundle served.
const char* const kDegradedVersion = "(degraded)";

/// Ends a resolution loop: flushes each distinct sink of `requests` once.
void flush_sinks(const std::vector<BatchRequest>& requests) {
  for (auto it = requests.begin(); it != requests.end(); ++it) {
    const auto same = [&](const BatchRequest& r) { return r.sink == it->sink; };
    if (std::none_of(requests.begin(), it, same)) it->sink->flush();
  }
}

}  // namespace

std::future<ServeResult> PromiseSink::make(std::uint64_t& tag) {
  auto promise = std::make_unique<std::promise<ServeResult>>();
  std::future<ServeResult> future = promise->get_future();
  tag = reinterpret_cast<std::uintptr_t>(promise.release());
  return future;
}

void PromiseSink::deliver(std::uint64_t tag, ServeResult result) {
  std::unique_ptr<std::promise<ServeResult>>(
      reinterpret_cast<std::promise<ServeResult>*>(tag))
      ->set_value(std::move(result));
}

ClassificationService::ClassificationService(ModelRegistry& registry,
                                             ServiceConfig config,
                                             ThreadPool* pool)
    : registry_(registry),
      config_(config),
      pool_(pool != nullptr ? *pool : ThreadPool::global()),
      assembler_(config.assembler),
      admission_(pool_, config.admission),
      tracer_(config.trace) {
  auto& reg = obs::MetricsRegistry::global();
  obs_requests_ = reg.counter("scwc_serve_requests_total");
  obs_request_seconds_ = reg.histogram("scwc_serve_request_seconds");
  obs_request_seconds_rolling_ =
      reg.rolling_histogram("scwc_serve_request_seconds_rolling");
  obs_batch_exec_seconds_ = reg.histogram("scwc_serve_batch_exec_seconds");
  obs_batch_size_ = reg.histogram(
      "scwc_serve_batch_size",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  obs_deadline_missed_ = reg.counter("scwc_serve_deadline_missed_total");
  obs_degraded_ = reg.counter("scwc_serve_degraded_total");
  obs_auto_rollbacks_ = reg.counter("scwc_serve_auto_rollbacks_total");
  if (config_.health.enabled) {
    monitor_ = std::make_unique<HealthMonitor>(config_.health);
    chain_ = std::make_unique<FallbackChain>(registry_, config_.health);
  }
  MicroBatcherConfig batcher_config = config_.batcher;
  batcher_config.chaos = config_.chaos;
  batcher_ = std::make_unique<MicroBatcher>(
      batcher_config, [this](std::vector<BatchRequest>&& batch) {
        run_batch(std::move(batch));
      });
}

ClassificationService::~ClassificationService() { stop(); }

void ClassificationService::resolve(
    BatchRequest& request, ServeResult result,
    std::chrono::steady_clock::time_point done) {
  result.trace_id = request.trace_id;
  result.job_id = request.job_id;
  result.phases.admission_s =
      seconds_between(request.submitted, request.enqueued);
  result.phases.total_s = seconds_between(request.submitted, done);
  result.total_latency_s = seconds_between(request.enqueued, done);
  std::optional<double> slack;
  if (request.deadline != kNoDeadline) {
    slack = obs::signed_seconds_between(done, request.deadline);
  }
  record_verdict(tracer_, config_.audit, request.trace_id,
                 request.trace_sampled, request.job_id, request.submitted,
                 result, std::nullopt, slack);
  // Marked first: a deliver() that throws has still taken the tag.
  request.resolved = true;
  request.sink->deliver(request.tag, std::move(result));
}

void ClassificationService::shed(BatchRequest& request, RejectReason reason) {
  admission_.count_shed(reason);
  if (reason == RejectReason::kDeadlineExceeded) obs_deadline_missed_.inc();
  if (monitor_ != nullptr) monitor_->record_shed(reason);
  const auto now = std::chrono::steady_clock::now();
  ServeResult result;
  result.accepted = false;
  result.reject_reason = reason;
  result.phases.queue_s = seconds_between(request.enqueued, now);
  resolve(request, std::move(result), now);
}

void ClassificationService::shed_all(std::vector<BatchRequest>& batch,
                                     RejectReason reason) {
  for (BatchRequest& request : batch) shed(request, reason);
  flush_sinks(batch);
}

std::future<ServeResult> ClassificationService::submit(
    std::vector<double> window, std::size_t steps, std::size_t sensors,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  std::uint64_t tag = 0;
  std::future<ServeResult> future = PromiseSink::make(tag);
  submit_to(promise_sink, tag, std::move(window), steps, sensors,
            deadline ? *deadline : deadline_from(config_.default_deadline_s));
  return future;
}

void ClassificationService::submit_to(
    VerdictSink& sink, std::uint64_t tag, std::vector<double> window,
    std::size_t steps, std::size_t sensors,
    std::chrono::steady_clock::time_point deadline, std::uint64_t trace_id,
    bool trace_sampled, std::int64_t job_id) {
  obs_requests_.inc();
  BatchRequest request;
  request.sink = &sink;
  request.tag = tag;
  request.window = std::move(window);
  request.steps = steps;
  request.sensors = sensors;
  if (trace_id != 0) {
    // Adopted (router-issued) identity: the caller's sampler already
    // decided; our own seeded sampler stays out of the picture so router
    // and worker keep records for exactly the same requests.
    request.trace_id = trace_id;
    request.trace_sampled = trace_sampled;
  } else {
    request.trace_id = tracer_.begin_trace();
    request.trace_sampled = tracer_.sampled(request.trace_id);
  }
  request.job_id = job_id;
  request.submitted = std::chrono::steady_clock::now();
  // The batcher re-stamps `enqueued` on acceptance; until then both stamps
  // coincide so entry-time sheds report zero-width phases.
  request.enqueued = request.submitted;
  request.deadline = deadline;

  RejectReason reason = RejectReason::kNone;
  if (request.deadline <= request.enqueued) {
    // Dead on arrival — don't waste queue space on it.
    reason = RejectReason::kDeadlineExceeded;
  } else if (registry_.current() == nullptr &&
             (chain_ == nullptr || chain_->depth() == 0)) {
    reason = RejectReason::kNoModel;
  } else {
    reason = admission_.admit_request(batcher_->pending());
  }
  if (reason == RejectReason::kNone && !batcher_->submit(std::move(request))) {
    reason = RejectReason::kShutdown;  // batcher stopped between checks
    // submit() moved-from only on success; on false the request is intact.
  }
  if (reason != RejectReason::kNone) {
    shed(request, reason);
    sink.flush();
  }
}

std::vector<PendingWindow> ClassificationService::ingest_block(
    std::int64_t job_id, std::span<const double> block) {
  return submit_closed(assembler_.push_block(job_id, block));
}

std::vector<PendingWindow> ClassificationService::finish_job(
    std::int64_t job_id) {
  return submit_closed(assembler_.finish(job_id));
}

std::vector<PendingWindow> ClassificationService::submit_closed(
    std::vector<AssembledWindow> closed) {
  std::vector<PendingWindow> out;
  out.reserve(closed.size());
  for (AssembledWindow& window : closed) {
    PendingWindow pending;
    pending.job_id = window.job_id;
    pending.start_step = window.start_step;
    std::uint64_t tag = 0;
    pending.result = PromiseSink::make(tag);
    submit_to(promise_sink, tag, std::move(window.values),
              config_.assembler.window_steps, config_.assembler.sensors,
              deadline_from(config_.default_deadline_s), 0, false,
              window.job_id);
    out.push_back(std::move(pending));
  }
  return out;
}

void ClassificationService::evaluate_health(
    std::chrono::steady_clock::time_point now) {
  if (monitor_ == nullptr) return;
  const HealthStats stats = monitor_->stats();
  if (stats.model_errors > config_.health.max_model_errors) {
    // The BUNDLE is broken (model exceptions / malformed results), not the
    // cluster: the previous version is the better answer than degradation.
    const std::shared_ptr<const ModelBundle> restored = registry_.rollback();
    monitor_->reset();
    if (restored != nullptr) {
      obs_auto_rollbacks_.inc();
      SCWC_LOG_WARN("serve auto-rollback: " << stats.model_errors
                                            << " model errors, restored "
                                            << restored->version());
    } else {
      // Nothing to roll back to — treat it as a health incident instead.
      chain_->on_unhealthy(now);
    }
    return;
  }
  std::string why;
  if (chain_->state() != BreakerState::kOpen && monitor_->unhealthy(&why)) {
    SCWC_LOG_WARN("serve unhealthy: " << why);
    chain_->on_unhealthy(now);
    // Start the next verdict from post-transition evidence only.
    monitor_->reset();
  }
}

void ClassificationService::answer_degraded(
    std::vector<BatchRequest>& batch) {
  const auto now = std::chrono::steady_clock::now();
  for (BatchRequest& request : batch) {
    obs_degraded_.inc();
    ServeResult result;
    result.accepted = true;
    result.model_version = kDegradedVersion;
    result.batch_size = batch.size();
    result.degrade_level = 2;
    result.prediction.label = robust::GuardedConfig::kNoLabel;
    result.prediction.abstained = true;
    result.prediction.reason = robust::AbstainReason::kDegraded;
    result.queue_delay_s = seconds_between(request.enqueued, now);
    result.phases.queue_s = result.queue_delay_s;
    resolve(request, std::move(result), now);
  }
  flush_sinks(batch);
}

void ClassificationService::run_batch(std::vector<BatchRequest>&& batch) {
  const auto now = std::chrono::steady_clock::now();
  // Deadline checkpoint 2 of 3: requests that expired in the queue.
  const auto late = std::stable_partition(
      batch.begin(), batch.end(),
      [now](const BatchRequest& r) { return r.deadline > now; });
  std::vector<BatchRequest> expired(std::make_move_iterator(late),
                                    std::make_move_iterator(batch.end()));
  batch.erase(late, batch.end());
  obs_batch_size_.observe(static_cast<double>(batch.size()));
  shed_all(expired, RejectReason::kDeadlineExceeded);
  if (batch.empty()) return;
  const obs::TraceSpan span("serve.flush");

  evaluate_health(now);

  // Route the whole batch through the breaker (or straight to the current
  // bundle when health is off). The bundle is captured ONCE here, keeping
  // hot-swap atomic per batch.
  Route route;
  if (chain_ != nullptr) {
    route = chain_->route(now);
  } else {
    route.bundle = registry_.current();
  }

  if (route.level >= 2) {
    // Abstain-only degraded mode: answer inline, instantly — the whole
    // point is to keep responding while the model path is unsafe.
    answer_degraded(batch);
    return;
  }
  if (route.bundle == nullptr) {
    shed_all(batch, RejectReason::kNoModel);
    if (route.probe) chain_->on_probe_outcome(false, now);
    return;
  }

  if (admission_.closed()) {
    // Draining after stop(): the pool may already be needed elsewhere and
    // new dispatches would be refused — answer the queued requests inline.
    execute_batch(route, batch, now);
    return;
  }

  if (config_.chaos != nullptr) {
    // Chaos dispatch hook: may delay (sleeps the flusher — exactly the
    // stalled-dispatch failure mode) or drop the batch outright.
    if (config_.chaos->on_batch_dispatch() == BatchFate::kDrop) {
      shed_all(batch, RejectReason::kInternal);
      if (route.probe) {
        chain_->on_probe_outcome(false, std::chrono::steady_clock::now());
      }
      return;
    }
  }

  // std::function requires a copyable callable, and copying the batch
  // would copy every window — hand it over through a shared_ptr.
  auto shared =
      std::make_shared<std::vector<BatchRequest>>(std::move(batch));
  {
    const scwc::LockGuard lock(inflight_mutex_);
    ++inflight_batches_;
  }
  // The notify happens UNDER inflight_mutex_: stop()'s waiter re-acquires
  // the mutex before returning, so it cannot observe inflight == 0 and let
  // the destructor tear down inflight_cv_ while notify_all() is still
  // executing on this thread (cv-destruction race TSan catches otherwise).
  const RejectReason reason = admission_.dispatch([this, route, shared, now] {
    execute_batch(route, *shared, now);
    const scwc::LockGuard lock(inflight_mutex_);
    --inflight_batches_;
    inflight_cv_.notify_all();
  });
  if (reason != RejectReason::kNone) {
    {
      const scwc::LockGuard lock(inflight_mutex_);
      --inflight_batches_;
      inflight_cv_.notify_all();
    }
    shed_all(*shared, reason);
    if (route.probe) {
      chain_->on_probe_outcome(false, std::chrono::steady_clock::now());
    }
  }
}

void ClassificationService::execute_batch(
    const Route& route, std::vector<BatchRequest>& batch,
    std::chrono::steady_clock::time_point cut) {
  const std::shared_ptr<const ModelBundle>& bundle = route.bundle;
  std::size_t model_errors = 0;
  bool probe_judged = false;
  try {
    const obs::TraceSpan span("serve.predict_batch");
    if (config_.chaos != nullptr) config_.chaos->on_predict_start();
    const auto exec_start = std::chrono::steady_clock::now();
    const robust::GuardedConfig& guard = bundle->guard_config();
    const std::size_t steps = guard.window_steps;
    const std::size_t sensors = guard.sensors;

    // Every well-shaped request is classified where it arrived: the guard
    // repairs and featurises views of the requests' own buffers.
    // Odd-geometry requests go through classify(), which abstains them
    // with kShape.
    std::vector<std::size_t> shaped_index;
    std::vector<std::span<double>> shaped;
    shaped_index.reserve(batch.size());
    shaped.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      BatchRequest& r = batch[i];
      if (r.steps == steps && r.sensors == sensors &&
          r.window.size() == steps * sensors) {
        shaped_index.push_back(i);
        shaped.emplace_back(r.window);
      }
    }
    std::vector<robust::GuardedPrediction> shaped_out;
    robust::BatchPhaseTimings batch_timings;
    if (!shaped.empty()) {
      shaped_out = bundle->guard().classify_batch(shaped, steps, sensors,
                                                  &batch_timings);
    }

    // Answers one request: deadline checkpoint, latency instruments, then
    // the shared verdict builder.
    const auto answer = [&](BatchRequest& request, ServeResult result) {
      const auto done = std::chrono::steady_clock::now();
      // Post-predict deadline checkpoint: a late answer is a stale answer —
      // the caller promised its own consumer a bound, so report the miss
      // instead of pretending the result arrived in time.
      if (request.deadline <= done) {
        shed(request, RejectReason::kDeadlineExceeded);
        return;
      }
      const double latency_s = seconds_between(request.enqueued, done);
      obs_request_seconds_.observe(latency_s);
      obs_request_seconds_rolling_.observe(latency_s);
      // Feed the SLO sensor from FULL-PATH traffic only (probes judge
      // themselves; degraded answers would poison the abstain rate).
      if (monitor_ != nullptr && route.level == 0 && !route.probe) {
        monitor_->record_accepted(
            latency_s, result.prediction.abstained,
            result.prediction.reason == robust::AbstainReason::kModelError);
      }
      resolve(request, std::move(result), done);
    };
    // A probe batch is judged before any of its requests resolves, so a
    // caller that sees a probe's answer also sees the breaker move on it.
    // Every other batch resolves each request as soon as it is predicted.
    std::vector<ServeResult> probe_results;
    std::size_t next_shaped = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      BatchRequest& request = batch[i];
      ServeResult result;
      result.accepted = true;
      result.model_version = bundle->version();
      result.batch_size = batch.size();
      result.degrade_level = route.level;
      result.queue_delay_s = seconds_between(request.enqueued, exec_start);
      result.phases.queue_s = seconds_between(request.enqueued, cut);
      result.phases.batch_wait_s = seconds_between(cut, exec_start);
      // Transform/predict are batch-level stages — every request of the
      // batch spent that wall time in them, so each carries the full value.
      result.phases.transform_s = batch_timings.transform_s;
      result.phases.predict_s = batch_timings.predict_s;
      if (next_shaped < shaped_index.size() &&
          shaped_index[next_shaped] == i) {
        result.prediction = std::move(shaped_out[next_shaped]);
        ++next_shaped;
      } else {
        result.prediction = bundle->guard().classify(
            request.window, request.steps, request.sensors);
      }
      if (result.prediction.reason == robust::AbstainReason::kModelError) {
        ++model_errors;
      }
      if (route.probe) {
        probe_results.push_back(std::move(result));
      } else {
        answer(request, std::move(result));
      }
    }
    const auto exec_s = seconds_between(exec_start,
                                        std::chrono::steady_clock::now());
    obs_batch_exec_seconds_.observe(exec_s);
    if (route.probe) {
      // The probe is healthy when the model path worked and the batch
      // cleared the latency SLO — the same evidence the monitor trips on.
      const bool healthy =
          model_errors == 0 && exec_s <= config_.health.max_p99_s;
      chain_->on_probe_outcome(healthy, std::chrono::steady_clock::now());
      probe_judged = true;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        answer(batch[i], std::move(probe_results[i]));
      }
    }
  } catch (...) {
    // Defensive net: the guard never throws, but if anything here does
    // (bad_alloc, a broken custom Classifier), no request may be left
    // unresolved — its client would wait for it forever.
    for (BatchRequest& request : batch) {
      if (!request.resolved) shed(request, RejectReason::kInternal);
    }
    if (route.probe && !probe_judged) {
      chain_->on_probe_outcome(false, std::chrono::steady_clock::now());
    }
    SCWC_LOG_ERROR("serve batch execution failed; shed with kInternal");
  }
  flush_sinks(batch);
}

void ClassificationService::stop() {
  admission_.close();
  // Flushes every queued batch through run_batch (inline-drain path above),
  // then joins the flusher. Requests whose deadline expired in the queue
  // are shed by run_batch during the drain; every other queued request is
  // answered inline — nothing is left pending.
  batcher_->stop();
  // Wait out batches already handed to the pool. Explicit wait loop: the
  // analysis checks this form (it cannot see into predicate lambdas).
  const scwc::LockGuard lock(inflight_mutex_);
  while (inflight_batches_ != 0) inflight_cv_.wait(inflight_mutex_);
}

}  // namespace scwc::serve
