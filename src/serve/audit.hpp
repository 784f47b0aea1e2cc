// Verdict audit log: one JSONL record per serve verdict (schema
// scwc.audit/v1).
//
// The serving loop answers, abstains or sheds thousands of requests per
// second; when an operator later asks "why did job 17's windows abstain
// at 14:02", rerunning is not an answer. The AuditLogger appends exactly
// one JSON line per verdict — trace id, job id, bundle version, abstain
// or shed reason, quality evidence, the per-phase latency breakdown and
// the deadline slack — so post-hoc analysis is a grep away.
//
// Schema (scwc.audit/v1) — every line is one object:
//   schema            "scwc.audit/v1"
//   trace_id          number ≥ 1, the request's trace id
//   job_id            number, -1 when the caller supplied none
//   event             "answer" | "abstain" | "shed"
//   model_version     string; "" for sheds (no bundle consulted)
//   label             number; the answered/fallback label, -1 = none
//   degrade_level     0 | 1 | 2 (fallback-chain rung)
//   batch_size        number ≥ 0 (0 for sheds before batching)
//   abstain_reason    string, present iff event == "abstain"
//   reject_reason     string, present iff event == "shed"
//   quality           number in [0, 1], present iff accepted
//   missing_values    number ≥ 0, present iff accepted
//   repaired_values   number ≥ 0, present iff accepted
//   phases            object {admission_s, queue_s, batch_wait_s,
//                     transform_s, predict_s, total_s}, all numbers ≥ 0;
//                     router-side records add route_s, wire_send_s and
//                     wire_recv_s (optional in the schema, numbers ≥ 0)
//   deadline_slack_s  number, present iff the request had a deadline
//                     (positive = answered with room to spare)
//   shard_id          number ≥ 0, present iff a ShardRouter wrote the
//                     record (which shard served the request)
//
// Writes are mutex-serialised; the logger is shared by the batch
// executor threads. Durability favours throughput: lines are flushed on
// destruction/flush(), not per record.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

#include "obs/json.hpp"
#include "obs/request_trace.hpp"
#include "serve/serve_types.hpp"

namespace scwc::serve {

inline constexpr const char* kAuditSchema = "scwc.audit/v1";

/// One verdict, ready for serialisation.
struct AuditRecord {
  std::uint64_t trace_id = 0;
  std::int64_t job_id = -1;
  std::string event;          ///< "answer" | "abstain" | "shed"
  std::string model_version;  ///< "" for sheds
  int label = -1;
  int degrade_level = 0;
  std::size_t batch_size = 0;
  std::string abstain_reason;  ///< abstains only
  std::string reject_reason;   ///< sheds only
  double quality = 0.0;        ///< accepted only
  std::size_t missing_values = 0;
  std::size_t repaired_values = 0;
  obs::RequestPhases phases;
  std::optional<double> deadline_slack_s;  ///< set iff a deadline existed
  std::optional<std::uint32_t> shard_id;   ///< set iff routed over SCWCWIRE
};

/// Serialises one record (without trailing newline).
[[nodiscard]] obs::Json audit_record_to_json(const AuditRecord& record);

/// Validates one parsed line against scwc.audit/v1. Returns "" when the
/// record conforms, else a one-line description of the first violation.
[[nodiscard]] std::string validate_audit_record_json(const obs::Json& record);

/// Append-only JSONL writer. Thread-safe; never throws after
/// construction (write errors latch into ok()).
class AuditLogger {
 public:
  /// Opens `path` for appending; throws std::runtime_error on failure.
  explicit AuditLogger(const std::string& path);

  void log(const AuditRecord& record);

  void flush();
  [[nodiscard]] std::uint64_t records_written() const;
  /// False once any write failed (disk full, closed fd, …).
  [[nodiscard]] bool ok() const;

 private:
  mutable Mutex mutex_{"serve.audit"};
  std::ofstream out_ SCWC_GUARDED_BY(mutex_);
  std::uint64_t written_ SCWC_GUARDED_BY(mutex_) = 0;
  bool ok_ SCWC_GUARDED_BY(mutex_) = true;
};

/// The verdict tap shared by ClassificationService and ShardRouter: writes
/// one finished request into `tracer` when `sampled` and into `audit` when
/// it is non-null, so in-process and routed records have the same shape.
/// `shard_id` is set iff a router served the request over SCWCWIRE;
/// `deadline_slack_s` is set iff the request had a deadline.
void record_verdict(obs::RequestTracer& tracer, AuditLogger* audit,
                    std::uint64_t trace_id, bool sampled, std::int64_t job_id,
                    std::chrono::steady_clock::time_point started,
                    const ServeResult& result,
                    std::optional<std::uint32_t> shard_id,
                    std::optional<double> deadline_slack_s);

}  // namespace scwc::serve
