#include "serve/audit.hpp"

#include <stdexcept>
#include <utility>

namespace scwc::serve {

using obs::Json;

Json audit_record_to_json(const AuditRecord& record) {
  Json::Object phases;
  phases.emplace("admission_s", Json(record.phases.admission_s));
  phases.emplace("queue_s", Json(record.phases.queue_s));
  phases.emplace("batch_wait_s", Json(record.phases.batch_wait_s));
  phases.emplace("transform_s", Json(record.phases.transform_s));
  phases.emplace("predict_s", Json(record.phases.predict_s));
  phases.emplace("total_s", Json(record.phases.total_s));
  if (record.shard_id.has_value()) {
    // Wire phases only mean something on routed records; in-process
    // records keep the original six-key phase object byte-for-byte.
    phases.emplace("route_s", Json(record.phases.route_s));
    phases.emplace("wire_send_s", Json(record.phases.wire_send_s));
    phases.emplace("wire_recv_s", Json(record.phases.wire_recv_s));
  }

  Json::Object out;
  out.emplace("schema", Json(kAuditSchema));
  out.emplace("trace_id", Json(static_cast<double>(record.trace_id)));
  out.emplace("job_id", Json(static_cast<double>(record.job_id)));
  out.emplace("event", Json(record.event));
  out.emplace("model_version", Json(record.model_version));
  out.emplace("label", Json(record.label));
  out.emplace("degrade_level", Json(record.degrade_level));
  out.emplace("batch_size", Json(record.batch_size));
  out.emplace("phases", Json(std::move(phases)));
  if (record.event == "abstain") {
    out.emplace("abstain_reason", Json(record.abstain_reason));
  }
  if (record.event == "shed") {
    out.emplace("reject_reason", Json(record.reject_reason));
  }
  if (record.event != "shed") {
    out.emplace("quality", Json(record.quality));
    out.emplace("missing_values", Json(record.missing_values));
    out.emplace("repaired_values", Json(record.repaired_values));
  }
  if (record.deadline_slack_s.has_value()) {
    out.emplace("deadline_slack_s", Json(*record.deadline_slack_s));
  }
  if (record.shard_id.has_value()) {
    out.emplace("shard_id", Json(static_cast<double>(*record.shard_id)));
  }
  return Json(std::move(out));
}

namespace {

const char* kPhaseKeys[] = {"admission_s", "queue_s",   "batch_wait_s",
                            "transform_s", "predict_s", "total_s"};

const char* kWirePhaseKeys[] = {"route_s", "wire_send_s", "wire_recv_s"};

}  // namespace

std::string validate_audit_record_json(const Json& record) {
  if (!record.is_object()) return "record is not an object";
  if (!record.contains("schema") || !record.at("schema").is_string() ||
      record.at("schema").as_string() != kAuditSchema) {
    return std::string("schema must be \"") + kAuditSchema + "\"";
  }
  for (const char* key : {"event", "model_version"}) {
    if (!record.contains(key) || !record.at(key).is_string()) {
      return std::string("missing string field: ") + key;
    }
  }
  for (const char* key :
       {"trace_id", "job_id", "label", "degrade_level", "batch_size"}) {
    if (!record.contains(key) || !record.at(key).is_number()) {
      return std::string("missing numeric field: ") + key;
    }
  }
  if (record.at("trace_id").as_number() < 1.0) return "trace_id must be >= 1";
  const double degrade = record.at("degrade_level").as_number();
  if (degrade < 0.0 || degrade > 2.0) {
    return "degrade_level out of range [0, 2]";
  }
  if (record.at("batch_size").as_number() < 0.0) {
    return "batch_size must be >= 0";
  }

  if (!record.contains("phases") || !record.at("phases").is_object()) {
    return "missing phases object";
  }
  const Json& phases = record.at("phases");
  for (const char* key : kPhaseKeys) {
    if (!phases.contains(key) || !phases.at(key).is_number()) {
      return std::string("phases lacks numeric ") + key;
    }
    if (phases.at(key).as_number() < 0.0) {
      return std::string("phases.") + key + " is negative";
    }
  }
  // Router-side wire phases are optional but typed when present.
  for (const char* key : kWirePhaseKeys) {
    if (!phases.contains(key)) continue;
    if (!phases.at(key).is_number()) {
      return std::string("phases.") + key + " must be a number";
    }
    if (phases.at(key).as_number() < 0.0) {
      return std::string("phases.") + key + " is negative";
    }
  }

  const std::string& event = record.at("event").as_string();
  if (event == "answer") {
    if (record.contains("abstain_reason") ||
        record.contains("reject_reason")) {
      return "answer records must not carry a reason field";
    }
  } else if (event == "abstain") {
    if (!record.contains("abstain_reason") ||
        !record.at("abstain_reason").is_string() ||
        record.at("abstain_reason").as_string().empty()) {
      return "abstain records need a non-empty abstain_reason";
    }
  } else if (event == "shed") {
    if (!record.contains("reject_reason") ||
        !record.at("reject_reason").is_string() ||
        record.at("reject_reason").as_string().empty()) {
      return "shed records need a non-empty reject_reason";
    }
    if (!record.at("model_version").as_string().empty()) {
      return "shed records must not name a model_version";
    }
  } else {
    return "event must be answer|abstain|shed, got \"" + event + "\"";
  }

  if (event != "shed") {
    for (const char* key : {"quality", "missing_values", "repaired_values"}) {
      if (!record.contains(key) || !record.at(key).is_number()) {
        return std::string("accepted records need numeric ") + key;
      }
    }
    const double quality = record.at("quality").as_number();
    if (quality < 0.0 || quality > 1.0) return "quality out of range [0, 1]";
  }

  if (record.contains("deadline_slack_s") &&
      !record.at("deadline_slack_s").is_number()) {
    return "deadline_slack_s must be a number";
  }
  if (record.contains("shard_id")) {
    if (!record.at("shard_id").is_number()) {
      return "shard_id must be a number";
    }
    if (record.at("shard_id").as_number() < 0.0) {
      return "shard_id must be >= 0";
    }
  }
  return "";
}

AuditLogger::AuditLogger(const std::string& path)
    : out_(path, std::ios::app) {
  if (!out_) {
    throw std::runtime_error("AuditLogger: cannot open " + path);
  }
}

void AuditLogger::log(const AuditRecord& record) {
  const std::string line = audit_record_to_json(record).dump();
  const scwc::LockGuard lock(mutex_);
  if (!ok_) return;
  out_ << line << '\n';
  if (!out_) {
    ok_ = false;
    return;
  }
  ++written_;
}

void AuditLogger::flush() {
  const scwc::LockGuard lock(mutex_);
  out_.flush();
}

std::uint64_t AuditLogger::records_written() const {
  const scwc::LockGuard lock(mutex_);
  return written_;
}

bool AuditLogger::ok() const {
  const scwc::LockGuard lock(mutex_);
  return ok_;
}

void record_verdict(obs::RequestTracer& tracer, AuditLogger* audit,
                    std::uint64_t trace_id, bool sampled, std::int64_t job_id,
                    std::chrono::steady_clock::time_point started,
                    const ServeResult& result,
                    std::optional<std::uint32_t> shard_id,
                    std::optional<double> deadline_slack_s) {
  if (!sampled && audit == nullptr) return;

  std::string event;
  if (!result.accepted) {
    event = "shed";
  } else if (result.prediction.abstained) {
    event = "abstain";
  } else {
    event = "answer";
  }

  if (sampled) {
    obs::RequestTraceRecord rec;
    rec.trace_id = trace_id;
    rec.job_id = job_id;
    rec.start_s = tracer.since_epoch(started);
    rec.phases = result.phases;
    rec.outcome = event;
    if (event == "shed") {
      rec.outcome += std::string(":") + reject_reason_name(result.reject_reason);
    } else if (event == "abstain") {
      rec.outcome +=
          std::string(":") + robust::abstain_reason_name(result.prediction.reason);
    }
    rec.model_version = result.model_version;
    rec.batch_size = result.batch_size;
    rec.degrade_level = result.degrade_level;
    tracer.record(std::move(rec));
  }

  if (audit != nullptr) {
    AuditRecord rec;
    rec.trace_id = trace_id;
    rec.job_id = job_id;
    rec.event = event;
    rec.model_version = result.model_version;
    rec.label = result.prediction.label;
    rec.degrade_level = result.degrade_level;
    rec.batch_size = result.batch_size;
    if (event == "abstain") {
      rec.abstain_reason = robust::abstain_reason_name(result.prediction.reason);
    }
    if (event == "shed") {
      rec.reject_reason = reject_reason_name(result.reject_reason);
    } else {
      rec.quality = result.prediction.report.quality();
      rec.missing_values = result.prediction.report.missing_values;
      rec.repaired_values = result.prediction.report.repaired_values;
    }
    rec.phases = result.phases;
    rec.deadline_slack_s = deadline_slack_s;
    rec.shard_id = shard_id;
    audit->log(rec);
  }
}

}  // namespace scwc::serve
