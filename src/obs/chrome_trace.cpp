#include "obs/chrome_trace.hpp"

#include <fstream>
#include <utility>

namespace scwc::obs {

namespace {

constexpr double kMicro = 1e6;
constexpr int kRequestPid = 1;
constexpr int kSpanPid = 2;

Json x_event(const std::string& name, const std::string& cat, int pid,
             double tid, double ts_us, double dur_us, Json::Object args) {
  Json::Object e;
  e.emplace("ph", Json("X"));
  e.emplace("name", Json(name));
  e.emplace("cat", Json(cat));
  e.emplace("pid", Json(pid));
  e.emplace("tid", Json(tid));
  e.emplace("ts", Json(ts_us));
  e.emplace("dur", Json(dur_us));
  if (!args.empty()) e.emplace("args", Json(std::move(args)));
  return Json(std::move(e));
}

void append_request_events(Json::Array& events,
                           const RequestTraceRecord& rec) {
  const auto tid = static_cast<double>(rec.trace_id);
  const double start_us = rec.start_s * kMicro;

  Json::Object args;
  args.emplace("trace_id", Json(static_cast<double>(rec.trace_id)));
  args.emplace("job_id", Json(static_cast<double>(rec.job_id)));
  args.emplace("outcome", Json(rec.outcome));
  args.emplace("model_version", Json(rec.model_version));
  args.emplace("batch_size", Json(rec.batch_size));
  args.emplace("degrade_level", Json(rec.degrade_level));
  events.push_back(x_event("request", "request", kRequestPid, tid, start_us,
                           rec.phases.total_s * kMicro, std::move(args)));

  // Phases laid out back-to-back inside the parent slice. The layout is
  // schematic: transform/predict are batch-level times attributed to each
  // member, so the chain may underrun (idle tail) but never misleads
  // about per-phase magnitudes.
  const std::pair<const char*, double> phases[] = {
      {"admission", rec.phases.admission_s},
      {"route", rec.phases.route_s},
      {"wire_send", rec.phases.wire_send_s},
      {"queue", rec.phases.queue_s},
      {"batch_wait", rec.phases.batch_wait_s},
      {"transform", rec.phases.transform_s},
      {"predict", rec.phases.predict_s},
      {"wire_recv", rec.phases.wire_recv_s},
  };
  double cursor_us = start_us;
  for (const auto& [name, dur_s] : phases) {
    if (dur_s <= 0.0) continue;
    events.push_back(x_event(name, "phase", kRequestPid, tid, cursor_us,
                             dur_s * kMicro, {}));
    cursor_us += dur_s * kMicro;
  }
}

/// Span aggregates carry durations, not start times; render each subtree
/// sequentially from `start_us` so nesting stays truthful to the
/// parent/child containment. Returns the span's end time.
double append_span_events(Json::Array& events, const SpanStats& span,
                          double start_us) {
  Json::Object args;
  args.emplace("calls", Json(span.calls));
  args.emplace("self_s", Json(span.self_s));
  events.push_back(x_event(span.name, "span", kSpanPid, 1.0, start_us,
                           span.total_s * kMicro, std::move(args)));
  double cursor_us = start_us;
  for (const SpanStats& child : span.children) {
    cursor_us = append_span_events(events, child, cursor_us);
  }
  return start_us + span.total_s * kMicro;
}

}  // namespace

Json process_name_event(int pid, const std::string& name) {
  Json::Object args;
  args.emplace("name", Json(name));
  Json::Object e;
  e.emplace("ph", Json("M"));
  e.emplace("name", Json("process_name"));
  e.emplace("pid", Json(pid));
  e.emplace("tid", Json(0));
  e.emplace("args", Json(std::move(args)));
  return Json(std::move(e));
}

Json chrome_trace_json(std::span<const RequestTraceRecord> records,
                       const SpanStats& span_root, Json::Object meta) {
  Json::Array events;
  events.push_back(process_name_event(kRequestPid, "scwc requests"));
  events.push_back(process_name_event(kSpanPid, "scwc span tree"));
  for (const RequestTraceRecord& rec : records) {
    append_request_events(events, rec);
  }
  double cursor_us = 0.0;
  for (const SpanStats& child : span_root.children) {
    cursor_us = append_span_events(events, child, cursor_us);
  }
  Json::Object doc;
  doc.emplace("displayTimeUnit", Json("ms"));
  doc.emplace("traceEvents", Json(std::move(events)));
  if (!meta.empty()) doc.emplace("scwcMeta", Json(std::move(meta)));
  return Json(std::move(doc));
}

std::string validate_chrome_trace_json(const Json& doc) {
  if (!doc.is_object()) return "root is not an object";
  if (!doc.contains("traceEvents")) return "missing traceEvents";
  const Json& events = doc.at("traceEvents");
  if (!events.is_array()) return "traceEvents is not an array";
  std::size_t i = 0;
  for (const Json& event : events.as_array()) {
    const std::string where = "traceEvents[" + std::to_string(i++) + "]";
    if (!event.is_object()) return where + " is not an object";
    for (const char* key : {"ph", "name"}) {
      if (!event.contains(key) || !event.at(key).is_string()) {
        return where + " lacks string " + key;
      }
    }
    for (const char* key : {"pid", "tid"}) {
      if (!event.contains(key) || !event.at(key).is_number()) {
        return where + " lacks numeric " + key;
      }
    }
    const std::string& ph = event.at("ph").as_string();
    if (ph == "X") {
      for (const char* key : {"ts", "dur"}) {
        if (!event.contains(key) || !event.at(key).is_number()) {
          return where + " lacks numeric " + key;
        }
        if (event.at(key).as_number() < 0.0) {
          return where + " has negative " + key;
        }
      }
    } else if (ph == "M") {
      if (!event.contains("args") || !event.at("args").is_object()) {
        return where + " metadata lacks args object";
      }
    } else {
      return where + " has unsupported ph \"" + ph + "\"";
    }
  }
  return "";
}

bool write_chrome_trace_file(const std::string& path,
                             std::span<const RequestTraceRecord> records,
                             const SpanStats& span_root, Json::Object meta) {
  std::ofstream out(path);
  if (!out) return false;
  chrome_trace_json(records, span_root, std::move(meta)).write(out, 2);
  out << '\n';
  return out.good();
}

}  // namespace scwc::obs
