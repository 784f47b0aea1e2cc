// Chrome trace-event ("Trace Event Format") exporter.
//
// Turns sampled RequestTraceRecords plus the aggregated span tree into a
// JSON document loadable by chrome://tracing and Perfetto: complete "X"
// events with pid/tid/ts/dur in microseconds. Layout convention:
//   pid 1  — request lanes, one tid per trace id; each request renders
//            as a parent "request" slice with its phases nested inside,
//            laid out back-to-back (admission → queue → batch wait →
//            transform → predict) from the request's submit time;
//   pid 2  — the process-wide span tree, rendered once on tid 1 with a
//            synthetic sequential timeline (span aggregates have no real
//            start times — only durations nest meaningfully).
//
// A structural validator ships alongside so tools and tests can prove an
// emitted file is loadable without a browser in the loop.
#pragma once

#include <span>
#include <string>

#include "obs/json.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"

namespace scwc::obs {

/// Builds the full trace document: {"displayTimeUnit": "ms",
/// "traceEvents": [...]} with process-name metadata, one slice group per
/// record and the span tree. Deterministic for fixed inputs. A non-empty
/// `meta` object is attached as a top-level "scwcMeta" key — extra
/// top-level keys are legal trace-event JSON (the validator ignores them);
/// scwc_tracemerge uses it to carry tracer epochs and clock offsets.
[[nodiscard]] Json chrome_trace_json(std::span<const RequestTraceRecord> records,
                                     const SpanStats& span_root,
                                     Json::Object meta = {});

/// The "M" metadata event that names process `pid` in the trace viewer.
[[nodiscard]] Json process_name_event(int pid, const std::string& name);

/// Structural self-check: "" when `doc` is a well-formed trace-event
/// document (object with a traceEvents array; every event has string
/// name/ph and numeric pid/tid; "X" events additionally carry numeric
/// non-negative ts and dur). Anything else returns a one-line violation.
[[nodiscard]] std::string validate_chrome_trace_json(const Json& doc);

/// chrome_trace_json + write to `path` (pretty-printed). Returns false
/// when the file cannot be opened/written; never throws.
bool write_chrome_trace_file(const std::string& path,
                             std::span<const RequestTraceRecord> records,
                             const SpanStats& span_root,
                             Json::Object meta = {});

}  // namespace scwc::obs
