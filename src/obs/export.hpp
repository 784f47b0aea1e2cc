// Serialisers for metrics snapshots and span trees.
//
// Three formats, three consumers: JSON for RunReport artifacts and tests,
// Prometheus text exposition for scrape-style integration (and humans with
// grep), and an indented text tree for terminal output (live_monitor, bench
// footers).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scwc::obs {

/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// p50, p90, p99, p999, buckets: [{le, count}, ...]}}, "rolling": {name:
/// {window_s, count, sum, p50, p90, p99, p999}}}. The "rolling" key is
/// omitted when no rolling histograms are registered, so pre-existing
/// artifacts keep their exact shape.
[[nodiscard]] Json metrics_to_json(const MetricsSnapshot& snapshot);

/// Maps an arbitrary string onto the Prometheus metric-name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]*: illegal characters become '_', an empty or
/// digit-leading result gains a '_' prefix.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Escapes a label value per the text exposition format: backslash,
/// double-quote and newline are escaped; other bytes pass through.
[[nodiscard]] std::string sanitize_label_value(std::string_view value);

/// One sample value in the text exposition format: a finite value as
/// Json writes it (integral without a fraction, else shortest round-trip),
/// a non-finite one as "NaN", "+Inf" or "-Inf". Every series to_prometheus
/// and the router's fleet exposition render goes through it.
[[nodiscard]] std::string prometheus_value(double v);

/// Array of span nodes: [{name, calls, total_s, self_s, children: [...]}].
/// The synthetic root is dropped — only real spans are serialised.
[[nodiscard]] Json span_tree_to_json(const SpanStats& root);

/// Prometheus text exposition format (# TYPE comments, _bucket/_sum/_count
/// histogram series with explicit +Inf le, rolling histograms as summary
/// series with quantile labels). Deterministic: series sorted by name,
/// names/labels sanitized, and an empty snapshot renders byte-identically
/// as the empty string (golden-file tested).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Indented human-readable tree: one line per span with calls/total/self,
/// children indented beneath their parent.
void render_span_tree(std::ostream& os, const SpanStats& root);

}  // namespace scwc::obs
