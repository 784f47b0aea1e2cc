#include "obs/export.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace scwc::obs {

namespace {

Json histogram_to_json(const HistogramSnapshot& h) {
  Json::Array buckets;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    Json::Object b;
    b.emplace("le", i < h.bounds.size()
                        ? Json(h.bounds[i])
                        : Json("+Inf"));
    b.emplace("count", Json(h.buckets[i]));
    buckets.push_back(Json(std::move(b)));
  }
  Json::Object out;
  out.emplace("count", Json(h.count));
  out.emplace("sum", Json(h.sum));
  out.emplace("p50", Json(h.p50));
  out.emplace("p90", Json(h.p90));
  out.emplace("p99", Json(h.p99));
  out.emplace("p999", Json(h.p999));
  out.emplace("buckets", Json(std::move(buckets)));
  return Json(std::move(out));
}

Json rolling_to_json(const RollingHistogramSnapshot& r) {
  Json::Object out;
  out.emplace("window_s", Json(r.window_s));
  out.emplace("count", Json(r.count));
  out.emplace("sum", Json(r.sum));
  out.emplace("p50", Json(r.p50));
  out.emplace("p90", Json(r.p90));
  out.emplace("p99", Json(r.p99));
  out.emplace("p999", Json(r.p999));
  return Json(std::move(out));
}

Json span_to_json(const SpanStats& span) {
  Json::Object out;
  out.emplace("name", Json(span.name));
  out.emplace("calls", Json(span.calls));
  out.emplace("total_s", Json(span.total_s));
  out.emplace("self_s", Json(span.self_s));
  Json::Array children;
  for (const SpanStats& child : span.children) {
    children.push_back(span_to_json(child));
  }
  out.emplace("children", Json(std::move(children)));
  return Json(std::move(out));
}

void render_span(std::ostream& os, const SpanStats& span, int depth) {
  std::ostringstream line;  // keeps formatting state off the caller's stream
  line << std::fixed << std::setprecision(3);
  for (int i = 0; i < depth; ++i) line << "  ";
  line << span.name << "  calls=" << span.calls << "  total=" << span.total_s
       << "s  self=" << span.self_s << 's';
  os << line.str() << '\n';
  for (const SpanStats& child : span.children) {
    render_span(os, child, depth + 1);
  }
}

}  // namespace

Json metrics_to_json(const MetricsSnapshot& snapshot) {
  Json::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.emplace(name, Json(value));
  }
  Json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.emplace(name, Json(value));
  }
  Json::Object histograms;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    histograms.emplace(h.name, histogram_to_json(h));
  }
  Json::Object out;
  out.emplace("counters", Json(std::move(counters)));
  out.emplace("gauges", Json(std::move(gauges)));
  out.emplace("histograms", Json(std::move(histograms)));
  if (!snapshot.rolling.empty()) {  // omit key: keep legacy artifact shape
    Json::Object rolling;
    for (const RollingHistogramSnapshot& r : snapshot.rolling) {
      rolling.emplace(r.name, rolling_to_json(r));
    }
    out.emplace("rolling", Json(std::move(rolling)));
  }
  return Json(std::move(out));
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string sanitize_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_value(double v) {
  // Json::write spells every non-finite value "null", which Prometheus
  // rejects; the exposition format has its own names for them.
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  Json(v).write(os);
  return os.str();
}

Json span_tree_to_json(const SpanStats& root) {
  Json::Array spans;
  for (const SpanStats& child : root.children) {
    spans.push_back(span_to_json(child));
  }
  return Json(std::move(spans));
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const auto& [raw_name, value] : snapshot.counters) {
    const std::string name = sanitize_metric_name(raw_name);
    os << "# TYPE " << name << " counter\n" << name << ' ' << value << '\n';
  }
  for (const auto& [raw_name, value] : snapshot.gauges) {
    const std::string name = sanitize_metric_name(raw_name);
    os << "# TYPE " << name << " gauge\n"
       << name << ' ' << prometheus_value(value) << '\n';
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string name = sanitize_metric_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le = sanitize_label_value(
          i < h.bounds.size() ? prometheus_value(h.bounds[i]) : "+Inf");
      os << name << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    os << name << "_sum " << prometheus_value(h.sum) << '\n';
    os << name << "_count " << h.count << '\n';
  }
  // Rolling histograms surface as Prometheus summaries: last-window_s
  // quantiles are exactly a summary's sliding-window semantics. The
  // window itself rides along as a companion gauge.
  for (const RollingHistogramSnapshot& r : snapshot.rolling) {
    const std::string name = sanitize_metric_name(r.name);
    os << "# TYPE " << name << " summary\n";
    os << name << "{quantile=\"0.5\"} " << prometheus_value(r.p50) << '\n';
    os << name << "{quantile=\"0.9\"} " << prometheus_value(r.p90) << '\n';
    os << name << "{quantile=\"0.99\"} " << prometheus_value(r.p99) << '\n';
    os << name << "{quantile=\"0.999\"} " << prometheus_value(r.p999) << '\n';
    os << name << "_sum " << prometheus_value(r.sum) << '\n';
    os << name << "_count " << r.count << '\n';
    os << "# TYPE " << name << "_window_seconds gauge\n";
    os << name << "_window_seconds " << prometheus_value(r.window_s) << '\n';
  }
  return os.str();
}

void render_span_tree(std::ostream& os, const SpanStats& root) {
  if (root.children.empty()) {
    os << "(no spans recorded)\n";
    return;
  }
  for (const SpanStats& child : root.children) {
    render_span(os, child, 0);
  }
}

}  // namespace scwc::obs
