// Golden-output tests for the obs exporters (JSON, Prometheus text, span
// tree rendering) plus RunReport assembly and schema validation. Snapshots
// are built by hand so the expected strings are exact and deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

namespace scwc::obs {
namespace {

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.counters = {{"scwc_test_events_total", 3}};
  snap.gauges = {{"scwc_test_loss", 1.5}};
  HistogramSnapshot h;
  h.name = "scwc_test_seconds";
  h.bounds = {1.0, 2.0};
  h.buckets = {1, 2, 1};
  h.count = 4;
  h.sum = 6.5;
  h.p50 = 1.5;
  h.p90 = 2.0;
  h.p99 = 2.0;
  h.p999 = 2.0;
  snap.histograms = {h};
  return snap;
}

SpanStats sample_tree() {
  SpanStats root;  // synthetic root: empty name, dropped by the exporter
  SpanStats a;
  a.name = "a";
  a.calls = 2;
  a.total_s = 1.5;
  a.self_s = 1.0;
  SpanStats b;
  b.name = "b";
  b.calls = 2;
  b.total_s = 0.5;
  b.self_s = 0.5;
  a.children.push_back(b);
  root.children.push_back(a);
  return root;
}

TEST(ObsExport, MetricsJsonGolden) {
  EXPECT_EQ(
      metrics_to_json(sample_snapshot()).dump(),
      "{\"counters\":{\"scwc_test_events_total\":3},"
      "\"gauges\":{\"scwc_test_loss\":1.5},"
      "\"histograms\":{\"scwc_test_seconds\":{"
      "\"buckets\":[{\"count\":1,\"le\":1},{\"count\":2,\"le\":2},"
      "{\"count\":1,\"le\":\"+Inf\"}],"
      "\"count\":4,\"p50\":1.5,\"p90\":2,\"p99\":2,\"p999\":2,"
      "\"sum\":6.5}}}");
}

TEST(ObsExport, PrometheusGolden) {
  EXPECT_EQ(to_prometheus(sample_snapshot()),
            "# TYPE scwc_test_events_total counter\n"
            "scwc_test_events_total 3\n"
            "# TYPE scwc_test_loss gauge\n"
            "scwc_test_loss 1.5\n"
            "# TYPE scwc_test_seconds histogram\n"
            "scwc_test_seconds_bucket{le=\"1\"} 1\n"
            "scwc_test_seconds_bucket{le=\"2\"} 3\n"  // cumulative
            "scwc_test_seconds_bucket{le=\"+Inf\"} 4\n"
            "scwc_test_seconds_sum 6.5\n"
            "scwc_test_seconds_count 4\n");
}

TEST(ObsExport, PrometheusNonFiniteGaugesUseExpositionNames) {
  // A NaN gauge is a legal sample; Prometheus rejects the JSON "null".
  MetricsSnapshot snap;
  snap.gauges = {{"scwc_test_nan", std::nan("")},
                 {"scwc_test_neg_inf", -HUGE_VAL},
                 {"scwc_test_pos_inf", HUGE_VAL}};
  EXPECT_EQ(to_prometheus(snap),
            "# TYPE scwc_test_nan gauge\n"
            "scwc_test_nan NaN\n"
            "# TYPE scwc_test_neg_inf gauge\n"
            "scwc_test_neg_inf -Inf\n"
            "# TYPE scwc_test_pos_inf gauge\n"
            "scwc_test_pos_inf +Inf\n");
}

TEST(ObsExport, SpanTreeJsonDropsSyntheticRoot) {
  EXPECT_EQ(span_tree_to_json(sample_tree()).dump(),
            "[{\"calls\":2,\"children\":["
            "{\"calls\":2,\"children\":[],\"name\":\"b\","
            "\"self_s\":0.5,\"total_s\":0.5}],"
            "\"name\":\"a\",\"self_s\":1,\"total_s\":1.5}]");
}

TEST(ObsExport, RenderSpanTreeIndentsChildren) {
  std::ostringstream os;
  render_span_tree(os, sample_tree());
  EXPECT_EQ(os.str(),
            "a  calls=2  total=1.500s  self=1.000s\n"
            "  b  calls=2  total=0.500s  self=0.500s\n");
}

TEST(ObsExport, RenderSpanTreeEmpty) {
  std::ostringstream os;
  render_span_tree(os, SpanStats{});
  EXPECT_EQ(os.str(), "(no spans recorded)\n");
}

TEST(ObsExport, JsonDumpParsesBackIdentically) {
  const std::string text = metrics_to_json(sample_snapshot()).dump();
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(ObsExport, JsonParserIsStrict) {
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);   // trailing comma
  EXPECT_THROW(Json::parse("{\"a\":1} x"), JsonError);  // trailing garbage
  EXPECT_THROW(Json::parse("'single'"), JsonError);     // bad quoting
  EXPECT_THROW(Json::parse(""), JsonError);             // empty input
}

TEST(ObsExport, RunReportJsonValidates) {
  RunReport report;
  report.run_id = "unit_test";
  report.title = "unit test report";
  report.profile = "tiny";
  report.config = {{"k", "v"}};
  report.wall_seconds = 1.25;
  const Json doc =
      run_report_json(report, sample_snapshot(), sample_tree());
  EXPECT_EQ(validate_run_report_json(doc), "");
  // Round-trips through text without losing validity.
  EXPECT_EQ(validate_run_report_json(Json::parse(doc.dump())), "");
}

// --- Prometheus hardening / edge cases (ISSUE 7 satellites) ---------------

TEST(ObsExport, EmptySnapshotIsByteIdenticalGolden) {
  // An empty registry must scrape as EXACTLY the empty string, every time —
  // monitoring pipelines diff scrape output, so even a stray newline is a
  // regression. Byte-for-byte golden, asserted twice for determinism.
  const MetricsSnapshot empty;
  EXPECT_EQ(to_prometheus(empty), "");
  EXPECT_EQ(to_prometheus(empty), "");
  EXPECT_EQ(metrics_to_json(empty).dump(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(ObsExport, SanitizeMetricName) {
  EXPECT_EQ(sanitize_metric_name("scwc_ok_total"), "scwc_ok_total");
  EXPECT_EQ(sanitize_metric_name("bad-name.with spaces"),
            "bad_name_with_spaces");
  EXPECT_EQ(sanitize_metric_name("9starts_with_digit"),
            "_9starts_with_digit");
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("name:with:colons"), "name:with:colons");
}

TEST(ObsExport, SanitizeLabelValue) {
  EXPECT_EQ(sanitize_label_value("plain"), "plain");
  EXPECT_EQ(sanitize_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(sanitize_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(sanitize_label_value("a\nb"), "a\\nb");
}

TEST(ObsExport, PrometheusSanitizesHostileNames) {
  MetricsSnapshot snap;
  snap.counters = {{"evil name{inject=\"x\"}", 1}};
  const std::string text = to_prometheus(snap);
  EXPECT_EQ(text,
            "# TYPE evil_name_inject__x__ counter\n"
            "evil_name_inject__x__ 1\n");
}

TEST(ObsExport, OverflowBucketOnlyHistogram) {
  // Every observation above the last bound: +Inf carries the whole count,
  // finite buckets stay zero, and the exporter still emits a full series.
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "scwc_test_over_seconds";
  h.bounds = {0.1, 0.2};
  h.buckets = {0, 0, 5};
  h.count = 5;
  h.sum = 50.0;
  h.p50 = 0.2;
  h.p90 = 0.2;
  h.p99 = 0.2;
  h.p999 = 0.2;
  snap.histograms = {h};
  EXPECT_EQ(to_prometheus(snap),
            "# TYPE scwc_test_over_seconds histogram\n"
            "scwc_test_over_seconds_bucket{le=\"0.1\"} 0\n"
            "scwc_test_over_seconds_bucket{le=\"0.2\"} 0\n"
            "scwc_test_over_seconds_bucket{le=\"+Inf\"} 5\n"
            "scwc_test_over_seconds_sum 50\n"
            "scwc_test_over_seconds_count 5\n");
}

TEST(ObsExport, RollingHistogramExportsAsSummary) {
  MetricsSnapshot snap;
  RollingHistogramSnapshot r;
  r.name = "scwc_test_rolling_seconds";
  r.window_s = 30.0;
  r.count = 10;
  r.sum = 1.0;
  r.p50 = 0.05;
  r.p90 = 0.09;
  r.p99 = 0.099;
  r.p999 = 0.0999;
  snap.rolling = {r};
  EXPECT_EQ(to_prometheus(snap),
            "# TYPE scwc_test_rolling_seconds summary\n"
            "scwc_test_rolling_seconds{quantile=\"0.5\"} 0.05\n"
            "scwc_test_rolling_seconds{quantile=\"0.9\"} 0.09\n"
            "scwc_test_rolling_seconds{quantile=\"0.99\"} 0.099\n"
            "scwc_test_rolling_seconds{quantile=\"0.999\"} 0.0999\n"
            "scwc_test_rolling_seconds_sum 1\n"
            "scwc_test_rolling_seconds_count 10\n"
            "# TYPE scwc_test_rolling_seconds_window_seconds gauge\n"
            "scwc_test_rolling_seconds_window_seconds 30\n");
  // The "rolling" JSON key appears exactly when rolling data exists.
  EXPECT_TRUE(metrics_to_json(snap).contains("rolling"));
  EXPECT_FALSE(metrics_to_json(MetricsSnapshot{}).contains("rolling"));
}

TEST(ObsExport, RunReportValidatorRejectsViolations) {
  RunReport report;
  report.run_id = "unit_test";
  report.title = "t";
  report.profile = "tiny";
  report.wall_seconds = 0.5;
  Json doc = run_report_json(report, sample_snapshot(), sample_tree());

  Json bad_schema = doc;
  bad_schema["schema"] = "scwc.run_report/v999";
  EXPECT_NE(validate_run_report_json(bad_schema), "");

  Json bad_wall = doc;
  bad_wall["wall_seconds"] = -1.0;
  EXPECT_NE(validate_run_report_json(bad_wall), "");

  Json bad_run_id = doc;
  bad_run_id["run_id"] = "";
  EXPECT_NE(validate_run_report_json(bad_run_id), "");

  Json bad_spans = doc;
  bad_spans["spans"] = "not an array";
  EXPECT_NE(validate_run_report_json(bad_spans), "");

  EXPECT_NE(validate_run_report_json(Json(1.0)), "");
}

}  // namespace
}  // namespace scwc::obs
