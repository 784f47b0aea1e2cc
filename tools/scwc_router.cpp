// scwc_router — drive a fleet of scwc_worker shards from the command line.
//
// Connects to a comma-separated list of worker local shard ids (each the
// --port a scwc_worker bound its local AF_UNIX socket to), routes synthetic
// windows by job id through the consistent-hash ring, prints the verdict
// mix and per-shard stats, and can optionally hot-swap a bundle across the
// fleet (--swap) or shut the workers down (--halt). The README "Sharded
// serving" quickstart is built around this tool.
//
// Cluster observability: --listen serves the AGGREGATED fleet view —
// /metrics pulls every live worker's metrics over the wire when scraped and
// re-exports them under a shard="N" label next to the router's own
// counters, /shards is a JSON health view with per-shard liveness and
// clock offsets. --trace-out writes the router-side request traces (with
// per-shard clock offsets in scwcMeta, ready for scwc_tracemerge);
// --audit-out appends scwc.audit/v1 records that carry shard_id;
// --metrics-out renders the same exposition to a file at the end of the
// run, so it counts every window the run sent.
//
// Usage:
//   scwc_router --ports 9101,9102 --windows 200 --jobs 16
//   scwc_router --ports 9101,9102 --swap model_v2.scwcbndl
//   scwc_router --ports 9101,9102 --listen 0 --trace-out router_trace.json
//               --trace-sample 1.0 --audit-out audit.jsonl --halt
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/scrape.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "serve/audit.hpp"
#include "serve/retry.hpp"

namespace {

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      ports.push_back(static_cast<std::uint16_t>(std::stoi(item)));
    }
  }
  return ports;
}

/// Sum of every counter in `reply` whose name starts with `prefix`.
std::uint64_t counter_sum(const scwc::net::MetricsReplyFrame& reply,
                          std::string_view prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : reply.counters) {
    if (name.starts_with(prefix)) total += value;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scwc;
  CliParser cli("Consistent-hash front end for a scwc_worker fleet.");
  cli.add_flag("ports", "",
               "comma-separated worker local shard ids, as scwc_worker "
               "--port bound them (required)");
  cli.add_flag("windows", "200", "synthetic windows to submit");
  cli.add_flag("jobs", "16", "distinct job ids to spread the windows over");
  cli.add_flag("deadline-ms", "0", "per-window latency budget (0 = none)");
  cli.add_flag("seed", "42", "rng seed for the synthetic windows");
  cli.add_flag("swap", "", "serialized bundle to push to every shard");
  cli.add_flag("halt", "false", "send kShutdown to every worker at the end");
  cli.add_flag("listen", "-1",
               "serve the aggregated fleet view (GET /metrics, /shards) on "
               "this loopback port (0 = ephemeral; -1 disables)");
  cli.add_flag("listen-s", "0",
               "keep the fleet endpoint up this many extra seconds after "
               "the load drains (for interactive curls)");
  cli.add_flag("metrics-out", "",
               "write the aggregated Prometheus exposition here at the end");
  cli.add_flag("trace-out", "",
               "write router-side request traces as a chrome://tracing "
               "JSON document (scwcMeta carries per-shard clock offsets)");
  cli.add_flag("trace-sample", "0.05",
               "request head-sampling rate in [0,1] (used when --trace-out "
               "is set); the decision propagates to the workers");
  cli.add_flag("audit-out", "",
               "append one scwc.audit/v1 JSONL record per verdict "
               "(records carry shard_id)");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  try {
    const std::vector<std::uint16_t> ports =
        parse_ports(cli.get_string("ports"));
    if (ports.empty()) {
      std::cerr << "scwc_router: --ports is required (e.g. 9101,9102)\n";
      return 1;
    }

    cluster::RouterConfig config;
    config.default_deadline_s = cli.get_double("deadline-ms") / 1000.0;
    const std::string trace_out = cli.get_string("trace-out");
    if (!trace_out.empty()) {
      config.trace.sample_rate = cli.get_double("trace-sample");
    }
    const std::string audit_out = cli.get_string("audit-out");
    std::unique_ptr<serve::AuditLogger> audit;
    if (!audit_out.empty()) {
      audit = std::make_unique<serve::AuditLogger>(audit_out);
      config.audit = audit.get();
    }
    cluster::ShardRouter router(config);
    for (const std::uint16_t port : ports) {
      const std::uint32_t id = router.add_shard(port);
      std::cout << "shard " << id << " @ local id " << port << '\n';
    }

    // Fleet observability: the aggregated scrape endpoint pulls the
    // workers' metrics on every GET /metrics.
    const std::string metrics_out = cli.get_string("metrics-out");
    const int listen_port = cli.get_int("listen");
    std::unique_ptr<net::ScrapeServer> scrape;
    if (listen_port >= 0) {
      scrape = std::make_unique<net::ScrapeServer>(
          static_cast<std::uint16_t>(listen_port));
      scrape->add_route("/metrics", "text/plain; version=0.0.4",
                        [&router] { return router.fleet_metrics_text(); });
      scrape->add_route("/shards", "application/json", [&router] {
        return router.shards_health_json().dump(2) + "\n";
      });
      scrape->start();
      std::cout << "fleet endpoint: http://127.0.0.1:" << scrape->port()
                << "  (/metrics /shards)\n";
    }

    const std::string swap_path = cli.get_string("swap");
    if (!swap_path.empty()) {
      std::ifstream is(swap_path, std::ios::binary);
      if (!is.is_open()) {
        std::cerr << "scwc_router: cannot read " << swap_path << '\n';
        return 1;
      }
      std::ostringstream bytes;
      bytes << is.rdbuf();
      const cluster::SwapReport report =
          router.push_bundle(bytes.str(), swap_path);
      for (const cluster::SwapOutcome& o : report.shards) {
        std::cout << "swap shard " << o.shard_id << ": "
                  << (o.ok ? "ok" : "FAILED") << " (serving '"
                  << o.active_version << "'"
                  << (o.message.empty() ? "" : ", " + o.message) << ")\n";
      }
      std::cout << "swap " << (report.ok ? "committed on every shard"
                                         : "rolled back") << '\n';
      if (!report.ok) return 1;
    }

    // Synthetic load: Gaussian windows, jobs spread round-robin so the
    // ring's placement is visible in the per-shard stats.
    const auto n = static_cast<std::size_t>(cli.get_int("windows"));
    const auto jobs = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("jobs")));
    if (n > 0) {
      // Geometry comes from the fleet's hello frames; fall back to the
      // worker defaults when nothing announced one.
      std::size_t steps = 12;
      std::size_t sensors = 3;
      for (const auto& s : router.shards()) {
        if (s.window_steps > 0 && s.sensors > 0) {
          steps = s.window_steps;
          sensors = s.sensors;
          break;
        }
      }

      Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
      serve::RetryPolicy policy;
      std::map<std::string, std::size_t> outcomes;
      std::size_t answered = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> window(steps * sensors);
        for (double& v : window) v = rng.normal();
        const auto job_id = static_cast<std::int64_t>(i % jobs);
        const serve::ServeResult r = router.submit_and_wait(
            job_id, window, steps, sensors, policy, rng);
        if (r.accepted) {
          ++answered;
          ++outcomes[r.prediction.abstained ? "abstained" : "answered"];
        } else {
          ++outcomes[std::string("shed:") +
                     serve::reject_reason_name(r.reject_reason)];
        }
      }
      std::cout << n << " windows over " << jobs << " jobs → " << answered
                << " accepted\n";
      for (const auto& [k, v] : outcomes) {
        std::cout << "  " << k << ": " << v << '\n';
      }
    }

    // Per-shard serving counters, read from each worker's metrics reply.
    for (const auto& status : router.shards()) {
      if (const auto metrics = router.fetch_metrics(status.shard_id)) {
        std::cout << "shard " << status.shard_id << ": requests "
                  << counter_sum(*metrics, "scwc_serve_requests_total")
                  << ", answered "
                  << counter_sum(*metrics, "scwc_robust_guard_answered_total")
                  << ", abstained "
                  << counter_sum(*metrics, "scwc_robust_guard_abstain_")
                  << ", shed " << counter_sum(*metrics, "scwc_serve_shed_")
                  << ", bundle activations "
                  << counter_sum(*metrics, "scwc_serve_registry_swaps_total")
                  << " (clock offset " << status.clock_offset_ns << "ns)\n";
      }
    }

    const double listen_s = cli.get_double("listen-s");
    if (scrape != nullptr && listen_s > 0.0) {
      std::cout << "fleet endpoint stays up " << listen_s
                << " s — curl http://127.0.0.1:" << scrape->port()
                << "/metrics\n";
      std::this_thread::sleep_for(std::chrono::duration<double>(listen_s));
    }
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (!os.is_open()) {
        std::cerr << "scwc_router: cannot write " << metrics_out << '\n';
        return 1;
      }
      os << router.fleet_metrics_text();
      std::cout << "fleet metrics: " << metrics_out << '\n';
    }
    if (scrape != nullptr) {
      std::cout << "fleet scrape requests served: "
                << scrape->requests_served() << '\n';
      scrape->stop();
    }

    if (!trace_out.empty()) {
      // scwcMeta carries what scwc_tracemerge needs to align the worker
      // files onto this timeline: our tracer epoch and the per-shard
      // min-RTT clock offsets measured at handshake time.
      obs::Json::Object offsets;
      for (const auto& status : router.shards()) {
        offsets.emplace(std::to_string(status.shard_id),
                        obs::Json(static_cast<double>(status.clock_offset_ns)));
      }
      obs::Json::Object meta;
      meta.emplace("process", obs::Json("router"));
      meta.emplace("epoch_steady_ns",
                   obs::Json(static_cast<double>(
                       obs::steady_ns(router.tracer().epoch()))));
      meta.emplace("clock_offsets_ns", obs::Json(std::move(offsets)));
      const std::vector<obs::RequestTraceRecord> records =
          router.tracer().drain();
      const obs::SpanStats span_root = obs::span_tree_snapshot();
      if (obs::write_chrome_trace_file(trace_out, records, span_root,
                                       std::move(meta))) {
        std::cout << "chrome trace: " << trace_out << " (" << records.size()
                  << " sampled requests)\n";
      } else {
        std::cerr << "scwc_router: cannot write chrome trace to "
                  << trace_out << '\n';
        return 1;
      }
    }

    if (cli.get_bool("halt")) {
      router.shutdown_workers();
      std::cout << "sent shutdown to every worker\n";
    }
    router.stop();
    if (audit != nullptr) {
      audit->flush();
      std::cout << "audit log: " << audit_out << " ("
                << audit->records_written() << " records"
                << (audit->ok() ? "" : ", WRITE ERRORS") << ")\n";
      if (!audit->ok()) return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "scwc_router: " << e.what() << '\n';
    return 1;
  }
}
