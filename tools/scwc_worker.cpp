// scwc_worker — one shard process of the sharded serving cluster.
//
// Loads a serialized model bundle (optional — without one the shard serves
// kNoModel sheds until the router pushes a bundle), stands a ClusterWorker
// up on a local AF_UNIX socket and parks until the router sends kShutdown.
// The socket lives in Linux's abstract namespace under a name derived from
// its 16-bit local shard id, which --port sets and ShardRouter::add_shard
// (scwc_router --ports) dials. With --port 0 the worker picks a free id;
// --port-file publishes the bound id for the parent process
// (bench/cluster_throughput, perfbench and the cluster-smoke gate use
// exactly that rendezvous). TCP serves only the optional HTTP scrape
// endpoint.
//
// Cluster observability (ISSUE 10): --trace-out writes the shard's sampled
// request traces as a chrome://tracing document whose scwcMeta block names
// the shard and its steady-clock epoch, so scwc_tracemerge can align it
// with the router's file; --listen embeds the net scrape server (GET
// /metrics, /healthz) and --listen-port-file publishes its bound port the
// same write-then-rename way --port-file does.
//
// Usage:
//   scwc_worker --shard-id 0 --bundle model.scwcbndl --port 0
//               --port-file /tmp/shard0.port
//               [--trace-out shard0_trace.json [--trace-sample 1.0]]
//               [--listen 0 --listen-port-file /tmp/shard0.http]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cluster/worker.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "net/scrape.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/bundle_io.hpp"

namespace {

// Write-then-rename so the parent never reads a torn value.
bool publish_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os.is_open()) return false;
    os << contents << '\n';
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scwc;
  CliParser cli("One shard of the sharded serving cluster.");
  cli.add_flag("shard-id", "0", "numeric shard identity (unique per fleet)");
  cli.add_flag("port", "0",
               "local shard id the router dials (a local AF_UNIX socket); "
               "0 picks a free one");
  cli.add_flag("port-file", "",
               "write the bound local shard id here once listening "
               "(parent rendezvous)");
  cli.add_flag("bundle", "", "serialized bundle to load + activate at boot");
  cli.add_flag("steps", "12", "window steps when no bundle sets geometry");
  cli.add_flag("sensors", "3", "window sensors when no bundle sets geometry");
  cli.add_flag("max-batch", "64", "micro-batch size bound");
  cli.add_flag("max-pending", "4096", "admission bound on queued requests");
  cli.add_flag("batch-delay-ms", "2", "micro-batch max delay");
  cli.add_flag("trace-out", "",
               "write this shard's sampled request traces as a "
               "chrome://tracing JSON document at exit");
  cli.add_flag("trace-sample", "1.0",
               "request head-sampling rate in [0,1]; router-propagated "
               "sampling decisions override this per request");
  cli.add_flag("listen", "-1",
               "serve GET /metrics, /healthz on this loopback port "
               "(0 = ephemeral; -1 disables)");
  cli.add_flag("listen-port-file", "",
               "write the scrape server's bound port here once listening");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  try {
    serve::ModelRegistry registry;
    std::size_t steps = static_cast<std::size_t>(cli.get_int("steps"));
    std::size_t sensors = static_cast<std::size_t>(cli.get_int("sensors"));
    const std::string bundle_path = cli.get_string("bundle");
    if (!bundle_path.empty()) {
      const auto bundle = serve::load_bundle_file(bundle_path);
      steps = bundle->guard_config().window_steps;
      sensors = bundle->guard_config().sensors;
      registry.register_bundle(bundle);
      std::cout << "loaded bundle '" << bundle->version() << "' (" << steps
                << "×" << sensors << ")\n";
    }

    cluster::WorkerConfig config;
    config.shard_id = static_cast<std::uint32_t>(cli.get_int("shard-id"));
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.service.assembler.window_steps = steps;
    config.service.assembler.sensors = sensors;
    config.service.batcher.max_batch =
        static_cast<std::size_t>(cli.get_int("max-batch"));
    config.service.batcher.max_delay_s =
        cli.get_double("batch-delay-ms") / 1000.0;
    config.service.admission.max_pending =
        static_cast<std::size_t>(cli.get_int("max-pending"));
    const std::string trace_out = cli.get_string("trace-out");
    if (!trace_out.empty()) {
      config.service.trace.sample_rate = cli.get_double("trace-sample");
    }

    cluster::ClusterWorker worker(registry, config);
    worker.start();
    std::cout << "shard " << config.shard_id << " serving on local id "
              << worker.port() << '\n';

    const std::string port_file = cli.get_string("port-file");
    if (!port_file.empty() &&
        !publish_file(port_file, std::to_string(worker.port()))) {
      std::cerr << "cannot write port file " << port_file << '\n';
      return 1;
    }

    // Shard-local scrape endpoint: the same registry the router pulls over
    // the wire, for operators who want to curl one shard directly.
    std::unique_ptr<net::ScrapeServer> scrape;
    const int listen_port = cli.get_int("listen");
    if (listen_port >= 0) {
      scrape = std::make_unique<net::ScrapeServer>(
          static_cast<std::uint16_t>(listen_port));
      scrape->add_route("/metrics", "text/plain; version=0.0.4", [] {
        return obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
      });
      scrape->add_route("/healthz", "application/json", [&worker, &config] {
        obs::Json::Object health;
        health.emplace("status", obs::Json("ok"));
        health.emplace("shard_id",
                       obs::Json(static_cast<double>(config.shard_id)));
        health.emplace("submitted", obs::Json(static_cast<double>(
                                        worker.counters().submitted)));
        return obs::Json(std::move(health)).dump() + "\n";
      });
      scrape->start();
      std::cout << "scrape endpoint: http://127.0.0.1:" << scrape->port()
                << "  (/metrics /healthz)\n";
      const std::string listen_port_file = cli.get_string("listen-port-file");
      if (!listen_port_file.empty() &&
          !publish_file(listen_port_file, std::to_string(scrape->port()))) {
        std::cerr << "cannot write port file " << listen_port_file << '\n';
        return 1;
      }
    }

    worker.wait_shutdown();

    // Export the trace BEFORE stop(): stop drains in-flight verdicts, but
    // the tracer's record ring is complete once shutdown was requested.
    // (stop first would also work — this ordering just keeps the file
    // write outside the teardown path.)
    worker.stop();
    if (scrape != nullptr) scrape->stop();
    if (!trace_out.empty()) {
      obs::RequestTracer& tracer = worker.service().tracer();
      const std::vector<obs::RequestTraceRecord> records = tracer.drain();
      // scwcMeta lets scwc_tracemerge place this file on the router's
      // timeline: which shard it is, and where this process's steady
      // clock had its tracer epoch.
      obs::Json::Object meta;
      meta.emplace("process", obs::Json("worker"));
      meta.emplace("shard_id",
                   obs::Json(static_cast<double>(config.shard_id)));
      meta.emplace("epoch_steady_ns",
                   obs::Json(static_cast<double>(
                       obs::steady_ns(tracer.epoch()))));
      const obs::SpanStats span_root = obs::span_tree_snapshot();
      if (obs::write_chrome_trace_file(trace_out, records, span_root,
                                       std::move(meta))) {
        std::cout << "chrome trace: " << trace_out << " (" << records.size()
                  << " sampled requests)\n";
      } else {
        std::cerr << "cannot write chrome trace to " << trace_out << '\n';
        return 1;
      }
    }

    const cluster::WorkerCounters c = worker.counters();
    std::cout << "shard " << config.shard_id << " exiting: " << c.submitted
              << " submitted, " << c.answered << " answered, " << c.shed
              << " shed, " << c.swaps << " swaps\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "scwc_worker: " << e.what() << '\n';
    return 1;
  }
}
