// scwc_tracemerge — join router + worker chrome traces into one timeline.
//
// A sharded run leaves one trace file per process: the router's (request
// lanes with route/wire_send/wire_recv phases, pid 1) and one per worker
// (the same requests' worker-side queue/transform/predict slices, each on
// its own steady clock). Each file's scwcMeta block records the process's
// tracer epoch as steady-clock nanoseconds, and the router's adds the
// per-shard clock offsets measured by the min-RTT ping handshake at
// connect time. That is exactly enough to place every worker event on the
// router's timeline:
//
//   shift_us = (worker_epoch_ns − offset_ns − router_epoch_ns) / 1000
//   merged_ts = max(0, worker_ts + shift_us)
//
// where offset_ns = worker_clock − router_clock, so subtracting it maps a
// worker stamp onto the router's clock. The merged document keeps the
// router's request lanes on pid 1 and gives shard K's lanes pid 100+K;
// thread ids are trace ids throughout, so one request's router-side and
// worker-side slices line up vertically under the same tid.
//
// Because the router propagates both the trace id and its sampling
// decision over the wire, the two processes sampled exactly the same
// requests: every accepted router lane should find its worker twin.
// --require-joined turns that invariant into the exit code (the
// cluster-telemetry-smoke gate runs with it).
//
// Usage:
//   scwc_tracemerge --router router_trace.json
//                   --workers shard0.json,shard1.json
//                   --out merged.json [--require-joined true]
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

namespace {

using scwc::obs::Json;

int fail(const std::string& message) {
  std::cerr << "scwc_tracemerge: " << message << '\n';
  return 1;
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses `path` and checks it is a valid chrome trace with an scwcMeta
/// block; throws JsonError / returns via `error` on failure.
bool load_trace(const std::string& path, Json& doc, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    doc = Json::parse(buffer.str());
  } catch (const scwc::obs::JsonError& e) {
    error = path + ": " + e.what();
    return false;
  }
  const std::string violation = scwc::obs::validate_chrome_trace_json(doc);
  if (!violation.empty()) {
    error = path + ": " + violation;
    return false;
  }
  if (!doc.contains("scwcMeta") || !doc.at("scwcMeta").is_object()) {
    error = path + ": missing scwcMeta block (written by --trace-out?)";
    return false;
  }
  return true;
}

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

/// The request-lane pid chrome_trace_json emits everything under.
constexpr double kRequestPid = 1.0;

}  // namespace

int main(int argc, char** argv) {
  using namespace scwc;
  CliParser cli("Merge router + worker chrome traces onto one timeline.");
  cli.add_flag("router", "", "router-side trace file (required)");
  cli.add_flag("workers", "",
               "comma-separated worker-side trace files (required)");
  cli.add_flag("out", "merged_trace.json", "merged document destination");
  cli.add_flag("require-joined", "false",
               "fail unless every accepted router request has worker-side "
               "slices under the same trace id");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  const std::string router_path = cli.get_string("router");
  const std::vector<std::string> worker_paths =
      split_list(cli.get_string("workers"));
  if (router_path.empty() || worker_paths.empty()) {
    return fail("--router and --workers are both required");
  }

  std::string error;
  Json router_doc;
  if (!load_trace(router_path, router_doc, error)) return fail(error);
  const Json& router_meta = router_doc.at("scwcMeta");
  if (!router_meta.contains("epoch_steady_ns") ||
      !router_meta.at("epoch_steady_ns").is_number()) {
    return fail(router_path + ": scwcMeta lacks numeric epoch_steady_ns");
  }
  const double router_epoch_ns =
      router_meta.at("epoch_steady_ns").as_number();

  // offset_ns per shard: worker_clock − router_clock at handshake time.
  std::map<std::string, double> offsets;
  if (router_meta.contains("clock_offsets_ns") &&
      router_meta.at("clock_offsets_ns").is_object()) {
    for (const auto& [shard, value] :
         router_meta.at("clock_offsets_ns").as_object()) {
      if (value.is_number()) offsets.emplace(shard, value.as_number());
    }
  }

  Json::Array merged;
  merged.push_back(process_name_event(1, "scwc router"));

  // Router lanes pass through untouched (their clock IS the merged
  // timeline); remember which trace ids must find a worker twin.
  std::set<double> accepted_tids;
  std::size_t router_requests = 0;
  for (const Json& event : router_doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    if (event.at("pid").as_number() != kRequestPid) continue;  // span tree
    merged.push_back(event);
    if (event.at("name").as_string() != "request") continue;
    ++router_requests;
    if (event.contains("args") && event.at("args").is_object() &&
        event.at("args").contains("outcome")) {
      const std::string& outcome =
          event.at("args").at("outcome").as_string();
      // Sheds never reached a worker; everything else must join.
      if (outcome.rfind("shed", 0) != 0) {
        accepted_tids.insert(event.at("tid").as_number());
      }
    }
  }

  std::set<double> worker_tids;
  for (const std::string& worker_path : worker_paths) {
    Json worker_doc;
    if (!load_trace(worker_path, worker_doc, error)) return fail(error);
    const Json& meta = worker_doc.at("scwcMeta");
    for (const char* key : {"shard_id", "epoch_steady_ns"}) {
      if (!meta.contains(key) || !meta.at(key).is_number()) {
        return fail(worker_path + ": scwcMeta lacks numeric " +
                    std::string(key));
      }
    }
    const auto shard_id = static_cast<int>(meta.at("shard_id").as_number());
    const double worker_epoch_ns = meta.at("epoch_steady_ns").as_number();
    double offset_ns = 0.0;  // v1 shards have no handshake → no offset
    const auto it = offsets.find(std::to_string(shard_id));
    if (it != offsets.end()) offset_ns = it->second;
    const double shift_us =
        (worker_epoch_ns - offset_ns - router_epoch_ns) / 1000.0;

    const int pid = 100 + shard_id;
    merged.push_back(process_name_event(
        pid, "scwc worker shard " + std::to_string(shard_id)));
    for (const Json& event : worker_doc.at("traceEvents").as_array()) {
      if (event.at("ph").as_string() != "X") continue;
      if (event.at("pid").as_number() != kRequestPid) continue;
      Json::Object shifted = event.as_object();
      shifted["pid"] = Json(pid);
      shifted["ts"] =
          Json(std::max(0.0, event.at("ts").as_number() + shift_us));
      merged.push_back(Json(std::move(shifted)));
      if (event.at("name").as_string() == "request") {
        worker_tids.insert(event.at("tid").as_number());
      }
    }
  }

  std::size_t joined = 0;
  std::vector<double> unjoined;
  for (const double tid : accepted_tids) {
    if (worker_tids.count(tid) > 0) {
      ++joined;
    } else {
      unjoined.push_back(tid);
    }
  }

  Json::Object meta;
  meta.emplace("merged_from",
               Json(static_cast<double>(1 + worker_paths.size())));
  meta.emplace("router_requests", Json(static_cast<double>(router_requests)));
  meta.emplace("accepted_requests",
               Json(static_cast<double>(accepted_tids.size())));
  meta.emplace("joined_requests", Json(static_cast<double>(joined)));
  Json::Object doc;
  doc.emplace("displayTimeUnit", Json("ms"));
  doc.emplace("traceEvents", Json(std::move(merged)));
  doc.emplace("scwcMeta", Json(std::move(meta)));
  const Json merged_doc(std::move(doc));

  // Self-check: the merged document must itself satisfy the structural
  // validator — a merge that breaks loadability is worse than no merge.
  const std::string violation =
      scwc::obs::validate_chrome_trace_json(merged_doc);
  if (!violation.empty()) return fail("merged document invalid: " + violation);

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path);
  if (!out) return fail("cannot write '" + out_path + "'");
  merged_doc.write(out, 2);
  out << '\n';
  if (!out.good()) return fail("write to '" + out_path + "' failed");

  std::cout << out_path << ": merged " << (1 + worker_paths.size())
            << " traces, " << router_requests << " router requests, "
            << joined << "/" << accepted_tids.size()
            << " accepted requests joined to worker slices\n";
  if (cli.get_bool("require-joined") && joined != accepted_tids.size()) {
    std::ostringstream msg;
    msg << (accepted_tids.size() - joined)
        << " accepted request(s) have no worker-side slices; first missing "
           "trace id "
        << (unjoined.empty() ? 0.0 : unjoined.front());
    return fail(msg.str());
  }
  return 0;
}
