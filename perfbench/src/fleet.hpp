// Forked scwc_worker shards for the cluster workload: spawn with an
// ephemeral port and a write-then-rename port file, wait for the port, and
// reap every child before the benchmark exits.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkerProc {
  pid_t pid = -1;
  std::uint32_t shard_id = 0;
  std::uint16_t port = 0;
};

struct FleetOptions {
  std::string worker_bin;
  std::string bundle_path;
  std::string work_dir;      ///< port files, worker logs and traces
  std::string tag;           ///< distinguishes fleets within one run
  double batch_delay_ms = 5.0;
  double trace_sample = 0.0;  ///< --trace-sample of every worker
};

/// Forks `count` workers and waits until each has published its port.
/// Throws std::runtime_error (after killing what it started) when one
/// does not.
std::vector<WorkerProc> spawn_fleet(const FleetOptions& options,
                                    std::size_t count);

/// Waits up to `grace_s` for each worker to exit, then SIGKILLs and reaps
/// the rest. Idempotent.
void reap_fleet(std::vector<WorkerProc>& fleet, double grace_s);

}  // namespace perfbench
