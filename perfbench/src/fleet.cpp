#include "fleet.hpp"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>


namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

WorkerProc spawn_worker(const FleetOptions& o, std::uint32_t shard_id,
                        const std::string& port_file) {
  std::filesystem::remove(port_file);
  const std::string prefix =
      o.work_dir + "/" + o.tag + "-shard" + std::to_string(shard_id);
  std::vector<std::string> args = {
      o.worker_bin,    "--shard-id",       std::to_string(shard_id),
      "--port",        "0",                "--port-file",
      port_file,       "--bundle",         o.bundle_path,
      "--max-batch",   "64",               "--batch-delay-ms",
      std::to_string(o.batch_delay_ms),    "--trace-sample",
      std::to_string(o.trace_sample)};
  // The worker only keeps request traces when it has somewhere to write
  // them; a traced fleet writes them into the work dir at shutdown.
  if (o.trace_sample > 0.0) {
    args.push_back("--trace-out");
    args.push_back(prefix + ".trace.json");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log_path = prefix + ".log";

  WorkerProc proc;
  proc.shard_id = shard_id;
  proc.pid = ::fork();
  if (proc.pid == 0) {
    // A worker never outlives the benchmark, even one killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // Keep the benchmark's stdout for its own report.
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(o.worker_bin.c_str(), argv.data());
    std::_Exit(127);
  }
  if (proc.pid < 0) throw std::runtime_error("fork failed");
  return proc;
}

bool wait_for_port(WorkerProc& proc, const std::string& port_file,
                   double deadline_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  while (Clock::now() < deadline) {
    std::ifstream is(port_file);
    int port = 0;
    if (is.is_open() && (is >> port) && port > 0) {
      proc.port = static_cast<std::uint16_t>(port);
      return true;
    }
    int status = 0;
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      proc.pid = -1;  // died at boot; it will never publish
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace

std::vector<WorkerProc> spawn_fleet(const FleetOptions& options,
                                    std::size_t count) {
  std::vector<WorkerProc> fleet;
  std::vector<std::string> port_files;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      port_files.push_back(options.work_dir + "/" + options.tag + "-shard" +
                           std::to_string(id) + ".port");
      fleet.push_back(spawn_worker(options, id, port_files.back()));
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (!wait_for_port(fleet[i], port_files[i], 30.0)) {
        throw std::runtime_error("worker shard " + std::to_string(i) +
                                 " never published a port");
      }
    }
  } catch (...) {
    reap_fleet(fleet, 0.0);
    throw;
  }
  return fleet;
}

void reap_fleet(std::vector<WorkerProc>& fleet, double grace_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(grace_s));
  for (WorkerProc& proc : fleet) {
    if (proc.pid <= 0) continue;
    int status = 0;
    bool exited = ::waitpid(proc.pid, &status, WNOHANG) == proc.pid;
    while (!exited && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      exited = ::waitpid(proc.pid, &status, WNOHANG) == proc.pid;
    }
    if (!exited) {
      ::kill(proc.pid, SIGKILL);
      ::waitpid(proc.pid, &status, 0);
    }
    proc.pid = -1;
  }
}

}  // namespace perfbench
