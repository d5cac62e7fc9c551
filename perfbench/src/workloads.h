// The benchmark's three served workloads.  Each one starts the real
// l1hh_serve (and, for fanin_replica, l1hh_replica) binaries, drives them
// over Unix sockets from this single load-generator process, and checks
// the served answers against exact counts.  docs: perfbench/README.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::string serve_bin;    // absolute path of l1hh_serve
  std::string replica_bin;  // absolute path of l1hh_replica
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Operations attempted and failed across every thread of a run.
/// Failures are err replies, timeouts, short flush acks, Definition-1
/// violations, and a replica that stops serving after its primary dies.
class Ops {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& why, uint64_t n = 1);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> notes() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> notes_;
};

/// Samples of one rep (one server set from spawn to teardown).
struct RepSamples {
  bool traced = false;
  double setup_s = 0;
  double ingest_items_per_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> heavy_ms;
  std::vector<double> estimate_ms;
  std::vector<double> lag_ms;
};

/// What the in-process layer replay needs from a workload: its stream and
/// the parameters its servers ran with.
struct LayerInputs {
  std::vector<uint64_t> items;
  std::string served_algorithm;
  double epsilon = 0;
  double phi = 0;
  size_t batch = 0;
  size_t threads = 0;  // the served engine's workers; 0 = one per shard
};

struct WorkloadResult {
  std::vector<double> setup_s;  // setup probes plus every rep's setup
  std::vector<RepSamples> reps;
  /// Traced runs: each server's `metrics` exposition, prefixed by role.
  std::vector<std::string> scrape;
  LayerInputs layer_inputs;
};

/// Sockets of a server set, relative to the run's scratch directory.
inline constexpr char kPrimarySocket[] = "p.sock";
inline constexpr char kReplicaSocket[] = "r.sock";

/// One l1hh_serve, and an l1hh_replica tailing it when the set has one.
struct Servers {
  ServerProcess primary;
  ServerProcess replica;

  /// VmHWM summed over the set, in MiB.
  double PeakRssMb() const;
};

/// Spawns l1hh_serve with `flags` (and a replica tailing it when asked) and
/// waits until the set is ready: the primary has printed `listening` and
/// the replica `synced`.  Returns the seconds that took, or -1.
double StartServers(const RunConfig& config,
                    const std::vector<std::string>& flags, bool with_replica,
                    Servers* servers, Ops& ops);

bool ConnectOrFail(Client& client, const char* path, Ops& ops);

/// Appends one server's `metrics` exposition, each line prefixed by `role`.
void Scrape(Client& client, const std::string& role, Ops& ops,
            std::vector<std::string>* out);

/// Runs `config.workload` for `config.seconds`.  The current directory
/// is the run's scratch directory (sockets and server logs go there).
/// False for an unknown workload.
bool RunWorkload(const RunConfig& config, Tracer& tracer, Ops& ops,
                 WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
