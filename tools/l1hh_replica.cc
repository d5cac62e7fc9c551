// l1hh_replica — warm standby for an l1hh_serve primary.
//
// Connects to a primary's Unix socket, full-syncs once ("replicate"),
// then tails incremental "sync" rounds every --interval-ms. Every frame
// is CRC-validated and clock-checked by the snapshot layer before it
// touches replica state, so a torn or reordered frame is a refused
// frame, never a silently wrong standby. It serves the shared query
// verbs on its own socket and keeps serving after the primary dies,
// answering from the last completed sync.
//
//   l1hh_replica --primary=/tmp/l1hh.sock --socket=/tmp/l1hh-replica.sock
//       [--interval-ms=200] [--phi=0.05] [--http=PORT] [--ready-lag=65536]
//       [--slow-query-us=10000]
//
// --phi is the bare `heavy` threshold. --http=PORT mounts /metrics,
// /healthz and /readyz; readiness means at least one completed sync AND
// lag_items <= --ready-lag, or the primary is lost. Telemetry, including
// the audit against shadow truth an auditing primary ships:
// docs/OBSERVABILITY.md.
//
// Wire protocol (every verb, which binary serves it, reply framing):
// docs/ENGINE.md#the-socket-front-end-toolsl1hh_servecc.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "io/snapshot.h"
#include "obs/audit.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "serve/query_verbs.h"
#include "serve/socket.h"
#include "summary/summary.h"
#include "util/status.h"

namespace {

using namespace l1hh;

struct ReplicaArgs {
  std::string primary_path;
  std::string socket_path;
  uint64_t interval_ms = 200;
  double default_phi = 0.05;
  bool http_enabled = false;  // --http given (port 0 = ephemeral)
  uint64_t http_port = 0;
  uint64_t ready_lag = 65536;  // /readyz red above this lag_items
  uint64_t slow_query_us = 10000;
};

bool Parse(int argc, char** argv, ReplicaArgs* out) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (value.empty()) {
      std::fprintf(stderr, "flag %s needs a non-empty value\n", key.c_str());
      return false;
    }
    if (key == "--primary") {
      out->primary_path = value;
    } else if (key == "--socket") {
      out->socket_path = value;
    } else if (key == "--interval-ms") {
      out->interval_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--phi") {
      out->default_phi = std::atof(value.c_str());
    } else if (key == "--http") {
      out->http_enabled = true;
      out->http_port = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--ready-lag") {
      out->ready_lag = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--slow-query-us") {
      out->slow_query_us = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\nknown flags: --primary --socket "
                   "--interval-ms --phi --http --ready-lag --slow-query-us\n",
                   key.c_str());
      return false;
    }
  }
  if (out->primary_path.empty() || out->socket_path.empty()) {
    std::fprintf(stderr, "--primary=<sock> and --socket=<sock> are required\n");
    return false;
  }
  if (out->primary_path.size() > serve::kMaxUnixPathBytes) {
    std::fprintf(stderr, "--primary path too long (max %zu bytes)\n",
                 serve::kMaxUnixPathBytes);
    return false;
  }
  if (out->http_port > 65535) {
    std::fprintf(stderr, "--http port must be <= 65535\n");
    return false;
  }
  return true;
}

// ---- Replicated state --------------------------------------------------

struct ReplicaState {
  std::mutex mutex;
  // Shard summaries, rebuilt/advanced frame by frame.  Queries merge them
  // on demand behind the usual epoch cache.
  std::vector<std::unique_ptr<Summary>> shards;
  std::string algorithm;
  uint64_t items = 0;  // primary's applied count at the last completed sync
  uint64_t syncs = 0;  // completed replicate/sync rounds
  std::atomic<bool> primary_up{false};

  std::unique_ptr<Summary> merged;
  uint64_t merged_epoch = ~uint64_t{0};

  // Shadow truth shipped by an auditing primary ("audit" lines in the
  // sync stream): exact per-key counts for the primary's sampled key
  // subspace, at the stream position audit_items.  Guarded by `mutex`.
  bool audit_valid = false;
  double audit_epsilon = 0.0;
  double audit_phi = 0.0;
  uint64_t audit_items = 0;
  std::vector<std::pair<uint64_t, uint64_t>> audit_shadow;
};

// Items applied to replica state (sum over shard summaries).  Caller
// holds state.mutex.
uint64_t ReplicaAppliedLocked(const ReplicaState& state) {
  uint64_t applied = 0;
  for (const auto& shard : state.shards) {
    if (shard != nullptr) applied += shard->ItemsProcessed();
  }
  return applied;
}

// The warm-standby health signal: primary items at the last completed
// rsync minus items applied here.  Frames land BEFORE the rsync that
// commits their round, so applied can transiently exceed items — clamp
// at 0 rather than reporting a bogus negative lag.  Caller holds
// state.mutex.
uint64_t LagItemsLocked(const ReplicaState& state) {
  const uint64_t applied = ReplicaAppliedLocked(state);
  return state.items > applied ? state.items - applied : 0;
}

// LagItemsLocked, also published as the l1hh_replica_lag_items gauge.
uint64_t PublishLagLocked(const ReplicaState& state) {
  const uint64_t lag = LagItemsLocked(state);
  obs::GetGauge("l1hh_replica_lag_items")->Set(static_cast<int64_t>(lag));
  return lag;
}

// The readiness rule behind /readyz: this replica could take over right
// now — synced at least once AND within `ready_lag` of the primary, or
// the primary is lost (the last synced view is then the best answer that
// exists). Also published as the 0/1 l1hh_replica_ready gauge, so a plain
// /metrics scrape can alert on readiness flapping without a prober.
// Caller holds state.mutex.
bool PublishReadyLocked(const ReplicaState& state, uint64_t ready_lag) {
  const bool ready =
      state.syncs > 0 && (LagItemsLocked(state) <= ready_lag ||
                          !state.primary_up.load(std::memory_order_relaxed));
  obs::GetGauge("l1hh_replica_ready")->Set(ready ? 1 : 0);
  return ready;
}

// The query view: the lone shard itself for K == 1 (supports
// non-mergeable algorithms), otherwise an on-demand merge of all shards,
// cached until the next completed sync.  Caller holds state.mutex.
const Summary* QueryView(ReplicaState& state) {
  if (state.shards.empty()) return nullptr;
  // The handshake sizes the shard vector before the first round lands;
  // until every slot has applied a full frame there is nothing to serve.
  for (const auto& shard : state.shards) {
    if (shard == nullptr) return nullptr;
  }
  if (state.shards.size() == 1) return state.shards[0].get();
  if (state.merged != nullptr && state.merged_epoch == state.syncs) {
    return state.merged.get();
  }
  // Post-sync re-merge: the cost every first query after a sync round
  // pays.  Exported per ROADMAP — an operator sizing --interval-ms needs
  // to see it, not infer it from latency spikes.
  static obs::Histogram* const rebuild_hist =
      obs::GetHistogram("l1hh_replica_view_rebuild_ns");
  static obs::FloatGauge* const rebuild_seconds =
      obs::GetFloatGauge("l1hh_replica_view_rebuild_seconds");
  static obs::Counter* const rebuild_ctr =
      obs::GetCounter("l1hh_replica_view_rebuilds_total");
  obs::ScopedPhase phase("merge_rebuild");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  Status status;
  auto merged = MakeSummary(state.shards[0]->Name(),
                            state.shards[0]->Options(), &status);
  if (merged == nullptr) return nullptr;
  for (const auto& shard : state.shards) {
    if (!merged->Merge(*shard).ok()) return nullptr;
  }
  state.merged = std::move(merged);
  state.merged_epoch = state.syncs;
  if (obs_on) {
    const uint64_t elapsed = obs::TraceRing::NowNs() - t0;
    rebuild_hist->Observe(elapsed);
    rebuild_seconds->Set(static_cast<double>(elapsed) * 1e-9);
    rebuild_ctr->Inc();
  }
  return state.merged.get();
}

// Audits the replica's merged view against the primary-shipped exact
// shadow (nothing to do until an auditing primary has synced). Caller
// holds state.mutex. This is the failover insurance: a replica whose
// frames decoded into a wrong view drifts its eps-ratio above 1 while it
// is still a standby. The shadow is exact at audit_items and the view
// may trail it (frames land before the rsync that commits the shadow);
// that residual lag is genuine staleness, so no correction is applied.
void AuditReplicaLocked(ReplicaState& state) {
  if (!state.audit_valid || state.audit_shadow.empty()) return;
  const Summary* view = QueryView(state);
  if (view == nullptr) return;
  obs::AuditShippedShadow(state.audit_shadow, state.audit_epsilon,
                          state.audit_phi, state.audit_items, *view);
}

// ---- Replication client (primary-facing) -------------------------------

// Splits the next space-delimited field off the front of `*rest`. The sync
// lines are parsed field by field with serve::ParseU64 and
// ParseFiniteDouble, so a sign, trailing garbage or a missing field fails
// the round instead of committing a misread number.
std::string_view NextField(std::string_view* rest) {
  const size_t end = std::min(rest->find(' '), rest->size());
  const std::string_view field = rest->substr(0, end);
  rest->remove_prefix(std::min(end + 1, rest->size()));
  return field;
}

bool ParseFiniteDouble(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

// Reads frames off `reader` until the closing "rsync <items>", applying
// each to the pending shard set; commits clocks only when the round
// completes, so a half-received sync never shows up in queries.
bool DrainSyncRound(ReplicaState& state, serve::LineReader& reader,
                    size_t expected_shards) {
  std::string line;
  std::vector<uint8_t> bytes;
  while (reader.ReadLine(&line)) {
    if (line.rfind("frame ", 0) == 0) {
      std::string_view rest = std::string_view(line).substr(6);
      const std::string_view kind = NextField(&rest);
      const bool full = kind == "full";
      uint64_t shard_id = 0;
      uint64_t nbytes = 0;
      if ((!full && kind != "delta") ||
          !serve::ParseU64(NextField(&rest), &shard_id) ||
          !serve::ParseU64(rest, &nbytes) || shard_id >= expected_shards ||
          nbytes > serve::kMaxFrameBytes) {
        std::fprintf(stderr, "replica: malformed frame header '%s'\n",
                     line.c_str());
        return false;
      }
      const size_t shard = static_cast<size_t>(shard_id);
      bytes.resize(static_cast<size_t>(nbytes));
      if (!reader.ReadExact(reinterpret_cast<char*>(bytes.data()),
                            bytes.size())) {
        return false;
      }
      obs::GetCounter("l1hh_replica_frames_total",
                      full ? "kind=\"full\"" : "kind=\"delta\"")
          ->Inc();
      std::lock_guard<std::mutex> lock(state.mutex);
      if (full) {
        Status status;
        auto summary = LoadSummary(bytes, &status);
        if (summary == nullptr) {
          std::fprintf(stderr, "replica: refused full frame for shard %zu: %s\n",
                       shard, status.ToString().c_str());
          return false;
        }
        state.shards[shard] = std::move(summary);
      } else {
        Summary* target = state.shards[shard].get();
        if (target == nullptr) {
          std::fprintf(stderr,
                       "replica: delta frame for shard %zu before any "
                       "full frame\n",
                       shard);
          return false;
        }
        const Status applied = ApplySummaryDelta(bytes, target);
        if (!applied.ok()) {
          std::fprintf(stderr, "replica: refused delta frame for shard %zu: %s\n",
                       shard, applied.ToString().c_str());
          return false;
        }
      }
      continue;
    }
    if (line.rfind("audit ", 0) == 0) {
      // Shadow truth from an auditing primary: header + nkeys pair lines
      // (docs/OBSERVABILITY.md#the-live-accuracy-auditor).
      std::string_view rest = std::string_view(line).substr(6);
      uint64_t rate = 0, m = 0, nkeys = 0;
      double eps = 0.0, phi = 0.0;
      if (!serve::ParseU64(NextField(&rest), &rate) ||
          !ParseFiniteDouble(NextField(&rest), &eps) ||
          !ParseFiniteDouble(NextField(&rest), &phi) ||
          !serve::ParseU64(NextField(&rest), &m) ||
          !serve::ParseU64(rest, &nkeys) || nkeys > (1u << 20)) {
        std::fprintf(stderr, "replica: malformed audit header '%s'\n",
                     line.c_str());
        return false;
      }
      std::vector<std::pair<uint64_t, uint64_t>> shadow;
      shadow.reserve(static_cast<size_t>(nkeys));
      for (uint64_t i = 0; i < nkeys; ++i) {
        uint64_t key = 0, count = 0;
        if (!reader.ReadLine(&line)) {
          std::fprintf(stderr, "replica: torn audit shadow\n");
          return false;
        }
        std::string_view pair = line;
        if (!serve::ParseU64(NextField(&pair), &key) ||
            !serve::ParseU64(pair, &count)) {
          std::fprintf(stderr, "replica: malformed audit pair '%s'\n",
                       line.c_str());
          return false;
        }
        shadow.emplace_back(key, count);
      }
      std::lock_guard<std::mutex> lock(state.mutex);
      state.audit_valid = true;
      state.audit_epsilon = eps;
      state.audit_phi = phi;
      state.audit_items = m;
      state.audit_shadow = std::move(shadow);
      continue;
    }
    if (line.rfind("rsync ", 0) == 0) {
      uint64_t items = 0;
      if (!serve::ParseU64(std::string_view(line).substr(6), &items)) {
        std::fprintf(stderr, "replica: malformed rsync '%s'\n",
                     line.c_str());
        return false;
      }
      std::lock_guard<std::mutex> lock(state.mutex);
      state.items = items;
      ++state.syncs;
      obs::GetCounter("l1hh_replica_sync_rounds_total")->Inc();
      PublishLagLocked(state);
      obs::Trace(obs::Severity::kDebug, "replica.sync",
                 static_cast<int64_t>(state.syncs),
                 static_cast<int64_t>(state.items));
      return true;
    }
    std::fprintf(stderr, "replica: unexpected line from primary: '%s'\n",
                 line.c_str());
    return false;
  }
  return false;  // primary closed mid-round; nothing was committed
}

// Connects, full-syncs, then tails incremental syncs until the primary
// dies or the replica is told to stop.  Leaves the last completed sync
// in `state` either way — failover keeps serving it.
void ReplicationLoop(ReplicaState& state, const ReplicaArgs& args,
                     const serve::UnixListener& listener) {
  // The primary may still be binding its socket (a replica is typically
  // started right beside it); retry briefly before declaring it gone.
  int fd = -1;
  Status status;
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = serve::ConnectUnix(args.primary_path, &status);
    if (fd >= 0 || listener.stopping()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (fd < 0) {
    std::fprintf(stderr, "replica: cannot connect to primary '%s': %s\n",
                 args.primary_path.c_str(), status.ToString().c_str());
    return;
  }

  serve::LineReader reader(fd);
  std::string line;
  if (!serve::WriteLine(fd, "replicate") || !reader.ReadLine(&line) ||
      line.rfind("rconf ", 0) != 0) {
    std::fprintf(stderr, "replica: bad replicate handshake ('%s')\n",
                 line.c_str());
    ::close(fd);
    return;
  }
  // "rconf shards=<K> algo=<name>"
  std::string_view rest = std::string_view(line).substr(6);
  const std::string_view shards_field = NextField(&rest);
  const std::string_view algo_field = NextField(&rest);
  uint64_t shards = 0;
  if (shards_field.rfind("shards=", 0) != 0 ||
      !serve::ParseU64(shards_field.substr(7), &shards) || shards == 0 ||
      shards > (1u << 16) || algo_field.rfind("algo=", 0) != 0 ||
      algo_field.size() == 5 || !rest.empty()) {
    std::fprintf(stderr, "replica: malformed rconf '%s'\n", line.c_str());
    ::close(fd);
    return;
  }
  const std::string algo(algo_field.substr(5));
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.shards.resize(static_cast<size_t>(shards));
    state.algorithm = algo;
  }
  if (!DrainSyncRound(state, reader, static_cast<size_t>(shards))) {
    ::close(fd);
    return;
  }
  state.primary_up.store(true, std::memory_order_relaxed);
  obs::GetGauge("l1hh_replica_primary_up")->Set(1);
  obs::GetCounter("l1hh_replica_primary_transitions_total")->Inc();
  obs::Trace(obs::Severity::kInfo, "replica.primary_up",
             static_cast<int64_t>(shards));
  std::printf("synced %s shards=%llu\n", algo.c_str(),
              static_cast<unsigned long long>(shards));
  std::fflush(stdout);

  while (!listener.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    if (listener.stopping()) break;
    if (!serve::WriteLine(fd, "sync") ||
        !DrainSyncRound(state, reader, static_cast<size_t>(shards))) {
      break;  // primary gone: stop syncing, keep serving (failover)
    }
  }
  state.primary_up.store(false, std::memory_order_relaxed);
  obs::GetGauge("l1hh_replica_primary_up")->Set(0);
  obs::GetCounter("l1hh_replica_primary_transitions_total")->Inc();
  obs::Trace(obs::Severity::kWarn, "replica.primary_lost");
  ::close(fd);
}

// ---- Query server (client-facing) --------------------------------------

// Answers queries from the replicated shards' merged view.
class ReplicaBackend : public serve::QueryBackend {
 public:
  explicit ReplicaBackend(ReplicaState* state) : state_(*state) {}

  Status HeavyHitters(double phi, std::vector<ItemEstimate>* out) override {
    std::lock_guard<std::mutex> lock(state_.mutex);
    const Summary* view = QueryView(state_);
    if (view == nullptr) return NotSynced();
    obs::ScopedPhase report_phase("report");
    *out = view->HeavyHitters(phi);
    return Status::Ok();
  }

  Status Estimate(uint64_t item, double* out) override {
    std::lock_guard<std::mutex> lock(state_.mutex);
    const Summary* view = QueryView(state_);
    if (view == nullptr) return NotSynced();
    obs::ScopedPhase report_phase("report");
    *out = view->Estimate(item);
    return Status::Ok();
  }

  std::string StatsLine() override {
    std::lock_guard<std::mutex> lock(state_.mutex);
    const uint64_t lag = PublishLagLocked(state_);
    return "stats items=" + std::to_string(state_.items) +
           " shards=" + std::to_string(state_.shards.size()) +
           " syncs=" + std::to_string(state_.syncs) + " primary=" +
           (state_.primary_up.load(std::memory_order_relaxed) ? "up"
                                                               : "lost") +
           " algo=" + state_.algorithm + " lag_items=" + std::to_string(lag);
  }

  void BeforeScrape() override {
    std::lock_guard<std::mutex> lock(state_.mutex);
    PublishLagLocked(state_);
    AuditReplicaLocked(state_);
  }

 private:
  static Status NotSynced() {
    return Status::FailedPrecondition("replica has no synced state yet");
  }

  ReplicaState& state_;
};

int RunReplica(const ReplicaArgs& args) {
  Status status;
  std::unique_ptr<serve::UnixListener> listener =
      serve::UnixListener::Bind(args.socket_path, &status);
  if (listener == nullptr) {
    std::fprintf(stderr, "cannot listen: %s\n", status.ToString().c_str());
    return 2;
  }
  listener->StopOnSignals();

  obs::EmitBuildInfo("l1hh_replica", "replica");
  obs::SetSlowQueryThresholdNs(args.slow_query_us * 1000);

  ReplicaState state;
  ReplicaBackend backend(&state);
  const serve::QueryVerbs verbs(&backend, args.default_phi,
                                [&listener] { listener->RequestStop(); });

  std::unique_ptr<obs::HttpExporter> exporter;
  if (args.http_enabled) {
    obs::HttpExporterOptions http_options;
    http_options.port = static_cast<uint16_t>(args.http_port);
    auto handlers = serve::HttpHandlers(&backend);
    handlers["/metrics"] = [&state, &args, scrape = handlers["/metrics"]] {
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        PublishReadyLocked(state, args.ready_lag);
      }
      return scrape();
    };
    handlers["/readyz"] = [&state, &args] {
      std::lock_guard<std::mutex> lock(state.mutex);
      const bool ready = PublishReadyLocked(state, args.ready_lag);
      char body[160];
      std::snprintf(body, sizeof(body), "%s syncs=%llu lag_items=%llu "
                    "primary=%s\n", ready ? "ok" : "not ready",
                    static_cast<unsigned long long>(state.syncs),
                    static_cast<unsigned long long>(LagItemsLocked(state)),
                    state.primary_up.load(std::memory_order_relaxed)
                        ? "up" : "lost");
      return obs::HttpResponse{ready ? 200 : 503,
                               "text/plain; charset=utf-8", body};
    };
    Status http_status;
    exporter = obs::HttpExporter::Create(http_options, std::move(handlers),
                                         &http_status);
    if (exporter == nullptr) {
      std::fprintf(stderr, "cannot start http exporter: %s\n",
                   http_status.ToString().c_str());
      return 2;
    }
  }

  // The readiness line tests wait for (before the first sync completes;
  // queries until then answer "err replica has no synced state yet").
  std::printf("listening %s\n", args.socket_path.c_str());
  if (exporter != nullptr) {
    std::printf("http %u\n", static_cast<unsigned>(exporter->port()));
  }
  std::fflush(stdout);

  std::thread replication(
      [&state, &args, &listener] { ReplicationLoop(state, args, *listener); });
  listener->Run([&verbs](int fd) { verbs.ServeConnection(fd); });

  // The exporter's handlers and the replication thread read `state`;
  // stop both before it goes away.
  if (exporter != nullptr) exporter->Stop();
  replication.join();
  listener.reset();
  std::printf("replicated %llu items over %llu syncs\n",
              static_cast<unsigned long long>(state.items),
              static_cast<unsigned long long>(state.syncs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ReplicaArgs args;
  if (!Parse(argc, argv, &args)) return 2;
  return RunReplica(args);
}
