// l1hh_replica — warm standby for an l1hh_serve primary.
//
// Connects to a primary's Unix socket, full-syncs once ("replicate"),
// then tails incremental "sync" rounds every --interval-ms. Each round
// goes through the frame applier an engine Restore uses (StagedShardSet,
// engine/shard_set.h), so a torn, reordered, miscounted or foreign frame
// is a refused round, never a silently wrong standby; after one, the
// standby asks for a full "replicate" round and keeps tailing. It serves
// the shared query verbs on its own socket and keeps serving after the
// primary dies, answering from the last committed round.
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
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "engine/shard_set.h"
#include "obs/audit.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "serve/flags.h"
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

Status Parse(int argc, char** argv, ReplicaArgs* out) {
  serve::FlagSet flags;
  flags.Add("--primary", &out->primary_path);
  flags.Add("--socket", &out->socket_path);
  flags.Add("--interval-ms", &out->interval_ms);
  flags.Add("--phi", &out->default_phi);
  flags.Add("--http", &out->http_port, &out->http_enabled);
  flags.Add("--ready-lag", &out->ready_lag);
  flags.Add("--slow-query-us", &out->slow_query_us);
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed;
  if (out->primary_path.empty() || out->socket_path.empty()) {
    return Status::InvalidArgument(
        "--primary=<sock> and --socket=<sock> are required");
  }
  if (out->primary_path.size() > serve::kMaxUnixPathBytes) {
    return Status::InvalidArgument(
        "--primary path too long (max " +
        std::to_string(serve::kMaxUnixPathBytes) + " bytes)");
  }
  if (out->http_port > 65535) {
    return Status::InvalidArgument("--http port must be <= 65535");
  }
  return Status::Ok();
}

// ---- Replicated state --------------------------------------------------

// Shadow truth shipped by an auditing primary ("audit" lines in the sync
// stream): exact per-key counts for the primary's sampled key subspace,
// at the stream position `items`.
struct AuditShadow {
  double epsilon = 0.0;
  double phi = 0.0;
  uint64_t items = 0;
  std::vector<std::pair<uint64_t, uint64_t>> counts;
};

struct ReplicaState {
  std::mutex mutex;
  // The last committed round: its shard summaries (all null until the
  // first round commits), their common window rotation count, and the
  // audit shadow that came with it (empty from a primary that does not
  // audit). Queries merge the shards behind `view`.
  std::vector<std::unique_ptr<Summary>> shards;
  uint64_t rotations = 0;
  AuditShadow audit;
  std::string algorithm;
  uint64_t items = 0;  // primary's applied count at the last committed round
  uint64_t syncs = 0;  // committed replicate/sync rounds
  std::atomic<bool> primary_up{false};
  MergedViewCache view{"l1hh_replica_view"};
};

// The warm-standby health signal: rsync items at the last commit minus the
// items its shards hold — 0 after every commit, since a round commits only
// if its shards sum to its rsync total.  Also published as the
// l1hh_replica_lag_items gauge.  Caller holds state.mutex.
uint64_t PublishLagLocked(const ReplicaState& state) {
  uint64_t applied = 0;
  for (const auto& shard : state.shards) {
    if (shard != nullptr) applied += shard->ItemsProcessed();
  }
  const uint64_t lag = state.items > applied ? state.items - applied : 0;
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
      state.syncs > 0 && (PublishLagLocked(state) <= ready_lag ||
                          !state.primary_up.load(std::memory_order_relaxed));
  obs::GetGauge("l1hh_replica_ready")->Set(ready ? 1 : 0);
  return ready;
}

// The committed round's query view, through the shared merge-epoch
// cache. Caller holds state.mutex.
Status ViewLocked(ReplicaState& state, const Summary** view) {
  if (state.syncs == 0) {
    return Status::FailedPrecondition("replica has no synced state yet");
  }
  return state.view.View(state.shards, state.items, state.rotations, view);
}

// Audits the replica's merged view against the primary-shipped exact
// shadow (nothing to do until an auditing primary has synced). Caller
// holds state.mutex. This is the failover insurance: a replica whose
// frames decoded into a wrong view drifts its eps-ratio above 1 while it
// is still a standby. Shadow and shards commit in the same round, at the
// same stream position, so the comparison needs no lag correction.
void AuditReplicaLocked(ReplicaState& state) {
  if (state.audit.counts.empty()) return;
  const Summary* view = nullptr;
  if (!ViewLocked(state, &view).ok()) return;
  obs::AuditShippedShadow(state.audit.counts, state.audit.epsilon,
                          state.audit.phi, state.audit.items, *view);
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

// How a sync round ended.
enum class Round {
  kCommitted,  // read through its rsync and swapped in
  kRefused,    // read through its rsync, but a frame or the commit refused
  kLost,       // the stream ended or desynced: EOF, a malformed line, a
               // short frame
};

// Reads one round off `reader`, up to its closing "rsync <items>", and
// commits it as a whole: frames go through the applier (decoded outside
// state.mutex), an audit block stages its shadow, and at rsync the shards,
// items and shadow swap in together if the applier accepts the round
// against the rconf algorithm and the rsync total. The applier latches a
// refused frame and returns it from Commit, so the rest of the round is
// still read up to its rsync and the connection stays in step. A round
// that is refused or lost leaves the last committed round serving.
Round DrainSyncRound(ReplicaState& state, serve::LineReader& reader) {
  const auto lost = [](const std::string& why) {
    std::fprintf(stderr, "replica: %s\n", why.c_str());
    return Round::kLost;
  };
  StagedShardSet staged(&state.shards, &state.mutex);
  AuditShadow audit;
  std::string line;
  ShardFrame frame;
  while (reader.ReadLine(&line)) {
    if (line.rfind("frame ", 0) == 0) {
      // "frame <full|delta> <shard> <nbytes> <applied> <rotations>"
      std::string_view rest = std::string_view(line).substr(6);
      const std::string_view kind = NextField(&rest);
      frame.delta = kind == "delta";
      uint64_t shard = 0;
      uint64_t nbytes = 0;
      if ((!frame.delta && kind != "full") ||
          !serve::ParseU64(NextField(&rest), &shard) ||
          !serve::ParseU64(NextField(&rest), &nbytes) ||
          !serve::ParseU64(NextField(&rest), &frame.applied) ||
          !serve::ParseU64(rest, &frame.rotations) ||
          nbytes > serve::kMaxFrameBytes) {
        return lost("malformed frame header '" + line + "'");
      }
      frame.shard = static_cast<size_t>(shard);  // the applier checks < K
      frame.bytes.resize(static_cast<size_t>(nbytes));
      if (!reader.ReadExact(reinterpret_cast<char*>(frame.bytes.data()),
                            frame.bytes.size())) {
        return Round::kLost;
      }
      obs::GetCounter("l1hh_replica_frames_total",
                      frame.delta ? "kind=\"delta\"" : "kind=\"full\"")
          ->Inc();
      (void)staged.Apply(frame);  // a refusal comes back from Commit
      continue;
    }
    if (line.rfind("audit ", 0) == 0) {
      // Shadow truth from an auditing primary: header + nkeys pair lines
      // (docs/OBSERVABILITY.md#the-live-accuracy-auditor).
      std::string_view rest = std::string_view(line).substr(6);
      uint64_t rate = 0, nkeys = 0;
      if (!serve::ParseU64(NextField(&rest), &rate) ||
          !serve::ParseFiniteDouble(NextField(&rest), &audit.epsilon) ||
          !serve::ParseFiniteDouble(NextField(&rest), &audit.phi) ||
          !serve::ParseU64(NextField(&rest), &audit.items) ||
          !serve::ParseU64(rest, &nkeys) || nkeys > (1u << 20)) {
        return lost("malformed audit header '" + line + "'");
      }
      audit.counts.clear();
      audit.counts.reserve(static_cast<size_t>(nkeys));
      for (uint64_t i = 0; i < nkeys; ++i) {
        uint64_t key = 0, count = 0;
        if (!reader.ReadLine(&line)) return lost("torn audit shadow");
        std::string_view pair = line;
        if (!serve::ParseU64(NextField(&pair), &key) ||
            !serve::ParseU64(pair, &count)) {
          return lost("malformed audit pair '" + line + "'");
        }
        audit.counts.emplace_back(key, count);
      }
      continue;
    }
    if (line.rfind("rsync ", 0) == 0) {
      uint64_t items = 0;
      if (!serve::ParseU64(std::string_view(line).substr(6), &items)) {
        return lost("malformed rsync '" + line + "'");
      }
      const Status committed =
          staged.Commit(state.algorithm, items, [&](uint64_t rotations) {
            state.rotations = rotations;
            state.audit = std::move(audit);
            state.items = items;
            ++state.syncs;
            PublishLagLocked(state);
          });
      if (!committed.ok()) {
        std::fprintf(stderr, "replica: refused sync round: %s\n",
                     committed.ToString().c_str());
        obs::GetCounter("l1hh_replica_rounds_refused_total")->Inc();
        return Round::kRefused;
      }
      obs::GetCounter("l1hh_replica_sync_rounds_total")->Inc();
      obs::Trace(obs::Severity::kDebug, "replica.sync",
                 static_cast<int64_t>(state.syncs),
                 static_cast<int64_t>(items));
      return Round::kCommitted;
    }
    return lost("unexpected line from primary: '" + line + "'");
  }
  return Round::kLost;  // primary closed mid-round; nothing was committed
}

// Connects, full-syncs, then tails incremental syncs until the primary
// dies or the replica is told to stop.  Leaves the last committed round
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
  std::string rconf;
  if (!serve::WriteLine(fd, "replicate") || !reader.ReadLine(&rconf) ||
      rconf.rfind("rconf ", 0) != 0) {
    std::fprintf(stderr, "replica: bad replicate handshake ('%s')\n",
                 rconf.c_str());
    ::close(fd);
    return;
  }
  // "rconf shards=<K> algo=<name>"
  std::string_view rest = std::string_view(rconf).substr(6);
  const std::string_view shards_field = NextField(&rest);
  const std::string_view algo_field = NextField(&rest);
  uint64_t shards = 0;
  if (shards_field.rfind("shards=", 0) != 0 ||
      !serve::ParseU64(shards_field.substr(7), &shards) || shards == 0 ||
      shards > (1u << 16) || algo_field.rfind("algo=", 0) != 0 ||
      algo_field.size() == 5 || !rest.empty()) {
    std::fprintf(stderr, "replica: malformed rconf '%s'\n", rconf.c_str());
    ::close(fd);
    return;
  }
  const std::string algo(algo_field.substr(5));
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.shards.resize(static_cast<size_t>(shards));
    state.algorithm = algo;
  }
  if (DrainSyncRound(state, reader) != Round::kCommitted) {
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

  // After a refused round the primary's baselines have moved past deltas
  // this standby never applied, so it asks for a cold `replicate` next:
  // the primary answers, on this connection, with its rconf and a full
  // round. A primary whose rconf changed is one this standby cannot follow.
  bool resync = false;
  std::string line;
  while (!listener.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    if (listener.stopping()) break;
    if (!serve::WriteLine(fd, resync ? "replicate" : "sync") ||
        (resync && (!reader.ReadLine(&line) || line != rconf))) {
      break;  // primary gone or changed: stop syncing, keep serving
    }
    const Round round = DrainSyncRound(state, reader);
    if (round == Round::kLost) break;
    resync = round == Round::kRefused;
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
    return ReadView(
        [&](const Summary& view) { *out = view.HeavyHitters(phi); });
  }

  Status Estimate(uint64_t item, double* out) override {
    return ReadView([&](const Summary& view) { *out = view.Estimate(item); });
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
  // Runs `read` on the committed round's view (the `report` phase).
  template <typename Read>
  Status ReadView(Read&& read) {
    std::lock_guard<std::mutex> lock(state_.mutex);
    const Summary* view = nullptr;
    const Status status = ViewLocked(state_, &view);
    if (!status.ok()) return status;
    obs::ScopedPhase report_phase("report");
    read(*view);
    return Status::Ok();
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
                    static_cast<unsigned long long>(PublishLagLocked(state)),
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
  if (const Status parsed = Parse(argc, argv, &args); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  return RunReplica(args);
}
