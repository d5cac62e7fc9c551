// l1hh_serve — long-running serving front end over the sharded engine.
//
// Listens on a Unix-domain socket, ingests item streams from concurrent
// connections (each ingesting connection lazily binds to its own engine
// producer slot), answers live queries from the merged-view cache with
// snapshot isolation, and streams replication frames to l1hh_replica.
//
//   l1hh_serve --socket=/tmp/l1hh.sock --algo=space_saving
//       [--epsilon=0.01 --phi=0.05 --delta=0.05 --n=16777216 --m=1048576]
//       [--shards=4 --threads=0 --producers=8 --seed=1]
//       [--window=W --buckets=B]
//       [--http=PORT] [--audit-rate=R --audit-interval-ms=1000]
//       [--slow-query-us=10000]
//
// --http=PORT (0 = ephemeral; the bound port is printed as "http <port>"
// after the "listening" line) serves /metrics, /healthz and /readyz on
// loopback. --audit-rate=R audits the engine against an exact shadow of
// 1/R of the key space every --audit-interval-ms and at every scrape; it
// is refused with --window. Telemetry: docs/OBSERVABILITY.md.
//
// Wire protocol (every verb, which binary serves it, reply framing):
// docs/ENGINE.md#the-socket-front-end-toolsl1hh_servecc. This file keeps
// the primary's own verbs — digit and `bin` ingest, `flush`,
// `replicate`/`sync` — and hands every other line to the shared
// query-verb table in src/serve/.
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "obs/audit.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/flags.h"
#include "serve/query_verbs.h"
#include "serve/socket.h"
#include "summary/summary.h"
#include "util/status.h"

namespace {

using namespace l1hh;

struct ServeArgs {
  std::string socket_path;
  std::string algorithm = "space_saving";
  double epsilon = 0.01;
  double phi = 0.05;
  double delta = 0.05;
  uint64_t n = uint64_t{1} << 24;
  uint64_t m = uint64_t{1} << 20;
  uint64_t seed = 1;
  uint64_t shards = 4;
  uint64_t threads = 0;
  // External producer slots (max concurrent ingesting connections).
  uint64_t producers = 8;
  uint64_t window = 0;
  uint64_t buckets = 0;
  // Observability knobs.
  bool http_enabled = false;  // --http given (port 0 = ephemeral)
  uint64_t http_port = 0;
  uint64_t audit_rate = 0;  // 0 = auditor off
  uint64_t audit_interval_ms = 1000;
  uint64_t slow_query_us = 10000;  // 0 = slow-query capture off
};

Status Parse(int argc, char** argv, ServeArgs* out) {
  serve::FlagSet flags;
  flags.Add("--socket", &out->socket_path);
  flags.Add("--algo", &out->algorithm);
  flags.Add("--algorithm", &out->algorithm);
  flags.Add("--epsilon", &out->epsilon);
  flags.Add("--phi", &out->phi);
  flags.Add("--delta", &out->delta);
  flags.Add("--n", &out->n);
  flags.Add("--m", &out->m);
  flags.Add("--seed", &out->seed);
  flags.Add("--shards", &out->shards);
  flags.Add("--threads", &out->threads);
  flags.Add("--producers", &out->producers);
  flags.Add("--window", &out->window);
  flags.Add("--buckets", &out->buckets);
  flags.Add("--http", &out->http_port, &out->http_enabled);
  flags.Add("--audit-rate", &out->audit_rate);
  flags.Add("--audit-interval-ms", &out->audit_interval_ms);
  flags.Add("--slow-query-us", &out->slow_query_us);
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return parsed;
  const auto refuse = [](const char* why) {
    return Status::InvalidArgument(why);
  };
  if (out->socket_path.empty()) return refuse("--socket=<path> is required");
  if (out->epsilon <= 0 || out->phi <= 0 || out->delta <= 0) {
    return refuse("--epsilon, --phi, and --delta must be > 0");
  }
  if (out->shards == 0 || out->producers == 0) {
    return refuse("--shards and --producers must be >= 1");
  }
  if (out->http_port > 65535) return refuse("--http port must be <= 65535");
  if (out->audit_rate != 0 && out->window != 0) {
    // The shadow counts the WHOLE stream; a windowed engine forgets, so
    // every comparison would flag phantom over-estimates.
    return refuse("--audit-rate cannot be combined with --window");
  }
  if (out->window != 0 && !IsWindowedSummaryName(out->algorithm)) {
    out->algorithm = std::string(kWindowedPrefix) + out->algorithm;
  }
  return Status::Ok();
}

// Answers queries from the live engine.
class EngineBackend : public serve::QueryBackend {
 public:
  EngineBackend(ShardedEngine* engine, obs::AccuracyAuditor* auditor)
      : engine_(*engine), auditor_(auditor) {}

  Status HeavyHitters(double phi, std::vector<ItemEstimate>* out) override {
    *out = engine_.HeavyHitters(phi);
    return Status::Ok();
  }

  Status Estimate(uint64_t item, double* out) override {
    *out = engine_.Estimate(item);
    return Status::Ok();
  }

  // Per-slot enqueued counts and slot occupancy ride after the legacy
  // fields (existing clients key on the prefix). Slot exhaustion is
  // visible here BEFORE ingesting connections start drawing "err".
  std::string StatsLine() override {
    const EngineMetrics m = engine_.Metrics();
    std::string line =
        "stats items=" + std::to_string(engine_.ItemsProcessed()) +
        " shards=" + std::to_string(engine_.num_shards()) +
        " threads=" + std::to_string(engine_.num_threads()) +
        " producers=" + std::to_string(m.active_producers) +
        " algo=" + engine_.algorithm() +
        " slots=" + std::to_string(m.active_producers) + "/" +
        std::to_string(m.max_producers - 1);
    for (size_t p = 0; p < m.slot_enqueued.size(); ++p) {
      line += " slot" + std::to_string(p) + "=" +
              std::to_string(m.slot_enqueued[p]) +
              (m.slot_active[p] != 0 ? "*" : "");
    }
    return line;
  }

  // Point-in-time gauges are published at scrape time; counters and
  // histograms are already live. An enabled auditor runs a pass too, so
  // a scrape always reads a fresh eps-ratio.
  void BeforeScrape() override {
    engine_.PublishMetrics();
    if (auditor_ != nullptr) RunAudit();
  }

  // One audit pass: flush so the shadow and the engine agree on the
  // stream prefix, then compare. Requires an auditor.
  void RunAudit() {
    engine_.Flush();
    const uint64_t total = engine_.ItemsProcessed();
    auditor_->Audit(
        [this](const std::vector<uint64_t>& keys) {
          return engine_.EstimateBatch(keys);
        },
        [this](double phi) { return engine_.HeavyHitters(phi); }, total);
  }

 private:
  ShardedEngine& engine_;
  obs::AccuracyAuditor* const auditor_;  // null = auditing off
};

// Ships one replicate/sync round: the changed shards' frames, then (from
// an auditing primary) the exact shadow truth, then "rsync <items>".
// False when the connection is unusable.
bool SendSyncRound(int fd, ShardedEngine& engine,
                   obs::AccuracyAuditor* auditor, bool cold,
                   std::vector<ShardBaseline>* baselines) {
  std::vector<ShardFrame> frames;
  uint64_t total = 0;
  const Status captured = engine.CaptureFrames(
      cold ? std::vector<ShardBaseline>{} : *baselines,
      ShardedEngine::kMaxDeltaChain, &frames, &total);
  if (!captured.ok()) return serve::WriteLine(fd, "err " + captured.ToString());
  if (cold) {
    baselines->assign(engine.num_shards(), ShardBaseline{});
    if (!serve::WriteLine(fd, "rconf shards=" +
                                  std::to_string(engine.num_shards()) +
                                  " algo=" + engine.algorithm())) {
      return false;
    }
  }
  for (const ShardFrame& frame : frames) {
    // The clocks let the follower check the decoded shard.
    const std::string header =
        std::string("frame ") + (frame.delta ? "delta" : "full") + " " +
        std::to_string(frame.shard) + " " +
        std::to_string(frame.bytes.size()) + " " +
        std::to_string(frame.applied) + " " +
        std::to_string(frame.rotations);
    if (!serve::WriteLine(fd, header) ||
        !serve::WriteAll(fd, reinterpret_cast<const char*>(frame.bytes.data()),
                         frame.bytes.size())) {
      return false;
    }
    // The follower now holds this state; the next sync diffs against it.
    (*baselines)[frame.shard].Advance(frame);
  }
  if (auditor != nullptr) {
    // Ship exact shadow truth alongside the frames, so the follower can
    // audit ITS merged view against the primary's sampled substream
    // without ever seeing the raw stream. `total` is the applied count
    // the frames advance the follower to — the same m the shadow's
    // counts were taken at (CaptureFrames flushed).
    const obs::AuditorOptions& opts = auditor->options();
    const auto shadow = auditor->TopShadow(opts.audit_top_k);
    char header[160];
    std::snprintf(header, sizeof(header), "audit %llu %.17g %.17g %llu %zu",
                  static_cast<unsigned long long>(opts.sample_rate),
                  opts.epsilon, opts.phi,
                  static_cast<unsigned long long>(total), shadow.size());
    if (!serve::WriteLine(fd, header)) return false;
    for (const auto& [key, count] : shadow) {
      if (!serve::WriteLine(fd, std::to_string(key) + " " +
                                    std::to_string(count))) {
        return false;
      }
    }
  }
  return serve::WriteLine(fd, "rsync " + std::to_string(total));
}

// One thread per connection. Ingest is dispatched first; everything else
// goes to the shared query-verb table. The producer slot is claimed
// lazily on the first ingest request, so query-only clients (dashboards)
// never consume one, and released when the connection closes.
void HandleConnection(ShardedEngine& engine, obs::AccuracyAuditor* auditor,
                      const serve::QueryVerbs& verbs, int fd) {
  static obs::Counter* const connections_ctr =
      obs::GetCounter("l1hh_serve_connections_total");
  static obs::Gauge* const active_conns =
      obs::GetGauge("l1hh_serve_active_connections");
  static obs::Counter* const ingest_ctr =
      obs::GetCounter("l1hh_serve_ingest_items_total");
  static obs::Counter* const ingest_err_ctr =
      obs::GetCounter("l1hh_serve_ingest_errors_total");
  static obs::Counter* const queries_ctr =
      obs::GetCounter("l1hh_serve_queries_total");
  connections_ctr->Inc();
  active_conns->Add(1);
  serve::LineReader reader(fd);
  std::unique_ptr<ShardedEngine::Producer> producer;
  std::string line;
  std::vector<uint64_t> batch;
  // Per-connection replication baselines: what the follower on the other
  // end of THIS socket holds per shard (empty until "replicate").
  std::vector<ShardBaseline> replica_baselines;
  auto ensure_producer = [&]() -> bool {
    if (producer != nullptr) return true;
    Status status;
    producer = engine.RegisterProducer(&status);
    if (producer == nullptr) {
      serve::WriteLine(fd, "err " + status.ToString());
      return false;
    }
    return true;
  };
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    if (line[0] >= '0' && line[0] <= '9') {
      uint64_t item = 0;
      if (!serve::ParseU64(line, &item)) {
        ingest_err_ctr->Inc();
        serve::WriteLine(fd, "err malformed item id '" + line + "'");
        continue;
      }
      if (!ensure_producer()) {
        ingest_err_ctr->Inc();
        continue;
      }
      producer->Update(item);
      if (auditor != nullptr) auditor->Observe(item);
      ingest_ctr->Inc();
      continue;
    }
    if (line.rfind("bin ", 0) == 0) {
      uint64_t count = 0;
      if (!serve::ParseBinCount(std::string_view(line).substr(4), &count)) {
        ingest_err_ctr->Inc();
        serve::WriteLine(fd,
                         "err malformed binary batch header '" + line + "'");
        break;  // the payload length is unknown; the stream is desynced
      }
      batch.resize(static_cast<size_t>(count));
      if (!reader.ReadExact(reinterpret_cast<char*>(batch.data()),
                            static_cast<size_t>(count) * sizeof(uint64_t))) {
        break;
      }
      // The wire format is little-endian u64; byte-swap on a big-endian
      // host so snapshots of the served stream stay portable.
      if constexpr (std::endian::native == std::endian::big) {
        for (uint64_t& item : batch) item = __builtin_bswap64(item);
      }
      if (!ensure_producer()) {
        ingest_err_ctr->Inc();
        continue;
      }
      producer->UpdateBatch(batch);
      if (auditor != nullptr) {
        auditor->ObserveColumn(batch.data(), batch.size());
      }
      ingest_ctr->Inc(count);
      continue;
    }
    if (line == "flush") {
      queries_ctr->Inc();
      engine.Flush();
      serve::WriteLine(fd, "ok " + std::to_string(engine.ItemsProcessed()));
      continue;
    }
    if (line == "replicate" || line == "sync") {
      // "sync" before any "replicate" degenerates to a cold full sync:
      // the connection has no baselines, so every shard ships full.
      const bool cold = line == "replicate" || replica_baselines.empty();
      if (!SendSyncRound(fd, engine, auditor, cold, &replica_baselines)) break;
      continue;
    }
    if (!verbs.Answer(fd, line)) break;
  }
  active_conns->Add(-1);
  // ~Producer releases the slot for the next connection.
}

int Serve(const ServeArgs& args) {
  ShardedEngineOptions options;
  options.algorithm = args.algorithm;
  options.summary.epsilon = args.epsilon;
  options.summary.phi = args.phi;
  options.summary.delta = args.delta;
  options.summary.universe_size = args.n;
  options.summary.stream_length = args.m;
  options.summary.seed = args.seed;
  options.summary.window_size = args.window;
  if (args.buckets != 0) options.summary.window_buckets = args.buckets;
  options.num_shards = static_cast<size_t>(args.shards);
  options.num_threads = static_cast<size_t>(args.threads);
  options.max_producers = static_cast<size_t>(args.producers) + 1;
  Status status;
  auto engine = ShardedEngine::Create(options, &status);
  if (engine == nullptr) {
    std::fprintf(stderr, "cannot create engine: %s\n",
                 status.ToString().c_str());
    return 2;
  }

  obs::EmitBuildInfo("l1hh_serve", args.algorithm);
  obs::SetSlowQueryThresholdNs(args.slow_query_us * 1000);

  std::unique_ptr<obs::AccuracyAuditor> auditor;
  if (args.audit_rate != 0) {
    obs::AuditorOptions audit_options;
    audit_options.sample_rate = args.audit_rate;
    audit_options.seed = args.seed;
    audit_options.epsilon = args.epsilon;
    audit_options.phi = args.phi;
    auditor = std::make_unique<obs::AccuracyAuditor>(audit_options);
  }

  std::unique_ptr<serve::UnixListener> listener =
      serve::UnixListener::Bind(args.socket_path, &status);
  if (listener == nullptr) {
    std::fprintf(stderr, "cannot listen: %s\n", status.ToString().c_str());
    return 2;
  }
  listener->StopOnSignals();
  EngineBackend backend(engine.get(), auditor.get());
  const serve::QueryVerbs verbs(
      &backend, args.phi, [&listener] { listener->RequestStop(); },
      obs::GetCounter("l1hh_serve_queries_total"));

  // HTTP telemetry surface. /readyz says the process is accepting (for
  // the primary, alive == ready — it owns the truth).
  std::unique_ptr<obs::HttpExporter> exporter;
  if (args.http_enabled) {
    obs::HttpExporterOptions http_options;
    http_options.port = static_cast<uint16_t>(args.http_port);
    auto handlers = serve::HttpHandlers(&backend);
    handlers["/readyz"] = [&listener] {
      const bool ready = !listener->stopping();
      return obs::HttpResponse{ready ? 200 : 503,
                               "text/plain; charset=utf-8",
                               ready ? "ok\n" : "stopping\n"};
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

  // Periodic audit thread: keeps the l1hh_audit_* gauges warm even when
  // nobody scrapes (operators watching `metrics` over the socket).
  std::thread audit_thread;
  std::mutex audit_mutex;
  std::condition_variable audit_cv;
  bool audit_stop = false;
  if (auditor != nullptr && args.audit_interval_ms != 0) {
    audit_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(audit_mutex);
      while (!audit_cv.wait_for(
          lock, std::chrono::milliseconds(args.audit_interval_ms),
          [&] { return audit_stop; })) {
        lock.unlock();
        backend.RunAudit();
        lock.lock();
      }
    });
  }

  // The readiness line clients (and tests/serve_test.cc) wait for.
  std::printf("listening %s\n", args.socket_path.c_str());
  if (exporter != nullptr) {
    std::printf("http %u\n", static_cast<unsigned>(exporter->port()));
  }
  std::fflush(stdout);

  listener->Run([&](int fd) {
    HandleConnection(*engine, auditor.get(), verbs, fd);
  });

  // The exporter and the audit thread reference the engine; stop both
  // before it goes away.
  if (exporter != nullptr) exporter->Stop();
  if (audit_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(audit_mutex);
      audit_stop = true;
    }
    audit_cv.notify_all();
    audit_thread.join();
  }
  listener.reset();
  engine->Flush();
  std::printf("served %llu items\n",
              static_cast<unsigned long long>(engine->ItemsProcessed()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  if (const Status parsed = Parse(argc, argv, &args); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  return Serve(args);
}
