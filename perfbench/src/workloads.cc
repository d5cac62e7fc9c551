#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <thread>
#include <utility>

#include "checker.h"
#include "net.h"
#include "stream/stream_generator.h"
#include "util/random.h"

namespace perfbench {

namespace {
constexpr int kReadyTimeoutMs = 30000;
}  // namespace

void Ops::Fail(const std::string& why, uint64_t n) {
  failed_.fetch_add(n);
  std::lock_guard<std::mutex> lock(mutex_);
  if (notes_.size() < 16) notes_.push_back(why);
}

std::vector<std::string> Ops::notes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return notes_;
}

double Servers::PeakRssMb() const {
  return static_cast<double>(primary.PeakRssBytes() + replica.PeakRssBytes()) /
         (1024.0 * 1024.0);
}

double StartServers(const RunConfig& config,
                    const std::vector<std::string>& flags, bool with_replica,
                    Servers* servers, Ops& ops) {
  // The replica answers a bare `heavy` at its own --phi; give it the
  // primary's.
  std::string phi_flag;
  for (const std::string& flag : flags) {
    if (flag.rfind("--phi=", 0) == 0) phi_flag = flag;
  }
  std::vector<std::string> argv = {config.serve_bin,
                                   std::string("--socket=") + kPrimarySocket};
  argv.insert(argv.end(), flags.begin(), flags.end());
  ops.Attempt();
  const int64_t t0 = NowNs();
  if (!servers->primary.Start(argv, "serve.log") ||
      !servers->primary.WaitForLine("listening", kReadyTimeoutMs)) {
    ops.Fail("l1hh_serve did not become ready");
    return -1;
  }
  if (with_replica) {
    const std::vector<std::string> replica_argv = {
        config.replica_bin, std::string("--primary=") + kPrimarySocket,
        std::string("--socket=") + kReplicaSocket, "--interval-ms=20",
        phi_flag};
    if (!servers->replica.Start(replica_argv, "replica.log") ||
        !servers->replica.WaitForLine("synced", kReadyTimeoutMs)) {
      ops.Fail("l1hh_replica did not sync");
      return -1;
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

bool ConnectOrFail(Client& client, const char* path, Ops& ops) {
  ops.Attempt();
  if (client.Connect(path, 5000)) return true;
  ops.Fail(std::string("cannot connect to ") + path);
  return false;
}

// Appends the scrape of one server, each line prefixed with its role.
void Scrape(Client& client, const std::string& role, Ops& ops,
            std::vector<std::string>* out) {
  std::vector<std::string> lines;
  ops.Attempt();
  if (!client.Metrics(&lines)) {
    ops.Fail("metrics scrape failed on " + role);
    return;
  }
  for (const std::string& line : lines) out->push_back(role + " " + line);
}

namespace {

using l1hh::ItemEstimate;

// Extra spawn-to-ready cycles per run, so setup_s is a median of several
// set-ups even when only a few reps fit in a run.
constexpr int kSetupProbes = 4;
// Keys whose point estimates every final check verifies, besides the
// report itself: the top exact keys and keys the queries drew.
constexpr size_t kCheckedTopKeys = 32;
constexpr size_t kCheckedDrawnKeys = 32;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---- Load generation --------------------------------------------------

struct Answers {
  std::vector<std::vector<ItemEstimate>> reports;
  std::vector<std::pair<uint64_t, double>> estimates;
};

// Queries alternating `heavy` and `estimate <key>`.  Open loop (rate > 0):
// query i is due at t0 + i/rate whatever happened to the ones before it,
// and latency runs from the due time, so a stall also charges the queries
// it delays.  Closed loop (rate 0): each query is due when the previous
// reply arrived.
void QueryLoop(Client& client, int64_t t0, double rate, size_t count,
               const std::vector<uint64_t>& keys, Tracer& tracer,
               uint32_t parent, Ops& ops, RepSamples* rep, Answers* answers) {
  for (size_t i = 0; i < count; ++i) {
    const int64_t due =
        rate > 0 ? t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate)
                 : NowNs();
    if (rate > 0) SleepUntilNs(due);
    ops.Attempt();
    const int64_t start = NowNs();
    if (i % 2 == 0) {
      std::vector<ItemEstimate> report;
      const bool ok = client.Heavy(0, &report);
      const int64_t done = NowNs();
      tracer.Record(parent, "heavy", start, done);
      if (!ok) {
        ops.Fail("heavy failed or timed out");
        continue;
      }
      rep->heavy_ms.push_back(Ms(done - due));
      if (answers != nullptr) answers->reports.push_back(std::move(report));
    } else {
      const uint64_t key = keys[(i / 2) % keys.size()];
      double estimate = 0;
      const bool ok = client.Estimate(key, &estimate);
      const int64_t done = NowNs();
      tracer.Record(parent, "estimate", start, done);
      if (!ok) {
        ops.Fail("estimate failed or timed out");
        continue;
      }
      rep->estimate_ms.push_back(Ms(done - due));
      if (answers != nullptr) answers->estimates.emplace_back(key, estimate);
    }
  }
}

// Sends one pre-encoded batch; returns the completion time or -1.
int64_t SendBatch(Client& client, const std::string& wire, Tracer& tracer,
                  uint32_t parent, Ops& ops) {
  ops.Attempt();
  const int64_t start = NowNs();
  if (!client.Send(wire.data(), wire.size())) {
    ops.Fail("bin batch write failed");
    return -1;
  }
  const int64_t done = NowNs();
  tracer.Record(parent, "bin", start, done);
  return done;
}

// `flush` on one connection; returns the ack (or -1) and its arrival time.
int64_t FlushAck(Client& client, Tracer& tracer, uint32_t parent, Ops& ops,
                 int64_t* done) {
  ops.Attempt();
  const int64_t start = NowNs();
  uint64_t applied = 0;
  const bool ok = client.Flush(&applied);
  *done = NowNs();
  tracer.Record(parent, "flush", start, *done);
  if (!ok) {
    ops.Fail("flush failed or timed out");
    return -1;
  }
  return static_cast<int64_t>(applied);
}

// Keys the `estimate` queries ask about: positions drawn uniformly from
// the stream, so frequent keys are asked about more often.
std::vector<uint64_t> DrawKeys(std::span<const uint64_t> items, size_t count,
                               uint64_t seed) {
  l1hh::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < count; ++i) {
    keys.push_back(items[rng.UniformU64(items.size())]);
  }
  return keys;
}

std::vector<uint64_t> TopKeys(const ExactCounts& counts, size_t k) {
  std::vector<std::pair<uint64_t, uint64_t>> all(counts.begin(), counts.end());
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < k; ++i) keys.push_back(all[i].first);
  return keys;
}

// The final Definition-1 check of one server: a `heavy` report plus point
// estimates for `keys`.  Violations and failed requests both count.
Answers FinalCheck(Client& client, const Reference& reference,
                   const std::vector<uint64_t>& keys, const std::string& who,
                   Tracer& tracer, uint32_t parent, Ops& ops) {
  Answers answers;
  answers.reports.emplace_back();
  ops.Attempt();
  int64_t start = NowNs();
  if (!client.Heavy(0, &answers.reports.back())) {
    ops.Fail(who + ": final heavy failed");
  }
  tracer.Record(parent, "check.heavy", start, NowNs());
  for (const uint64_t key : keys) {
    double estimate = 0;
    ops.Attempt();
    start = NowNs();
    if (!client.Estimate(key, &estimate)) {
      ops.Fail(who + ": final estimate failed");
      continue;
    }
    tracer.Record(parent, "check.estimate", start, NowNs());
    answers.estimates.emplace_back(key, estimate);
  }
  const CheckResult result =
      CheckDefinition1(reference, &answers.reports.back(), answers.estimates);
  ops.Attempt(result.checks);
  if (result.violations != 0) {
    ops.Fail(who + ": " + (result.notes.empty() ? "" : result.notes[0]),
             result.violations);
  }
  return answers;
}

std::vector<uint64_t> CheckedKeys(const ExactCounts& counts,
                                  const std::vector<uint64_t>& drawn) {
  std::vector<uint64_t> keys = TopKeys(counts, kCheckedTopKeys);
  for (size_t i = 0; i < kCheckedDrawnKeys && i < drawn.size(); ++i) {
    keys.push_back(drawn[i]);
  }
  return keys;
}

// Runs setup probes, then reps until `seconds` have passed and at least
// `min_reps` ran.  In a traced run the odd reps record spans and the even
// ones do not, so the run measures its own tracing overhead.
template <typename RepFn>
void RepLoop(const RunConfig& config, size_t min_reps, Tracer& tracer,
             WorkloadResult* result, RepFn&& run_rep,
             const std::function<double()>& probe) {
  for (int i = 0; i < kSetupProbes; ++i) {
    const double setup = probe();
    if (setup >= 0) result->setup_s.push_back(setup);
  }
  if (config.trace) min_reps = std::max<size_t>(min_reps, 2);
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(config.seconds * 1e9);
  for (size_t rep = 0; rep < min_reps || NowNs() - start < budget; ++rep) {
    RepSamples samples;
    samples.traced = config.trace && rep % 2 == 1;
    tracer.SetEnabled(samples.traced);
    const uint32_t span = tracer.Open(0, "rep");
    const bool ok = run_rep(rep, span, &samples);
    tracer.Close(span);
    tracer.SetEnabled(false);
    if (samples.setup_s > 0) result->setup_s.push_back(samples.setup_s);
    result->reps.push_back(std::move(samples));
    if (!ok) break;  // a set-up failure repeats; stop early
  }
}

// ---- ingest_paper -----------------------------------------------------
//
// Why: a closed loop of binary batches into the paper's Algorithm 2
// (bdw_optimal), so its per-item update cost dominates.  A change to
// src/summary, src/hash, src/sampling or the bdw adapters in src/core
// shows here and nowhere else.  After the flush, a short closed-loop query
// phase against the now static state times served queries and checks
// every answer against exact counts.
//
// Each rep ingests its own window of one seeded pool stream.  The cost of
// a warm bdw_optimal report differs up to threefold between streams, so a
// run's median over many windows is the expected cost, not one draw.

constexpr uint64_t kPaperItems = uint64_t{1} << 20;
// Small batches give each rep >= 1000 lag samples, so its p99 has ten
// samples beyond it.
constexpr size_t kPaperBatch = 1024;
// Windows start at a whole batch, anywhere in the pool's first half.
constexpr size_t kPaperWindows = kPaperItems / kPaperBatch + 1;
constexpr double kPaperEpsilon = 0.005;
constexpr double kPaperPhi = 0.02;
// Closed-loop queries: back to back, they time the warm report path
// rather than how fast an idle server's threads wake up.
constexpr size_t kPaperQueries = 400;

void RunIngestPaper(const RunConfig& config, Tracer& tracer, Ops& ops,
                    WorkloadResult* result) {
  // Inputs come from the seed, before any server starts: the pool and its
  // batches here, each rep's window and exact counts before its server.
  std::vector<uint64_t> pool = l1hh::MakeZipfStream(
      uint64_t{1} << 20, 1.1, 2 * kPaperItems, config.seed);
  const std::vector<std::string> wire =
      EncodeBatches(pool.data(), pool.size(), kPaperBatch);
  const std::vector<std::string> flags = {
      "--algo=bdw_optimal", "--shards=2", "--producers=1",
      "--epsilon=" + std::to_string(kPaperEpsilon),
      "--phi=" + std::to_string(kPaperPhi),
      "--m=" + std::to_string(kPaperItems)};

  auto probe = [&] {
    Servers servers;
    return StartServers(config, flags, false, &servers, ops);
  };
  auto rep_fn = [&](size_t rep_index, uint32_t span, RepSamples* rep) {
    const size_t window =
        l1hh::Mix64(config.seed ^ (uint64_t{rep_index} << 32)) % kPaperWindows;
    const std::span<const uint64_t> items(pool.data() + window * kPaperBatch,
                                          kPaperItems);
    const std::span<const std::string> batches(
        wire.data() + window, kPaperItems / kPaperBatch);
    const std::vector<uint64_t> keys =
        DrawKeys(items, 256, config.seed + rep_index);
    const Reference reference = MakeReference(
        CountExact(items), PlainBounds(kPaperPhi, kPaperEpsilon, kPaperItems));
    const std::vector<uint64_t> checked = CheckedKeys(reference.counts, keys);

    Servers servers;
    rep->setup_s = StartServers(config, flags, false, &servers, ops);
    if (rep->setup_s < 0) return false;
    Client ingest, query;
    if (!ConnectOrFail(ingest, kPrimarySocket, ops) ||
        !ConnectOrFail(query, kPrimarySocket, ops)) {
      return false;
    }
    // Closed loop: each batch is due when the previous write completed,
    // so its lag is the time the server's backpressure held the write.
    const int64_t t0 = NowNs();
    int64_t due = t0;
    for (const std::string& batch : batches) {
      const int64_t done = SendBatch(ingest, batch, tracer, span, ops);
      if (done < 0) return true;
      rep->lag_ms.push_back(Ms(done - due));
      due = done;
    }
    int64_t t_end = 0;
    const int64_t ack = FlushAck(ingest, tracer, span, ops, &t_end);
    if (ack != static_cast<int64_t>(kPaperItems)) {
      ops.Fail("short flush ack " + std::to_string(ack) + " of " +
               std::to_string(kPaperItems));
      return true;
    }
    rep->ingest_items_per_s =
        static_cast<double>(kPaperItems) / (static_cast<double>(t_end - t0) / 1e9);

    // The final check's cold `heavy` pays the one merge rebuild; the timed
    // queries after it read the warm view.
    FinalCheck(query, reference, checked, "primary", tracer, span, ops);
    Answers answers;
    QueryLoop(query, 0, 0, kPaperQueries, keys, tracer, span, ops, rep,
              &answers);
    // The state no longer changes, so every served answer is checkable.
    for (const auto& report : answers.reports) {
      const CheckResult check = CheckDefinition1(reference, &report, {});
      ops.Attempt(check.checks);
      if (check.violations != 0) ops.Fail(check.notes[0], check.violations);
    }
    const CheckResult point =
        CheckDefinition1(reference, nullptr, answers.estimates);
    ops.Attempt(point.checks);
    if (point.violations != 0) ops.Fail(point.notes[0], point.violations);

    if (rep->traced) {
      result->scrape.clear();
      Scrape(query, "primary", ops, &result->scrape);
    }
    rep->peak_rss_mb = servers.PeakRssMb();
    return true;
  };
  RepLoop(config, 3, tracer, result, rep_fn, probe);

  LayerInputs& layer = result->layer_inputs;
  layer.items = std::move(pool);
  layer.served_algorithm = "bdw_optimal";
  layer.epsilon = kPaperEpsilon;
  layer.phi = kPaperPhi;
  layer.batch = kPaperBatch;
}

// ---- query_window -----------------------------------------------------
//
// Why: a sliding window (windowed:space_saving, B buckets) under an
// open-loop ingest rate with open-loop queries beside it.  New items
// arrive before every query, so each query pays flush, park and a K x B
// cold merge: the merge -> report path dominates.  The ingest schedule is
// fixed, so its lag shows when queries stall ingest by parking the
// workers.  1/B < phi keeps the window slack below the query threshold,
// and the query rate keeps the query path under half busy.

constexpr uint64_t kWindow = uint64_t{1} << 18;
constexpr uint64_t kBuckets = 16;
constexpr double kWindowEpsilon = 0.01;
constexpr double kWindowPhi = 0.1;
constexpr size_t kFillBatch = 16384;
constexpr size_t kTickItems = 1000;        // items per open-loop batch
constexpr int64_t kTickNs = 2500000;       // one batch every 2.5 ms
constexpr size_t kTicks = 1000;            // 2.5 s of ingest: 400k items/s
constexpr double kWindowQueryRate = 20;    // ~20 ms cold queries: < half busy
constexpr size_t kWindowQueries = 50;      // over the same 2.5 s
constexpr int kIngestSendBuffer = 4096;

void RunQueryWindow(const RunConfig& config, Tracer& tracer, Ops& ops,
                    WorkloadResult* result) {
  const uint64_t total = kWindow + kTicks * kTickItems;
  l1hh::DriftSpec spec;
  spec.planted_fractions = {0.3, 0.2, 0.12};
  spec.phases = 8;
  spec.stream_length = total;
  l1hh::DriftStream drift = l1hh::MakePlantedDriftStream(spec, config.seed);
  std::vector<uint64_t>& items = drift.items;
  const std::span<const uint64_t> all(items);
  const std::vector<std::string> fill =
      EncodeBatches(items.data(), kWindow, kFillBatch);
  const std::vector<std::string> ticks =
      EncodeBatches(items.data() + kWindow, total - kWindow, kTickItems);
  const std::vector<uint64_t> keys =
      DrawKeys(all.subspan(kWindow), 256, config.seed);
  // The answer after the last flush covers the trailing window.
  const Reference reference = MakeReference(
      CountExact(all.subspan(total - kWindow)),
      WindowBounds(kWindowPhi, kWindowEpsilon, kWindow, kBuckets));
  const std::vector<uint64_t> checked = CheckedKeys(reference.counts, keys);
  const std::vector<std::string> flags = {
      "--algo=windowed:space_saving", "--shards=2", "--producers=1",
      "--epsilon=" + std::to_string(kWindowEpsilon),
      "--phi=" + std::to_string(kWindowPhi),
      "--window=" + std::to_string(kWindow),
      "--buckets=" + std::to_string(kBuckets),
      "--m=" + std::to_string(kWindow)};

  auto probe = [&] {
    Servers servers;
    return StartServers(config, flags, false, &servers, ops);
  };
  auto rep_fn = [&](size_t, uint32_t span, RepSamples* rep) {
    Servers servers;
    rep->setup_s = StartServers(config, flags, false, &servers, ops);
    if (rep->setup_s < 0) return false;
    Client ingest, query;
    if (!ConnectOrFail(ingest, kPrimarySocket, ops) ||
        !ConnectOrFail(query, kPrimarySocket, ops)) {
      return false;
    }
    // A small send buffer makes the open-loop writes block within a
    // couple of batches when the server stops reading, so the lag shows
    // ingest stalls instead of the kernel buffering them.
    ingest.SetSendBuffer(kIngestSendBuffer);
    // Fill the window before timing.
    for (const std::string& batch : fill) {
      if (SendBatch(ingest, batch, tracer, span, ops) < 0) return true;
    }
    int64_t filled_at = 0;
    if (FlushAck(ingest, tracer, span, ops, &filled_at) !=
        static_cast<int64_t>(kWindow)) {
      ops.Fail("short flush ack after the window fill");
      return true;
    }

    const int64_t t0 = NowNs() + 2000000;
    std::thread queries([&] {
      QueryLoop(query, t0, kWindowQueryRate, kWindowQueries, keys, tracer,
                span, ops, rep, nullptr);
    });
    // Open loop: batch i is due at t0 + i * tick whatever the server does.
    for (size_t i = 0; i < ticks.size(); ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i) * kTickNs;
      SleepUntilNs(due);
      const int64_t done = SendBatch(ingest, ticks[i], tracer, span, ops);
      if (done < 0) break;
      rep->lag_ms.push_back(Ms(done - due));
    }
    int64_t t_end = 0;
    const int64_t ack = FlushAck(ingest, tracer, span, ops, &t_end);
    queries.join();
    if (ack != static_cast<int64_t>(total)) {
      ops.Fail("short flush ack " + std::to_string(ack) + " of " +
               std::to_string(total));
      return true;
    }
    rep->ingest_items_per_s = static_cast<double>(kTicks * kTickItems) /
                              (static_cast<double>(t_end - t0) / 1e9);
    FinalCheck(query, reference, checked, "primary", tracer, span, ops);
    if (rep->traced) {
      result->scrape.clear();
      Scrape(query, "primary", ops, &result->scrape);
    }
    rep->peak_rss_mb = servers.PeakRssMb();
    return true;
  };
  RepLoop(config, 4, tracer, result, rep_fn, probe);

  LayerInputs& layer = result->layer_inputs;
  layer.items = std::move(items);
  layer.served_algorithm = "windowed:space_saving";
  layer.epsilon = kWindowEpsilon;
  layer.phi = kWindowPhi;
  layer.batch = kTickItems;
}

// ---- fanin_replica ----------------------------------------------------
//
// Why: count_min updates cost ~20 ns/item, so wire decode, the partition
// pass, the K x P ring hand-off, CaptureFrames parks, frame encode/decode
// and the replica's view rebuild dominate; none of that runs in the other
// two workloads.  Two closed-loop ingest connections from one generator
// thread feed the primary, an l1hh_replica tails it every 20 ms, and a
// third connection queries the replica at a fixed open-loop rate.  After
// catch-up the primary is SIGKILLed: the replica must report
// primary=lost and keep serving the same answers (checked, not timed —
// the replica's --interval-ms sleep sets the detection time).

constexpr uint64_t kFaninItemsPerConn = uint64_t{1} << 21;
constexpr size_t kFaninBatch = 16384;
constexpr double kFaninEpsilon = 0.005;
constexpr double kFaninPhi = 0.02;
constexpr int64_t kFaninIngestNs = 2000000000;  // 2 s closed loop per rep
constexpr double kFaninQueryRate = 500;
constexpr size_t kFaninQueries = 1000;          // over the same 2 s

// Polls the replica's `stats` until `done(line)` holds.
template <typename Pred>
bool PollStats(Client& client, int timeout_ms, Pred&& done, Ops& ops,
               std::string* last) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (NowNs() < deadline) {
    ops.Attempt();
    if (!client.Request("stats", last)) {
      ops.Fail("replica stats failed");
      return false;
    }
    if (done(*last)) return true;
    ::usleep(5000);
  }
  return false;
}

void RunFaninReplica(const RunConfig& config, Tracer& tracer, Ops& ops,
                     WorkloadResult* result) {
  std::vector<uint64_t> streams[2] = {
      l1hh::MakeZipfStream(uint64_t{1} << 20, 1.1, kFaninItemsPerConn,
                           config.seed),
      l1hh::MakeZipfStream(uint64_t{1} << 20, 1.1, kFaninItemsPerConn,
                           config.seed + 0x5eed)};
  const std::vector<std::string> wire[2] = {
      EncodeBatches(streams[0].data(), streams[0].size(), kFaninBatch),
      EncodeBatches(streams[1].data(), streams[1].size(), kFaninBatch)};
  const ExactCounts full_counts[2] = {CountExact(streams[0]),
                                      CountExact(streams[1])};
  const std::vector<uint64_t> keys = DrawKeys(streams[0], 256, config.seed);
  const std::vector<std::string> flags = {
      "--algo=count_min", "--shards=2", "--threads=1", "--producers=2",
      "--epsilon=" + std::to_string(kFaninEpsilon),
      "--phi=" + std::to_string(kFaninPhi)};

  auto probe = [&] {
    Servers servers;
    return StartServers(config, flags, true, &servers, ops);
  };
  auto rep_fn = [&](size_t, uint32_t span, RepSamples* rep) {
    Servers servers;
    rep->setup_s = StartServers(config, flags, true, &servers, ops);
    if (rep->setup_s < 0) return false;
    Client ingest[2], query, primary_query;
    if (!ConnectOrFail(ingest[0], kPrimarySocket, ops) ||
        !ConnectOrFail(ingest[1], kPrimarySocket, ops) ||
        !ConnectOrFail(query, kReplicaSocket, ops) ||
        !ConnectOrFail(primary_query, kPrimarySocket, ops)) {
      return false;
    }
    const int64_t t0 = NowNs() + 2000000;
    std::thread queries([&] {
      QueryLoop(query, t0, kFaninQueryRate, kFaninQueries, keys, tracer, span,
                ops, rep, nullptr);
    });
    // One generator thread alternates the two closed-loop connections.
    SleepUntilNs(t0);
    size_t sent_batches[2] = {0, 0};
    uint64_t sent_items = 0;
    int64_t due = t0;
    bool io_ok = true;
    while (io_ok && NowNs() - t0 < kFaninIngestNs) {
      for (int c = 0; c < 2 && io_ok; ++c) {
        const std::string& batch = wire[c][sent_batches[c] % wire[c].size()];
        const int64_t done = SendBatch(ingest[c], batch, tracer, span, ops);
        io_ok = done >= 0;
        if (!io_ok) break;
        rep->lag_ms.push_back(Ms(done - due));
        due = done;
        ++sent_batches[c];
        sent_items += (batch.size() - batch.find('\n') - 1) / sizeof(uint64_t);
      }
    }
    // The stop marker: flush every ingest connection; the clock stops at
    // the ack that covers every item sent.
    int64_t t_end = -1;
    for (int c = 0; c < 2 && io_ok; ++c) {
      int64_t done = 0;
      const int64_t ack = FlushAck(ingest[c], tracer, span, ops, &done);
      if (ack == static_cast<int64_t>(sent_items) && t_end < 0) t_end = done;
    }
    queries.join();
    if (!io_ok) return true;
    if (t_end < 0) {
      ops.Fail("no flush ack equals the " + std::to_string(sent_items) +
               " items sent");
      return true;
    }
    rep->ingest_items_per_s = static_cast<double>(sent_items) /
                              (static_cast<double>(t_end - t0) / 1e9);

    ExactCounts counts;
    for (int c = 0; c < 2; ++c) {
      const size_t cycles = sent_batches[c] / wire[c].size();
      const size_t rest = sent_batches[c] % wire[c].size();
      AddCounts(full_counts[c], cycles, &counts);
      AddCounts(CountExact(std::span<const uint64_t>(streams[c])
                               .subspan(0, rest * kFaninBatch)),
                1, &counts);
    }
    const Reference reference = MakeReference(
        std::move(counts), PlainBounds(kFaninPhi, kFaninEpsilon, sent_items));
    const std::vector<uint64_t> checked = CheckedKeys(reference.counts, keys);

    // Catch-up: the replica has applied every item the primary holds.
    std::string stats;
    const std::string want = std::to_string(sent_items);
    if (!PollStats(query, 15000,
                   [&](const std::string& line) {
                     return Field(line, "items") == want &&
                            Field(line, "lag_items") == "0";
                   },
                   ops, &stats)) {
      ops.Fail("replica did not catch up: " + stats);
      return true;
    }
    FinalCheck(primary_query, reference, checked, "primary", tracer, span, ops);
    const Answers before =
        FinalCheck(query, reference, checked, "replica", tracer, span, ops);
    if (rep->traced) {
      result->scrape.clear();
      Scrape(primary_query, "primary", ops, &result->scrape);
      Scrape(query, "replica", ops, &result->scrape);
    }
    rep->peak_rss_mb = servers.PeakRssMb();

    // Failover: the replica must notice and keep serving the same answers.
    servers.primary.Kill();
    if (!PollStats(query, 10000,
                   [](const std::string& line) {
                     return Field(line, "primary") == "lost";
                   },
                   ops, &stats)) {
      ops.Fail("replica did not report primary=lost: " + stats);
      return true;
    }
    const Answers after =
        FinalCheck(query, reference, checked, "replica after failover",
                   tracer, span, ops);
    ops.Attempt();
    const bool same_report =
        after.reports.size() == before.reports.size() &&
        std::equal(after.reports[0].begin(), after.reports[0].end(),
                   before.reports[0].begin(), before.reports[0].end(),
                   [](const ItemEstimate& a, const ItemEstimate& b) {
                     return a.item == b.item && a.estimate == b.estimate;
                   });
    if (!same_report || after.estimates != before.estimates) {
      ops.Fail("replica answers changed after the primary died");
    }
    return true;
  };
  RepLoop(config, 3, tracer, result, rep_fn, probe);

  LayerInputs& layer = result->layer_inputs;
  layer.items = std::move(streams[0]);
  layer.served_algorithm = "count_min";
  layer.epsilon = kFaninEpsilon;
  layer.phi = kFaninPhi;
  layer.batch = kFaninBatch;
  layer.threads = 1;
}

}  // namespace

bool RunWorkload(const RunConfig& config, Tracer& tracer, Ops& ops,
                 WorkloadResult* result) {
  if (config.workload == "ingest_paper") {
    RunIngestPaper(config, tracer, ops, result);
  } else if (config.workload == "query_window") {
    RunQueryWindow(config, tracer, ops, result);
  } else if (config.workload == "fanin_replica") {
    RunFaninReplica(config, tracer, ops, result);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
