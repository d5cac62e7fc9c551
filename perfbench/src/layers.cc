#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <thread>

#include "engine/sharded_engine.h"
#include "engine/spsc_ring.h"
#include "hash/multiply_shift.h"
#include "hash/tabulation_hash.h"
#include "hash/universal_hash.h"
#include "io/snapshot.h"
#include "net.h"
#include "sampling/coin_flip_sampler.h"
#include "sampling/geometric_skip.h"
#include "summary/summary.h"
#include "util/random.h"
#include "window/sliding_window_summary.h"

namespace perfbench {
namespace {

using l1hh::ShardedEngine;
using l1hh::Summary;
using l1hh::SummaryOptions;

// Items replayed per layer; large enough that one pass takes well over a
// millisecond even for the 20 ns/item structures.
constexpr size_t kLayerItems = size_t{1} << 19;
// Items each engine gets before a cold-rebuild measurement.
constexpr size_t kRebuildItems = size_t{1} << 18;
constexpr size_t kEstimateKeys = 4096;
// The sliding-window geometry of query_window, replayed on every stream.
constexpr uint64_t kLayerWindow = uint64_t{1} << 18;
// Passes of the stream through an engine, in process and over the socket;
// the first warms up and the median of the rest is the figure.
constexpr int kIngestPasses = 7;
constexpr uint64_t kLayerBuckets = 16;

const char* const kAlgorithms[] = {"bdw_optimal", "space_saving", "count_min",
                                   "misra_gries", "hashed_misra_gries"};

volatile uint64_t g_sink = 0;

class Layers {
 public:
  Layers(const RunConfig& config, const LayerInputs& inputs, Tracer& tracer,
         Ops& ops, MetricList* out)
      : config_(config),
        inputs_(inputs),
        items_(inputs.items.data(),
               std::min(inputs.items.size(), kLayerItems)),
        tracer_(tracer),
        ops_(ops),
        out_(out) {}

  void Run(std::vector<std::string>* scrape) {
    Hash();
    Sampling();
    for (const char* algorithm : kAlgorithms) SummaryAndIo(algorithm);
    Engine();
    Window();
    ServeAndReplica(scrape);
  }

 private:
  void Emit(const std::string& name, double value) {
    out_->emplace_back(name, value);
  }

  // Median over `reps` timed calls of `fn`, in ns; each call is a span.
  template <typename Fn>
  double MedianNs(const std::string& name, int reps, Fn&& fn) {
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
      const int64_t start = NowNs();
      fn();
      const int64_t end = NowNs();
      times.push_back(static_cast<double>(end - start));
      tracer_.Record(0, name.c_str(), start, end);
    }
    return Median(times);
  }

  double PerItem(double ns, size_t n) { return ns / static_cast<double>(n); }

  SummaryOptions Options(uint64_t stream_length) const {
    SummaryOptions options;
    options.epsilon = inputs_.epsilon;
    options.phi = inputs_.phi;
    options.stream_length = stream_length;
    options.seed = 1;
    return options;
  }

  SummaryOptions WindowOptions() const {
    SummaryOptions options = Options(kLayerWindow);
    options.window_size = kLayerWindow;
    options.window_buckets = kLayerBuckets;
    return options;
  }

  std::unique_ptr<Summary> Make(const std::string& algorithm,
                                const SummaryOptions& options) {
    l1hh::Status status;
    auto summary = l1hh::MakeSummary(algorithm, options, &status);
    if (summary == nullptr) ops_.Fail("cannot create " + algorithm);
    return summary;
  }

  void Check(const l1hh::Status& status, const std::string& what) {
    ops_.Attempt();
    if (!status.ok()) ops_.Fail(what + ": " + status.ToString());
  }

  void UpdateColumns(Summary& summary, std::span<const uint64_t> items) {
    for (size_t at = 0; at < items.size(); at += inputs_.batch) {
      summary.UpdateColumn(items.data() + at,
                           std::min(inputs_.batch, items.size() - at));
    }
  }

  // ---- hash and sampling: per-call cost over the stream's ids ----------

  void Hash() {
    l1hh::Rng rng(1);
    const auto multiply_shift = l1hh::MultiplyShiftHash::Draw(rng, 20);
    const auto tabulation = l1hh::TabulationHash::Draw(rng);
    const auto universal = l1hh::UniversalHash::Draw(rng, uint64_t{1} << 20);
    auto per_item = [&](const char* name, auto&& hash) {
      Emit(name, PerItem(MedianNs(name, 5,
                                  [&] {
                                    uint64_t acc = 0;
                                    for (const uint64_t x : items_) {
                                      acc += hash(x);
                                    }
                                    g_sink = acc;
                                  }),
                         items_.size()));
    };
    per_item("hash.multiply_shift_ns", multiply_shift);
    per_item("hash.tabulation_ns", tabulation);
    per_item("hash.universal_ns", universal);
  }

  void Sampling() {
    l1hh::Rng rng(2);
    auto geometric = l1hh::GeometricSkipSampler::FromExponent(6, rng);
    const auto coin = l1hh::CoinFlipSampler::FromExponent(6);
    const size_t n = items_.size();
    Emit("sampling.geometric_skip_ns",
         PerItem(MedianNs("sampling.geometric_skip_ns", 5,
                          [&] {
                            uint64_t acc = 0;
                            for (size_t i = 0; i < n; ++i) {
                              acc += geometric.Offer(rng) ? 1 : 0;
                            }
                            g_sink = acc;
                          }),
                 n));
    Emit("sampling.coin_flip_ns",
         PerItem(MedianNs("sampling.coin_flip_ns", 5,
                          [&] {
                            uint64_t acc = 0;
                            for (size_t i = 0; i < n; ++i) {
                              acc += coin.Sample(rng) ? 1 : 0;
                            }
                            g_sink = acc;
                          }),
                 n));
  }

  // ---- summary and io: one algorithm over the stream's two halves ------

  void SummaryAndIo(const std::string& algorithm) {
    const size_t n = items_.size();
    const SummaryOptions options = Options(n);
    // UpdateColumn over two halves, which the merge then combines.
    std::unique_ptr<Summary> halves[2];
    double column_ns = 0;
    for (int h = 0; h < 2; ++h) {
      halves[h] = Make(algorithm, options);
      if (halves[h] == nullptr) return;
      column_ns += MedianNs("summary.update." + algorithm, 1, [&] {
        UpdateColumns(*halves[h], items_.subspan(h * (n / 2), n / 2));
      });
    }
    Emit("summary.update_ns." + algorithm, PerItem(column_ns, n / 2 * 2));
    auto scalar = Make(algorithm, options);
    if (scalar == nullptr) return;
    Emit("summary.update_scalar_ns." + algorithm,
         PerItem(MedianNs("summary.update_scalar." + algorithm, 1,
                          [&] {
                            for (const uint64_t x : items_) scalar->Update(x);
                          }),
                 n));
    scalar.reset();

    // A fresh instance absorbing both halves: the engine's rebuild shape.
    std::unique_ptr<Summary> merged;
    Emit("summary.merge_us." + algorithm,
         MedianNs("summary.merge." + algorithm, 3,
                  [&] {
                    merged = Make(algorithm, options);
                    Check(merged->Merge(*halves[0]), "merge " + algorithm);
                    Check(merged->Merge(*halves[1]), "merge " + algorithm);
                  }) /
             1e3);
    Emit("summary.report_us." + algorithm,
         MedianNs("summary.report." + algorithm, 5,
                  [&] { g_sink = merged->HeavyHitters(inputs_.phi).size(); }) /
             1e3);
    const size_t stride = std::max<size_t>(1, n / kEstimateKeys);
    Emit("summary.estimate_ns." + algorithm,
         PerItem(MedianNs("summary.estimate." + algorithm, 3,
                          [&] {
                            double acc = 0;
                            for (size_t i = 0; i < kEstimateKeys; ++i) {
                              acc += merged->Estimate(items_[(i * stride) % n]);
                            }
                            g_sink = static_cast<uint64_t>(acc);
                          }),
                 kEstimateKeys));
    Emit("summary.bytes." + algorithm,
         static_cast<double>(merged->MemoryUsageBytes()));

    std::vector<uint8_t> bytes;
    Emit("io.encode_us." + algorithm,
         MedianNs("io.encode." + algorithm, 3,
                  [&] {
                    bytes.clear();
                    Check(l1hh::SaveSummary(*merged, &bytes),
                          "save " + algorithm);
                  }) /
             1e3);
    Emit("io.decode_us." + algorithm,
         MedianNs("io.decode." + algorithm, 3,
                  [&] {
                    ops_.Attempt();
                    if (l1hh::LoadSummary(bytes) == nullptr) {
                      ops_.Fail("load " + algorithm);
                    }
                  }) /
             1e3);
    Emit("io.bytes." + algorithm, static_cast<double>(bytes.size()));
  }

  // ---- engine: ingest, ring hand-off, flush, rebuild, capture ----------

  std::unique_ptr<ShardedEngine> MakeEngine(const std::string& algorithm,
                                            const SummaryOptions& summary,
                                            size_t producers) {
    l1hh::ShardedEngineOptions options;
    options.algorithm = algorithm;
    options.summary = summary;
    options.num_shards = 2;
    options.num_threads = inputs_.threads;
    options.max_producers = producers + 1;
    l1hh::Status status;
    auto engine = ShardedEngine::Create(options, &status);
    ops_.Attempt();
    if (engine == nullptr) {
      ops_.Fail("cannot create engine " + algorithm + ": " + status.ToString());
    }
    return engine;
  }

  void Feed(ShardedEngine& engine, std::span<const uint64_t> items) {
    for (size_t at = 0; at < items.size(); at += inputs_.batch) {
      engine.UpdateBatch(
          items.subspan(at, std::min(inputs_.batch, items.size() - at)));
    }
  }

  // P producer threads each feed their share of the stream, then a flush.
  // The first pass warms the rings and shard state and is not counted.
  double EngineIngestNs(const std::string& algorithm, size_t producers) {
    const size_t n = items_.size();
    auto engine = MakeEngine(algorithm, Options(n * kIngestPasses), producers);
    if (engine == nullptr) return 0;
    std::vector<std::unique_ptr<ShardedEngine::Producer>> handles;
    for (size_t p = 0; p < producers; ++p) {
      handles.push_back(engine->RegisterProducer());
    }
    const std::string name = "engine.ingest." + algorithm + ".p" +
                             std::to_string(producers);
    std::vector<double> passes;
    for (int pass = 0; pass < kIngestPasses; ++pass) {
      passes.push_back(MedianNs(name, 1, [&] {
      std::vector<std::thread> threads;
      for (size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          const auto share = items_.subspan(p * n / producers, n / producers);
          for (size_t at = 0; at < share.size(); at += inputs_.batch) {
            handles[p]->UpdateBatch(share.subspan(
                at, std::min(inputs_.batch, share.size() - at)));
          }
        });
      }
      for (auto& thread : threads) thread.join();
      engine->Flush();
      }));
    }
    handles.clear();
    passes.erase(passes.begin());
    return PerItem(Median(passes), n / producers * producers);
  }

  void Engine() {
    for (const char* algorithm : {"count_min", "bdw_optimal"}) {
      for (size_t producers : {size_t{1}, size_t{2}}) {
        Emit("engine.ingest_ns." + std::string(algorithm) + ".p" +
                 std::to_string(producers),
             EngineIngestNs(algorithm, producers));
      }
    }

    // One producer thread, one consumer: the ring hand-off alone.
    {
      const size_t n = items_.size();
      l1hh::SpscRing<uint64_t> ring(size_t{1} << 16);
      Emit("engine.ring_ns",
           PerItem(MedianNs("engine.ring", 3,
                            [&] {
                              std::thread producer([&] {
                                size_t at = 0;
                                while (at < n) {
                                  at += ring.PushSome(
                                      items_.data() + at,
                                      std::min<size_t>(1024, n - at));
                                }
                              });
                              std::vector<uint64_t> buffer(1024);
                              size_t got = 0;
                              uint64_t acc = 0;
                              while (got < n) {
                                const size_t k =
                                    ring.PopBatch(buffer.data(), buffer.size());
                                for (size_t i = 0; i < k; ++i) acc += buffer[i];
                                got += k;
                              }
                              producer.join();
                              g_sink = acc;
                            }),
                   n));
    }

    // The served algorithm's engine: flush, warm query, frame capture.
    {
      const bool windowed = l1hh::IsWindowedSummaryName(inputs_.served_algorithm);
      const SummaryOptions options =
          windowed ? WindowOptions() : Options(items_.size());
      auto engine = MakeEngine(inputs_.served_algorithm, options, 0);
      if (engine == nullptr) return;
      Feed(*engine, items_);
      size_t at = 0;
      std::vector<double> flushes;
      for (int i = 0; i < 21; ++i) {
        Feed(*engine, items_.subspan(at, 1024));
        at = (at + 1024) % (items_.size() - 1024);
        flushes.push_back(MedianNs("engine.flush", 1, [&] { engine->Flush(); }));
      }
      Emit("engine.flush_us", Median(flushes) / 1e3);
      g_sink = engine->HeavyHitters(inputs_.phi).size();
      Emit("engine.query_warm_us",
           MedianNs("engine.query_warm", 21,
                    [&] {
                      g_sink = engine->HeavyHitters(inputs_.phi).size();
                    }) /
               1e3);
      std::vector<l1hh::ShardFrame> frames;
      uint64_t total = 0;
      Emit("engine.capture_frames_us",
           MedianNs("engine.capture_frames", 5,
                    [&] {
                      frames.clear();
                      Check(engine->CaptureFrames({},
                                                  ShardedEngine::kMaxDeltaChain,
                                                  &frames, &total),
                            "capture frames");
                    }) /
               1e3);
      double bytes = 0;
      for (const auto& frame : frames) bytes += static_cast<double>(frame.bytes.size());
      Emit("engine.capture_frames_bytes", bytes);
    }

    // Cold HeavyHitters: one new item invalidates the merged view.
    const auto rebuild_items =
        items_.subspan(0, std::min(items_.size(), kRebuildItems));
    for (const char* algorithm : kAlgorithms) {
      auto engine = MakeEngine(algorithm, Options(rebuild_items.size() + 64), 0);
      if (engine == nullptr) continue;
      Feed(*engine, rebuild_items);
      engine->Flush();
      std::vector<double> times;
      for (int i = 0; i < 5; ++i) {
        engine->Update(rebuild_items[static_cast<size_t>(i)]);
        times.push_back(MedianNs(std::string("engine.rebuild.") + algorithm, 1,
                                 [&] {
                                   g_sink = engine->HeavyHitters(inputs_.phi)
                                                .size();
                                 }));
      }
      Emit(std::string("engine.rebuild_us.") + algorithm, Median(times) / 1e3);
    }
  }

  // ---- window: update, rotation, cold query, delta snapshots -----------

  void Window() {
    auto summary = Make("windowed:space_saving", WindowOptions());
    if (summary == nullptr) return;
    auto* window = dynamic_cast<l1hh::SlidingWindowSummary*>(summary.get());
    const std::span<const uint64_t> all(inputs_.items);
    Emit("window.update_ns",
         PerItem(MedianNs("window.update", 1, [&] { UpdateColumns(*window, all); }),
                 all.size()));
    // A delta carries the buckets sealed since a base snapshot.
    std::vector<uint8_t> base_bytes;
    Check(l1hh::SaveSummary(*window, &base_bytes), "save window base");
    const uint64_t base_rotations = window->rotations();
    const uint64_t base_items = window->ItemsProcessed();
    UpdateColumns(*window, all.subspan(0, window->bucket_width() + 1000));
    std::vector<uint8_t> delta;
    Emit("io.encode_us.windowed_delta",
         MedianNs("io.encode.windowed_delta", 3,
                  [&] {
                    delta.clear();
                    Check(l1hh::SaveSummaryDelta(*window, base_rotations,
                                                 base_items, &delta),
                          "save window delta");
                  }) /
             1e3);
    std::vector<std::unique_ptr<Summary>> bases;
    for (int i = 0; i < 3; ++i) bases.push_back(l1hh::LoadSummary(base_bytes));
    size_t next = 0;
    Emit("io.decode_us.windowed_delta",
         MedianNs("io.decode.windowed_delta", 3,
                  [&] {
                    Summary* base = bases[next++].get();
                    ops_.Attempt();
                    if (base == nullptr) {
                      ops_.Fail("load window base");
                      return;
                    }
                    Check(l1hh::ApplySummaryDelta(delta, base),
                          "apply window delta");
                  }) /
             1e3);
    Emit("io.bytes.windowed_delta", static_cast<double>(delta.size()));

    Emit("window.rotate_us",
         MedianNs("window.rotate", 9, [&] { window->Rotate(); }) / 1e3);
    // Refill the buckets the rotations emptied, then time cold queries.
    UpdateColumns(*window, all.subspan(0, std::min(all.size(), kLayerWindow)));
    std::vector<double> cold;
    for (int i = 0; i < 5; ++i) {
      window->Update(all[static_cast<size_t>(i)]);
      cold.push_back(MedianNs("window.query_cold", 1, [&] {
        g_sink = window->HeavyHitters(inputs_.phi).size();
      }));
    }
    Emit("window.query_cold_us", Median(cold) / 1e3);
  }

  // ---- serve and replica: an idle count_min pair -----------------------

  // Reads one replication round (frames until "rsync"); false on error.
  bool DrainRound(Client& follower) {
    std::string line;
    std::vector<char> frame;
    while (follower.ReadLine(&line)) {
      if (line.rfind("rsync ", 0) == 0) return true;
      unsigned long long shard = 0, nbytes = 0;
      char kind[8] = {0};
      if (std::sscanf(line.c_str(), "frame %7s %llu %llu", kind, &shard,
                      &nbytes) == 3) {
        frame.resize(nbytes);
        if (!follower.ReadExact(frame.data(), frame.size())) return false;
      } else if (line.rfind("rconf ", 0) != 0) {
        return false;
      }
    }
    return false;
  }

  double MedianRttUs(Client& client, const char* name) {
    std::vector<double> times;
    for (int i = 0; i < 200; ++i) {
      std::string reply;
      ops_.Attempt();
      const int64_t start = NowNs();
      if (!client.Request("stats", &reply)) {
        ops_.Fail(std::string(name) + " stats failed");
        continue;
      }
      const int64_t end = NowNs();
      tracer_.Record(0, name, start, end);
      times.push_back(static_cast<double>(end - start) / 1e3);
    }
    return Median(times);
  }

  // An idle count_min primary and replica, set up like fanin_replica's
  // but with the workload's worker count, which the engine figures share.
  void ServeAndReplica(std::vector<std::string>* scrape) {
    Servers servers;
    const std::vector<std::string> flags = {
        "--algo=count_min", "--shards=2",
        "--threads=" + std::to_string(inputs_.threads), "--producers=2",
        "--epsilon=" + std::to_string(inputs_.epsilon),
        "--phi=" + std::to_string(inputs_.phi)};
    if (StartServers(config_, flags, true, &servers, ops_) < 0) return;
    Client query, replica_query, ingest, follower;
    if (!ConnectOrFail(query, kPrimarySocket, ops_) ||
        !ConnectOrFail(replica_query, kReplicaSocket, ops_) ||
        !ConnectOrFail(ingest, kPrimarySocket, ops_) ||
        !ConnectOrFail(follower, kPrimarySocket, ops_)) {
      return;
    }
    Emit("serve.rtt_us", MedianRttUs(query, "serve.stats"));
    Emit("replica.rtt_us", MedianRttUs(replica_query, "replica.stats"));

    // Socket ingest of the stream minus ingest into an in-process engine
    // set up like the server, through one producer as the server's
    // connection thread has.  The two alternate pass by pass so both see
    // the same machine; the first pair only warms up.
    const std::vector<std::string> wire =
        EncodeBatches(items_.data(), items_.size(), inputs_.batch);
    auto engine = MakeEngine("count_min",
                             Options(items_.size() * kIngestPasses), 1);
    if (engine == nullptr) return;
    auto producer = engine->RegisterProducer();
    uint64_t applied = 0;
    uint64_t expected = 0;
    std::vector<double> gaps;
    for (int pass = 0; pass < kIngestPasses; ++pass) {
      const double local = MedianNs("serve.ingest_local", 1, [&] {
        for (size_t at = 0; at < items_.size(); at += inputs_.batch) {
          producer->UpdateBatch(items_.subspan(
              at, std::min(inputs_.batch, items_.size() - at)));
        }
        engine->Flush();
      });
      const double socket = MedianNs("serve.ingest", 1, [&] {
        for (const std::string& batch : wire) {
          ops_.Attempt();
          if (!ingest.Send(batch.data(), batch.size())) ops_.Fail("layer bin");
        }
        expected += items_.size();
        ops_.Attempt();
        if (!ingest.Flush(&applied) || applied != expected) {
          ops_.Fail("layer flush ack " + std::to_string(applied));
        }
      });
      if (pass > 0) gaps.push_back(PerItem(socket - local, items_.size()));
    }
    producer.reset();
    Emit("serve.wire_ns", Median(gaps));

    // The benchmark as a follower: a full replicate, then incremental
    // syncs after one more batch each.
    ops_.Attempt();
    if (!follower.SendLine("replicate") || !DrainRound(follower)) {
      ops_.Fail("layer replicate failed");
      return;
    }
    std::vector<double> sync_ms, sync_bytes;
    for (int i = 0; i < 21; ++i) {
      ops_.Attempt(2);
      if (!ingest.Send(wire[0].data(), wire[0].size()) ||
          !ingest.Flush(&applied)) {
        ops_.Fail("layer ingest before sync");
        break;
      }
      const uint64_t bytes_before = follower.bytes_read();
      const int64_t start = NowNs();
      if (!follower.SendLine("sync") || !DrainRound(follower)) {
        ops_.Fail("layer sync failed");
        break;
      }
      const int64_t end = NowNs();
      tracer_.Record(0, "serve.sync", start, end);
      sync_ms.push_back(static_cast<double>(end - start) / 1e6);
      sync_bytes.push_back(
          static_cast<double>(follower.bytes_read() - bytes_before));
    }
    Emit("serve.sync_ms", Median(sync_ms));
    Emit("serve.sync_bytes", Median(sync_bytes));

    // A few replica queries after fresh syncs, so the view rebuild shows
    // in the replica's scrape.
    for (int i = 0; i < 5; ++i) {
      std::vector<l1hh::ItemEstimate> report;
      ops_.Attempt(2);
      if (!ingest.Send(wire[0].data(), wire[0].size()) ||
          !ingest.Flush(&applied)) {
        ops_.Fail("layer ingest before replica query");
      }
      ::usleep(30000);
      if (!replica_query.Heavy(0, &report)) ops_.Fail("layer replica heavy");
    }
    Scrape(query, "layer_primary", ops_, scrape);
    Scrape(replica_query, "layer_replica", ops_, scrape);
  }

  const RunConfig& config_;
  const LayerInputs& inputs_;
  const std::span<const uint64_t> items_;
  Tracer& tracer_;
  Ops& ops_;
  MetricList* out_;
};

// One parsed exposition line: "<role> <name>{<labels>} <value>".
struct ScrapeLine {
  std::string role;
  std::string name;
  std::string labels;
  double value = 0;
};

std::vector<ScrapeLine> Parse(const std::vector<std::string>& scrape) {
  std::vector<ScrapeLine> out;
  for (const std::string& text : scrape) {
    std::istringstream in(text);
    ScrapeLine line;
    std::string metric, value;
    if (!(in >> line.role >> metric >> value)) continue;
    const size_t brace = metric.find('{');
    line.name = metric.substr(0, brace);
    if (brace != std::string::npos) line.labels = metric.substr(brace);
    line.value = std::strtod(value.c_str(), nullptr);
    out.push_back(std::move(line));
  }
  return out;
}

// Mean of histogram `base` (its _sum over its _count) on the first role
// that observed it, restricted to lines whose labels contain `label`.
double HistogramMean(const std::vector<ScrapeLine>& lines,
                     const std::vector<std::string>& roles,
                     const std::string& base, const std::string& label = "") {
  for (const std::string& role : roles) {
    double sum = 0, count = 0;
    for (const ScrapeLine& line : lines) {
      if (line.role != role || line.labels.find(label) == std::string::npos) {
        continue;
      }
      if (line.name == base + "_sum") sum += line.value;
      if (line.name == base + "_count") count += line.value;
    }
    if (count > 0) return sum / count;
  }
  return 0;
}

}  // namespace

void MeasureLayers(const RunConfig& config, const LayerInputs& inputs,
                   Tracer& tracer, Ops& ops, MetricList* out,
                   std::vector<std::string>* scrape) {
  Layers(config, inputs, tracer, ops, out).Run(scrape);
}

void ScrapeMetrics(const std::vector<std::string>& scrape, MetricList* out) {
  const std::vector<ScrapeLine> lines = Parse(scrape);
  const std::vector<std::string> primary = {"primary", "layer_primary"};
  const std::vector<std::string> replica = {"replica", "layer_replica"};
  for (const char* phase : {"park_wait", "merge_rebuild", "report",
                            "reply_write"}) {
    out->emplace_back(std::string("server.query_phase_ns.") + phase,
                      HistogramMean(lines, primary, "l1hh_query_phase_ns",
                                    std::string("phase=\"") + phase + "\""));
  }
  out->emplace_back("server.engine_merge_rebuild_ns",
                    HistogramMean(lines, primary, "l1hh_engine_merge_rebuild_ns"));
  out->emplace_back("server.engine_park_wait_ns",
                    HistogramMean(lines, primary, "l1hh_engine_park_wait_ns"));
  out->emplace_back("server.engine_flush_wait_ns",
                    HistogramMean(lines, primary, "l1hh_engine_flush_wait_ns"));
  double high_water = 0;
  for (const ScrapeLine& line : lines) {
    if (line.role == "primary" &&
        line.name == "l1hh_engine_ring_occupancy_high_water") {
      high_water = std::max(high_water, line.value);
    }
  }
  out->emplace_back("server.ring_occupancy_high_water", high_water);
  out->emplace_back("server.replica_view_rebuild_ns",
                    HistogramMean(lines, replica, "l1hh_replica_view_rebuild_ns"));
}

}  // namespace perfbench
