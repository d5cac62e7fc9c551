// ShardedEngine correctness: routing, quiescence, merged-view semantics,
// the merge-epoch cache, backpressure under a tiny ring, and the
// refuse-to-shard rule for non-mergeable structures.  These are the
// concurrency tests CI also runs under ASan+UBSan (ctest label: engine).
#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/shard_set.h"
#include "engine/spsc_ring.h"
#include "obs/metrics.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"
#include "util/random.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

ShardedEngineOptions EngineOptions(const std::string& algorithm,
                                   size_t shards, uint64_t stream_length) {
  ShardedEngineOptions o;
  o.algorithm = algorithm;
  o.num_shards = shards;
  o.summary.epsilon = 0.02;
  o.summary.phi = 0.05;
  o.summary.delta = 0.05;
  o.summary.universe_size = uint64_t{1} << 20;
  o.summary.stream_length = stream_length;
  o.summary.seed = 7;
  return o;
}

PlantedStream TestStream(uint64_t m = 60000,
                         StreamOrder order = StreamOrder::kShuffled) {
  PlantedSpec spec;
  spec.planted_fractions = {0.20, 0.12, 0.08};
  spec.universe_size = uint64_t{1} << 20;
  spec.stream_length = m;
  spec.order = order;
  return MakePlantedStream(spec, /*seed=*/11);
}

bool Reported(const std::vector<ItemEstimate>& report, uint64_t item) {
  return std::any_of(report.begin(), report.end(),
                     [item](const ItemEstimate& e) { return e.item == item; });
}

// --------------------------------------------------------------------------
// SpscRing basics (single-threaded edge cases; the engine tests below
// exercise the cross-thread path).

TEST(SpscRingTest, PushPopRoundTripWithWraparound) {
  SpscRing<uint64_t> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  uint64_t out[8];
  for (uint64_t round = 0; round < 10; ++round) {
    // Fill to capacity, then one more push must fail.
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(ring.TryPush(round * 100 + i));
    }
    EXPECT_FALSE(ring.TryPush(999));
    EXPECT_EQ(ring.ApproxSize(), 8u);
    // Drain in two batches, preserving order.
    EXPECT_EQ(ring.PopBatch(out, 5), 5u);
    for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], round * 100 + i);
    EXPECT_EQ(ring.PopBatch(out, 8), 3u);
    for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], round * 100 + 5 + i);
    EXPECT_EQ(ring.PopBatch(out, 8), 0u);
  }
}

TEST(SpscRingTest, PushSomeAcceptsPartialBatches) {
  SpscRing<uint64_t> ring(4);
  const uint64_t data[6] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.PushSome(data, 6), 4u);  // only capacity fits
  uint64_t out[6];
  EXPECT_EQ(ring.PopBatch(out, 2), 2u);
  EXPECT_EQ(ring.PushSome(data + 4, 2), 2u);  // room again after the pop
  EXPECT_EQ(ring.PopBatch(out, 6), 4u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[3], 6u);
}

// --------------------------------------------------------------------------
// Engine construction rules.

TEST(ShardedEngineTest, RefusesToShardNonMergeableStructures) {
  for (const char* name : {"lossy_counting", "sticky_sampling"}) {
    Status status;
    auto engine =
        ShardedEngine::Create(EngineOptions(name, 4, 60000), &status);
    EXPECT_EQ(engine, nullptr) << name;
    EXPECT_FALSE(status.ok()) << name;
    // K == 1 is the degenerate single-summary engine and always allowed.
    auto single =
        ShardedEngine::Create(EngineOptions(name, 1, 60000), &status);
    ASSERT_NE(single, nullptr) << name;
    EXPECT_TRUE(status.ok()) << name;
  }
}

TEST(ShardedEngineTest, RejectsUnknownAlgorithmAndZeroShards) {
  Status status;
  EXPECT_EQ(ShardedEngine::Create(EngineOptions("no_such_algo", 2, 1000),
                                  &status),
            nullptr);
  EXPECT_FALSE(status.ok());
  auto opts = EngineOptions("misra_gries", 1, 1000);
  opts.num_shards = 0;
  EXPECT_EQ(ShardedEngine::Create(opts, &status), nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(ShardedEngineTest, ZeroDrainBatchIsClampedNotHung) {
  auto opts = EngineOptions("exact", 2, 100);
  opts.drain_batch = 0;  // would spin forever if taken literally
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  engine->Update(1);
  engine->Update(1);
  engine->Flush();
  EXPECT_EQ(engine->Estimate(1), 2.0);
}

TEST(ShardedEngineTest, ThreadCountIsClampedToShardCount) {
  auto opts = EngineOptions("misra_gries", 3, 1000);
  opts.num_threads = 16;
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->num_shards(), 3u);
  EXPECT_EQ(engine->num_threads(), 3u);
}

// --------------------------------------------------------------------------
// Routing and quiescence.

TEST(ShardedEngineTest, RoutingIsStableAndCountsAddUp) {
  const auto planted = TestStream();
  auto engine = ShardedEngine::Create(
      EngineOptions("exact", 4, planted.items.size()));
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(planted.items);
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), planted.items.size());

  const auto counts = engine->ShardItemCounts();
  ASSERT_EQ(counts.size(), 4u);
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  EXPECT_EQ(total, planted.items.size());
  // Every occurrence of an item must land on the same shard.
  for (const uint64_t id : planted.planted_ids) {
    EXPECT_EQ(engine->ShardOf(id), engine->ShardOf(id));
    EXPECT_LT(engine->ShardOf(id), 4u);
  }
}

TEST(ShardedEngineTest, ExactShardingMatchesGroundTruth) {
  const auto planted = TestStream();
  auto engine = ShardedEngine::Create(
      EngineOptions("exact", 4, planted.items.size()));
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(planted.items);

  ExactCounter truth;
  for (const uint64_t x : planted.items) truth.Insert(x);

  // Point queries: exact sharded counting is exact counting.
  for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[i]),
              static_cast<double>(planted.planted_counts[i]));
  }
  // The merged report equals the ground-truth report element-wise.
  const double m = static_cast<double>(planted.items.size());
  const auto report = engine->HeavyHitters(0.05);
  const auto expected =
      truth.HeavyHitters(static_cast<uint64_t>(0.05 * m) + 1);
  ASSERT_EQ(report.size(), expected.size());
  for (size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(report[i].item, expected[i].item);
    EXPECT_EQ(report[i].estimate, static_cast<double>(expected[i].count));
  }
}

TEST(ShardedEngineTest, MisraGriesShardingKeepsTheContract) {
  for (const StreamOrder order :
       {StreamOrder::kShuffled, StreamOrder::kHeaviesLast,
        StreamOrder::kBursty}) {
    const auto planted = TestStream(60000, order);
    auto engine = ShardedEngine::Create(
        EngineOptions("misra_gries", 4, planted.items.size()));
    ASSERT_NE(engine, nullptr);
    engine->UpdateBatch(planted.items);

    const double m = static_cast<double>(planted.items.size());
    const auto report = engine->HeavyHitters(0.05);
    for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
      EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
          << "order " << static_cast<int>(order) << " missed planted item "
          << planted.planted_ids[i];
      // MG undercounts by <= eps*m on the merged stream.
      EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                  static_cast<double>(planted.planted_counts[i]),
                  0.02 * m + 1.0);
    }
  }
}

// The flagship configuration ISSUE 3 unlocks: the paper's space-optimal
// Algorithm 2 across 4 shards.  Every shard walks the shared epoch
// schedule over its own substream; the merged view must keep the
// (eps, phi) contract across stream orders, including heavies-last
// (shards park at different epochs, so reconciliation really fires).
TEST(ShardedEngineTest, BdwOptimalShardingKeepsTheContract) {
  for (const StreamOrder order :
       {StreamOrder::kShuffled, StreamOrder::kHeaviesLast,
        StreamOrder::kBursty}) {
    const auto planted = TestStream(60000, order);
    auto engine = ShardedEngine::Create(
        EngineOptions("bdw_optimal", 4, planted.items.size()));
    ASSERT_NE(engine, nullptr)
        << "engine refused bdw_optimal at K > 1 (order "
        << static_cast<int>(order) << ")";
    engine->UpdateBatch(planted.items);

    const double m = static_cast<double>(planted.items.size());
    const auto report = engine->HeavyHitters(0.05);
    for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
      EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
          << "order " << static_cast<int>(order) << " missed planted item "
          << planted.planted_ids[i];
      // Sharded accelerated counters sit lower on the epoch schedule than
      // a single instance, so allow 1.5x the single-instance tolerance.
      EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                  static_cast<double>(planted.planted_counts[i]),
                  1.5 * 0.02 * m);
    }
  }
}

TEST(ShardedEngineTest, BackpressureOnTinyRingsLosesNothing) {
  const auto planted = TestStream(120000);
  auto opts = EngineOptions("exact", 4, planted.items.size());
  opts.queue_capacity = 64;  // force constant ring-full stalls
  opts.drain_batch = 16;
  opts.num_threads = 2;  // two shards per worker
  auto engine = ShardedEngine::Create(opts);
  ASSERT_NE(engine, nullptr);
  // Mix per-item and batched ingestion across many small chunks.
  const auto& items = planted.items;
  size_t i = 0;
  while (i < items.size()) {
    const size_t chunk = std::min<size_t>(1009, items.size() - i);
    if (i % 3 == 0) {
      for (size_t j = 0; j < chunk; ++j) engine->Update(items[i + j]);
    } else {
      engine->UpdateBatch({items.data() + i, chunk});
    }
    i += chunk;
  }
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  for (size_t p = 0; p < planted.planted_ids.size(); ++p) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[p]),
              static_cast<double>(planted.planted_counts[p]));
  }
}

TEST(ShardedEngineTest, WeightedUpdateMatchesRepeated) {
  auto engine = ShardedEngine::Create(EngineOptions("exact", 2, 100));
  ASSERT_NE(engine, nullptr);
  engine->Update(5, 7);
  engine->Update(9);
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), 8u);
  EXPECT_EQ(engine->Estimate(5), 7.0);
  EXPECT_EQ(engine->Estimate(9), 1.0);
}

// --------------------------------------------------------------------------
// Merged view and its epoch cache.

TEST(ShardedEngineTest, MergedViewReflectsNewItemsAfterCacheHit) {
  auto engine = ShardedEngine::Create(EngineOptions("exact", 4, 1000));
  ASSERT_NE(engine, nullptr);
  std::vector<uint64_t> first(300, 42);
  engine->UpdateBatch(first);
  EXPECT_EQ(engine->HeavyHitters(0.05).size(), 1u);
  // Cache hit: same epoch, same view object answers again.
  const Summary& view1 = engine->MergedView();
  const Summary& view2 = engine->MergedView();
  EXPECT_EQ(&view1, &view2);
  EXPECT_EQ(view1.ItemsProcessed(), 300u);
  // New items must invalidate the cache.
  std::vector<uint64_t> second(700, 43);
  engine->UpdateBatch(second);
  const Summary& view3 = engine->MergedView();
  EXPECT_EQ(view3.ItemsProcessed(), 1000u);
  const auto report = engine->HeavyHitters(0.05);
  EXPECT_TRUE(Reported(report, 42));
  EXPECT_TRUE(Reported(report, 43));
}

// A query on an unchanged K > 1 engine reads the cached merge with the
// workers live: only the first query after new items parks and rebuilds.
// A K == 1 engine's view is its live shard, so every query parks.
TEST(ShardedEngineTest, CacheHitQueriesDoNotPark) {
  obs::SetEnabled(true);
  const obs::Histogram* parks = obs::GetHistogram("l1hh_engine_park_wait_ns");
  const obs::Counter* rebuilds =
      obs::GetCounter("l1hh_engine_merge_rebuilds_total");
  auto engine = ShardedEngine::Create(EngineOptions("exact", 2, 1000));
  ASSERT_NE(engine, nullptr);
  engine->UpdateBatch(std::vector<uint64_t>(300, 42));
  uint64_t parks0 = parks->Count();
  const uint64_t rebuilds0 = rebuilds->Value();
  EXPECT_DOUBLE_EQ(engine->Estimate(42), 300.0);
  EXPECT_EQ(parks->Count(), parks0 + 1);
  EXPECT_EQ(rebuilds->Value(), rebuilds0 + 1);
  for (int i = 0; i < 50; ++i) {
    switch (i % 3) {
      case 0:
        EXPECT_DOUBLE_EQ(engine->Estimate(42), 300.0);
        break;
      case 1:
        EXPECT_TRUE(Reported(engine->HeavyHitters(0.05), 42));
        break;
      default:
        EXPECT_EQ(engine->EstimateBatch({42, 43}),
                  (std::vector<double>{300.0, 0.0}));
    }
  }
  EXPECT_EQ(parks->Count(), parks0 + 1);
  EXPECT_EQ(rebuilds->Value(), rebuilds0 + 1);
  // New items move the key: the next query parks once and sees them.
  engine->UpdateBatch(std::vector<uint64_t>(200, 43));
  EXPECT_DOUBLE_EQ(engine->Estimate(43), 200.0);
  EXPECT_DOUBLE_EQ(engine->Estimate(42), 300.0);
  EXPECT_EQ(parks->Count(), parks0 + 2);
  EXPECT_EQ(rebuilds->Value(), rebuilds0 + 2);

  auto single = ShardedEngine::Create(EngineOptions("exact", 1, 1000));
  ASSERT_NE(single, nullptr);
  single->UpdateBatch(std::vector<uint64_t>(300, 42));
  parks0 = parks->Count();
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(single->Estimate(42), 300.0);
  EXPECT_EQ(parks->Count(), parks0 + 5);
  EXPECT_EQ(rebuilds->Value(), rebuilds0 + 2);  // a lone shard never merges
}

// One producer streams batches while another thread queries. A query
// covers every batch finished before it began and nothing not yet
// begun, so answers never decrease; once the producer stops, they are
// exact.
TEST(ShardedEngineTest, QueriesDuringIngestNeverGoBackOrAhead) {
  auto engine = ShardedEngine::Create(EngineOptions("exact", 2, 1 << 20));
  ASSERT_NE(engine, nullptr);
  constexpr uint64_t kHot = 42;
  constexpr int kBatches = 300;
  constexpr size_t kBatch = 500;
  std::vector<std::vector<uint64_t>> batches(kBatches);
  ExactCounter exact;
  Rng rng(29);
  for (auto& batch : batches) {
    batch.resize(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = i % 5 == 0 ? kHot : 100 + rng.UniformU64(1000);
      exact.Insert(batch[i]);
    }
  }
  const double hot_per_batch = static_cast<double>(kBatch / 5);
  std::atomic<int> begun{0};
  std::atomic<int> finished{0};
  std::thread producer([&] {
    for (const auto& batch : batches) {
      begun.fetch_add(1, std::memory_order_seq_cst);
      engine->UpdateBatch(batch);
      finished.fetch_add(1, std::memory_order_seq_cst);
    }
  });
  double last_estimate = 0.0;
  double last_heavy = 0.0;
  int queries = 0;
  while (finished.load() < kBatches || queries < 10) {
    const double floor = finished.load() * hot_per_batch;
    double got = 0.0;
    if (queries % 2 == 0) {
      got = engine->Estimate(kHot);
      EXPECT_GE(got, last_estimate);
      last_estimate = got;
    } else {
      for (const ItemEstimate& e : engine->HeavyHitters(0.1)) {
        if (e.item == kHot) got = e.estimate;
      }
      EXPECT_GE(got, last_heavy);
      last_heavy = got;
    }
    EXPECT_GE(got, floor);
    EXPECT_LE(got, begun.load() * hot_per_batch);
    ++queries;
  }
  producer.join();
  for (uint64_t x = 100; x < 1100; ++x) {
    EXPECT_DOUBLE_EQ(engine->Estimate(x), static_cast<double>(exact.Count(x)))
        << x;
  }
  const auto report = engine->HeavyHitters(0.1);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].item, kHot);
  EXPECT_DOUBLE_EQ(report[0].estimate,
                   static_cast<double>(exact.Count(kHot)));
}

TEST(ShardedEngineTest, SingleShardServesAnyAlgorithmWithoutMerge) {
  const auto planted = TestStream();
  for (const char* name : {"lossy_counting", "bdw_optimal"}) {
    auto engine = ShardedEngine::Create(
        EngineOptions(name, 1, planted.items.size()));
    ASSERT_NE(engine, nullptr) << name;
    engine->UpdateBatch(planted.items);
    const auto report = engine->HeavyHitters(0.05);
    for (const uint64_t id : planted.planted_ids) {
      EXPECT_TRUE(Reported(report, id)) << name << " missed " << id;
    }
  }
}

TEST(ShardedEngineTest, MemoryUsageCountsShardsAndRings) {
  auto engine = ShardedEngine::Create(EngineOptions("misra_gries", 4, 1000));
  ASSERT_NE(engine, nullptr);
  auto single = MakeSummary("misra_gries", EngineOptions("misra_gries", 4,
                                                         1000)
                                               .summary);
  ASSERT_NE(single, nullptr);
  // Four shard summaries + four rings must dominate one bare summary.
  EXPECT_GT(engine->MemoryUsageBytes(), single->MemoryUsageBytes());
}

// --------------------------------------------------------------------------
// K x P ring grid: multi-producer variants of the suites above, so the
// grid inherits the same contracts the single-producer controller met.

TEST(ShardedEngineTest, MemoryUsageCountsTheFullProducerGrid) {
  auto narrow_opts = EngineOptions("misra_gries", 4, 1000);
  auto wide_opts = narrow_opts;
  wide_opts.max_producers = 5;
  auto narrow = ShardedEngine::Create(narrow_opts);
  auto wide = ShardedEngine::Create(wide_opts);
  ASSERT_NE(narrow, nullptr);
  ASSERT_NE(wide, nullptr);
  // Five producer slots mean 5 rings per shard instead of 1; the
  // accounting must charge for the whole K x P grid, not just column 0.
  EXPECT_GT(wide->MemoryUsageBytes(), narrow->MemoryUsageBytes());
  EXPECT_EQ(wide->max_producers(), 5u);
  EXPECT_EQ(narrow->max_producers(), 1u);
}

// The flagship configuration under concurrent ingest: the paper's
// space-optimal Algorithm 2 across 4 shards fed by 4 racing producers.
// Shard routing is by item hash, so each shard receives the same item
// MULTISET as in the single-producer run — only the within-shard order
// changes — and the (eps, phi) contract is order-insensitive.
TEST(ShardedEngineTest, BdwOptimalGridKeepsTheContractUnderFourProducers) {
  const auto planted = TestStream();
  auto opts = EngineOptions("bdw_optimal", 4, planted.items.size());
  opts.max_producers = 5;  // 4 external + slot 0
  opts.num_threads = 2;
  Status status;
  auto engine = ShardedEngine::Create(opts, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const auto& items = planted.items;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 4; ++p) {
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    const size_t begin = p * items.size() / 4;
    const size_t end = (p + 1) * items.size() / 4;
    threads.emplace_back(
        [&items, begin, end, producer = std::move(producer)]() mutable {
          size_t i = begin;
          while (i < end) {
            const size_t chunk = std::min<size_t>(1009, end - i);
            producer->UpdateBatch({items.data() + i, chunk});
            i += chunk;
          }
          producer.reset();
        });
  }
  for (auto& thread : threads) thread.join();
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  EXPECT_EQ(engine->active_producers(), 0u);

  const double m = static_cast<double>(items.size());
  const auto report = engine->HeavyHitters(0.05);
  for (size_t i = 0; i < planted.planted_ids.size(); ++i) {
    EXPECT_TRUE(Reported(report, planted.planted_ids[i]))
        << "grid run missed planted item " << planted.planted_ids[i];
    EXPECT_NEAR(engine->Estimate(planted.planted_ids[i]),
                static_cast<double>(planted.planted_counts[i]),
                1.5 * 0.02 * m);
  }
}

// Backpressure on the grid: tiny rings, three producers racing the
// controller slot, exact structure — nothing may be dropped and the
// final counts must be exact despite constant ring-full stalls on every
// column of the grid.
TEST(ShardedEngineTest, TinyRingGridBackpressureLosesNothing) {
  const auto planted = TestStream(90000);
  auto opts = EngineOptions("exact", 4, planted.items.size());
  opts.queue_capacity = 64;
  opts.drain_batch = 16;
  opts.num_threads = 2;
  opts.max_producers = 4;  // 3 external + slot 0
  Status status;
  auto engine = ShardedEngine::Create(opts, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const auto& items = planted.items;
  const size_t third = items.size() / 3;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 3; ++p) {
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    const size_t begin = p * third;
    const size_t end = p == 2 ? items.size() : (p + 1) * third;
    threads.emplace_back(
        [&items, begin, end, producer = std::move(producer)]() mutable {
          // Mix per-item and batched pushes, like the single-producer
          // backpressure test above.
          size_t i = begin;
          while (i < end) {
            const size_t chunk = std::min<size_t>(509, end - i);
            if (i % 2 == 0) {
              for (size_t j = 0; j < chunk; ++j) {
                producer->Update(items[i + j]);
              }
            } else {
              producer->UpdateBatch({items.data() + i, chunk});
            }
            i += chunk;
          }
          producer.reset();
        });
  }
  for (auto& thread : threads) thread.join();
  engine->Flush();
  EXPECT_EQ(engine->ItemsProcessed(), items.size());
  for (size_t p = 0; p < planted.planted_ids.size(); ++p) {
    EXPECT_EQ(engine->Estimate(planted.planted_ids[p]),
              static_cast<double>(planted.planted_counts[p]));
  }
}

// --------------------------------------------------------------------------
// CheckShardSet: the shard-set checks Restore and a replica round share.
// One case per refusal, plus the sets that must pass.

std::vector<std::unique_ptr<Summary>> ShardSet(const std::string& algorithm,
                                               size_t k) {
  std::vector<std::unique_ptr<Summary>> shards;
  for (size_t s = 0; s < k; ++s) {
    shards.push_back(
        MakeSummary(algorithm, EngineOptions(algorithm, k, 1000).summary));
  }
  return shards;
}

// K windowed:exact shards (W = 100, B = 4: bucket width 25), each fed
// items[s] items and rotated rotations[s] times by hand, the way the
// engine drives them.
std::vector<std::unique_ptr<Summary>> WindowSet(
    const std::vector<uint64_t>& items,
    const std::vector<uint64_t>& rotations) {
  SummaryOptions options = EngineOptions("exact", 2, 1000).summary;
  options.window_size = 100;
  options.window_buckets = 4;
  std::vector<std::unique_ptr<Summary>> shards;
  for (size_t s = 0; s < items.size(); ++s) {
    auto summary = MakeSummary("windowed:exact", options);
    auto* window = static_cast<SlidingWindowSummary*>(summary.get());
    window->set_external_rotation(true);
    for (uint64_t r = 0; r < rotations[s]; ++r) window->Rotate();
    for (uint64_t i = 0; i < items[s]; ++i) window->Update(s + 1);
    shards.push_back(std::move(summary));
  }
  return shards;
}

TEST(CheckShardSetTest, AcceptsShardsOfOneStream) {
  uint64_t rotations = 99;
  EXPECT_TRUE(CheckShardSet(ShardSet("exact", 3), "exact", &rotations).ok());
  EXPECT_EQ(rotations, 0u);
  // A lone shard needs no Merge.
  EXPECT_TRUE(CheckShardSet(ShardSet("lossy_counting", 1), "lossy_counting",
                            &rotations)
                  .ok());
  // 60 items at bucket width 25 admit exactly 2 lockstep rotations.
  const Status lockstep =
      CheckShardSet(WindowSet({30, 30}, {2, 2}), "windowed:exact", &rotations);
  EXPECT_TRUE(lockstep.ok()) << lockstep.ToString();
  EXPECT_EQ(rotations, 2u);
  // Exactly at a boundary (50 items) a capture may also hold the
  // claimant's rotation ahead of its boundary item.
  EXPECT_TRUE(
      CheckShardSet(WindowSet({25, 25}, {1, 1}), "windowed:exact", &rotations)
          .ok());
  EXPECT_TRUE(
      CheckShardSet(WindowSet({25, 25}, {2, 2}), "windowed:exact", &rotations)
          .ok());
  EXPECT_EQ(rotations, 2u);
}

TEST(CheckShardSetTest, RefusesEmptyOrMissingShards) {
  uint64_t rotations = 0;
  EXPECT_FALSE(CheckShardSet({}, "exact", &rotations).ok());
  auto shards = ShardSet("exact", 2);
  shards[1].reset();
  EXPECT_FALSE(CheckShardSet(shards, "exact", &rotations).ok());
}

TEST(CheckShardSetTest, RefusesAnotherAlgorithm) {
  uint64_t rotations = 0;
  auto shards = ShardSet("exact", 2);
  shards[1] = MakeSummary("misra_gries", shards[0]->Options());
  const Status status = CheckShardSet(shards, "exact", &rotations);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("misra_gries"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(CheckShardSet(ShardSet("exact", 2), "count_min", &rotations)
                   .ok());
}

TEST(CheckShardSetTest, RefusesMultiShardNonMergeableSet) {
  uint64_t rotations = 0;
  const Status status = CheckShardSet(ShardSet("lossy_counting", 2),
                                      "lossy_counting", &rotations);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition)
      << status.ToString();
}

TEST(CheckShardSetTest, RefusesForeignSeedOrOptions) {
  uint64_t rotations = 0;
  auto shards = ShardSet("count_min", 2);
  SummaryOptions foreign = shards[0]->Options();
  foreign.seed += 1;
  shards[1] = MakeSummary("count_min", foreign);
  EXPECT_FALSE(CheckShardSet(shards, "count_min", &rotations).ok());
  foreign = shards[0]->Options();
  foreign.epsilon *= 2;
  shards[1] = MakeSummary("count_min", foreign);
  EXPECT_FALSE(CheckShardSet(shards, "count_min", &rotations).ok());
}

TEST(CheckShardSetTest, RefusesUnequalWindowRotations) {
  uint64_t rotations = 0;
  const Status status =
      CheckShardSet(WindowSet({30, 30}, {2, 1}), "windowed:exact", &rotations);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("lockstep"), std::string::npos)
      << status.ToString();
}

TEST(CheckShardSetTest, RefusesImplausibleRotationCount) {
  uint64_t rotations = 0;
  // 60 items at bucket width 25 imply 2 rotations, not 3 or 1.
  EXPECT_FALSE(
      CheckShardSet(WindowSet({30, 30}, {3, 3}), "windowed:exact", &rotations)
          .ok());
  EXPECT_FALSE(
      CheckShardSet(WindowSet({30, 30}, {1, 1}), "windowed:exact", &rotations)
          .ok());
  // At the 50-item boundary 1 or 2 pass (above); 3 does not.
  EXPECT_FALSE(
      CheckShardSet(WindowSet({25, 25}, {3, 3}), "windowed:exact", &rotations)
          .ok());
}

// ---- The frame applier under hostile frames ----------------------------

// A committed K=2 windowed:exact set (bucket width 250) applied from an
// engine's full frames at 600 items, and the delta frames that engine
// captured against them 100 items later.
struct FrameFixture {
  std::vector<std::unique_ptr<Summary>> committed;
  std::vector<ShardFrame> full;
  std::vector<ShardFrame> deltas;
  uint64_t full_total = 0;
  uint64_t delta_total = 0;
};

Status ApplyRound(std::vector<std::unique_ptr<Summary>>* committed,
                  const std::vector<ShardFrame>& frames, uint64_t total) {
  StagedShardSet staged(committed);
  for (const ShardFrame& frame : frames) {
    const Status applied = staged.Apply(frame);
    if (!applied.ok()) return applied;
  }
  return staged.Commit("windowed:exact", total);
}

FrameFixture MakeFrameFixture() {
  ShardedEngineOptions options = EngineOptions("windowed:exact", 2, 1000);
  options.summary.window_size = 1000;
  options.summary.window_buckets = 4;
  auto engine = ShardedEngine::Create(options);
  EXPECT_NE(engine, nullptr);
  FrameFixture f;
  if (engine == nullptr) return f;
  std::vector<uint64_t> items(700);
  for (size_t i = 0; i < items.size(); ++i) items[i] = i % 37;
  engine->UpdateBatch({items.data(), 600});
  EXPECT_TRUE(engine->CaptureFrames({}, ShardedEngine::kMaxDeltaChain,
                                    &f.full, &f.full_total)
                  .ok());
  std::vector<ShardBaseline> baselines(2);
  for (const ShardFrame& frame : f.full) baselines[frame.shard].Advance(frame);
  engine->UpdateBatch({items.data() + 600, 100});
  EXPECT_TRUE(engine->CaptureFrames(baselines, ShardedEngine::kMaxDeltaChain,
                                    &f.deltas, &f.delta_total)
                  .ok());
  f.committed.resize(2);
  EXPECT_TRUE(ApplyRound(&f.committed, f.full, f.full_total).ok());
  return f;
}

TEST(StagedShardSetTest, CommitsFullThenDeltaRounds) {
  FrameFixture f = MakeFrameFixture();
  ASSERT_EQ(f.full.size(), 2u);
  ASSERT_EQ(f.deltas.size(), 2u);
  for (const ShardFrame& frame : f.deltas) EXPECT_TRUE(frame.delta);
  const Summary* before = f.committed[1].get();
  // Only shard 0 is framed; shard 1 carries over (its items are in the
  // total), and the round commits.
  const std::vector<ShardFrame> one = {f.deltas[0]};
  const Status status = ApplyRound(
      &f.committed, one,
      f.deltas[0].applied + f.committed[1]->ItemsProcessed());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(f.committed[1].get(), before);
  EXPECT_EQ(f.committed[0]->ItemsProcessed(), f.deltas[0].applied);
}

// Seeded hostile frames: every case is a non-OK Status, and the committed
// set is pointer-identical (and unchanged) afterwards.
TEST(StagedShardSetTest, HostileFramesLeaveTheCommittedSetUntouched) {
  FrameFixture f = MakeFrameFixture();
  ASSERT_EQ(f.deltas.size(), 2u);
  const std::vector<const Summary*> before = {f.committed[0].get(),
                                              f.committed[1].get()};
  const auto expect_refused = [&](const std::vector<ShardFrame>& frames,
                                  uint64_t total, const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(ApplyRound(&f.committed, frames, total).ok());
    ASSERT_EQ(f.committed.size(), 2u);
    EXPECT_EQ(f.committed[0].get(), before[0]);
    EXPECT_EQ(f.committed[1].get(), before[1]);
    EXPECT_EQ(before[0]->ItemsProcessed() + before[1]->ItemsProcessed(),
              f.full_total);
  };
  Rng rng(20161603);
  for (int trial = 0; trial < 24; ++trial) {
    for (const bool delta : {false, true}) {
      const std::vector<ShardFrame>& round = delta ? f.deltas : f.full;
      const uint64_t total = delta ? f.delta_total : f.full_total;
      const size_t victim = rng.UniformU64(round.size());
      const size_t size = round[victim].bytes.size();
      std::vector<ShardFrame> frames = round;
      frames[victim].bytes.resize(rng.UniformU64(size));
      expect_refused(frames, total, "truncated");
      frames = round;
      frames[victim].bytes[rng.UniformU64(size)] ^=
          static_cast<uint8_t>(1u << rng.UniformU64(8));
      expect_refused(frames, total, "bit flip");
    }
  }
  std::vector<std::unique_ptr<Summary>> cold(2);
  EXPECT_FALSE(ApplyRound(&cold, f.deltas, f.delta_total).ok());
  EXPECT_EQ(cold[0], nullptr);
  EXPECT_EQ(cold[1], nullptr);

  std::vector<ShardFrame> frames = f.deltas;
  frames.push_back(f.deltas[0]);  // its base is now behind shard 0
  expect_refused(frames, f.delta_total, "delta against the wrong base");
  frames = f.full;
  frames[1].shard = 2;
  expect_refused(frames, f.full_total, "shard index >= K");
  for (const int64_t skew : {-1, 1}) {
    frames = f.deltas;
    frames[0].applied += skew;
    expect_refused(frames, f.delta_total, "applied clock off by one");
    frames = f.deltas;
    frames[1].rotations += skew;
    expect_refused(frames, f.delta_total, "rotation clock off by one");
    expect_refused(f.deltas, f.delta_total + skew, "total off by one");
  }
}

// A capture against baselines holding every shard's live clocks ships no
// frame and leaves the workers live. Once a shard moves (items, or a
// rotation), the capture parks and its frames bring a consumer to the
// engine's state.
TEST(ShardedEngineTest, CleanCaptureDoesNotPark) {
  obs::SetEnabled(true);
  const obs::Histogram* parks = obs::GetHistogram("l1hh_engine_park_wait_ns");
  ShardedEngineOptions options = EngineOptions("windowed:exact", 2, 1000);
  options.summary.window_size = 1000;
  options.summary.window_buckets = 4;  // bucket width 250
  auto engine = ShardedEngine::Create(options);
  ASSERT_NE(engine, nullptr);
  std::vector<uint64_t> items(600);
  for (size_t i = 0; i < items.size(); ++i) items[i] = i % 37;
  engine->UpdateBatch(items);

  std::vector<std::unique_ptr<Summary>> replica(2);
  std::vector<ShardBaseline> baselines(2);
  std::vector<ShardFrame> frames;
  uint64_t total = 0;
  // Captures against the consumer's baselines, applies the frames to it
  // and checks it answers like the engine.
  const auto ship = [&] {
    ASSERT_TRUE(engine->CaptureFrames(baselines, ShardedEngine::kMaxDeltaChain,
                                      &frames, &total)
                    .ok());
    ASSERT_TRUE(ApplyRound(&replica, frames, total).ok());
    for (const ShardFrame& frame : frames) {
      baselines[frame.shard].Advance(frame);
    }
    for (uint64_t x = 0; x < 40; ++x) {
      EXPECT_DOUBLE_EQ(replica[engine->ShardOf(x)]->Estimate(x),
                       engine->Estimate(x))
          << x;
    }
  };
  ship();
  ASSERT_EQ(frames.size(), 2u);

  uint64_t parks0 = parks->Count();
  for (int i = 0; i < 20; ++i) {
    frames.resize(1);
    total = 0;
    ASSERT_TRUE(engine->CaptureFrames(baselines, ShardedEngine::kMaxDeltaChain,
                                      &frames, &total)
                    .ok());
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(total, 600u);
  }
  EXPECT_EQ(parks->Count(), parks0);

  // 100 items of one id stay inside the live bucket: one dirty shard.
  const uint64_t item = 5;
  engine->UpdateBatch(std::vector<uint64_t>(100, item));
  parks0 = parks->Count();
  ship();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].shard, engine->ShardOf(item));
  EXPECT_TRUE(frames[0].delta);
  EXPECT_EQ(total, 700u);
  EXPECT_GE(parks->Count(), parks0 + 1);  // the capture, then the queries

  // Crossing the boundary at 750 rotates both shards: both are dirty.
  engine->UpdateBatch({items.data(), 60});
  parks0 = parks->Count();
  ship();
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(total, 760u);
  EXPECT_GE(parks->Count(), parks0 + 1);
}

}  // namespace
}  // namespace l1hh
