// Windowed guarantee-conformance battery (ctest label `window`): every
// mergeable registered structure, wrapped in the sliding-window container
// (src/window/), is run over planted-DRIFT streams — the heavy set
// switches at scheduled switchpoints — and held to the windowed contract
// from docs/WINDOWS.md, with the window of W items as the reference:
//
//   * eviction   — a heavy item that stops occurring must leave the
//                  report within one window of its last occurrence;
//   * recall     — every item with >= (phi + 1/B) fraction of the last W
//                  items is reported (the one-partial-bucket slack);
//   * soundness  — nothing reported has last-W frequency below
//                  (phi - eps')*W, eps' = eps + 1/B;
//   * estimates  — reported items are estimated within ~(eps' * W).
//
// Randomized structures get the same binomial failure budget as the
// whole-stream conformance suite; deterministic ones must never fail.
// The battery also pins the cross-layer claims: a K-sharded windowed
// engine obeys the same contract (global-clock rotation), and a snapshot
// taken MID-BUCKET restores to a run indistinguishable from an
// uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/summary.h"
#include "summary_test_util.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

constexpr double kEpsilon = 0.02;
constexpr double kPhi = 0.06;
constexpr double kDelta = 0.05;
constexpr uint64_t kUniverse = uint64_t{1} << 18;
constexpr uint64_t kWindow = 8192;
constexpr uint64_t kBuckets = 32;  // 1/B = 0.03125 window slack
constexpr size_t kPhases = 3;
constexpr uint64_t kPhaseLength = 12288;  // > W + q: full turnover per phase
constexpr int kRuns = 6;
// Same calibration as guarantee_conformance_test: sampling-based
// estimators carry constant-factor noise at any fixed seed.
constexpr double kEstimateSlack = 1.5;

double EpsPrime() { return kEpsilon + 1.0 / static_cast<double>(kBuckets); }

int AllowedFailures(int runs, double delta) {
  const double mean = runs * delta;
  const double sigma = std::sqrt(runs * delta * (1.0 - mean / runs));
  return static_cast<int>(std::ceil(mean + 3.0 * sigma));
}

bool IsDeterministic(const std::string& inner) {
  return inner == "misra_gries" || inner == "space_saving" ||
         inner == "exact";
}

SummaryOptions WindowedOptions(uint64_t seed) {
  SummaryOptions options;
  options.epsilon = kEpsilon;
  options.phi = kPhi;
  options.delta = kDelta;
  options.universe_size = kUniverse;
  options.stream_length = kPhases * kPhaseLength;
  options.seed = seed;
  options.window_size = kWindow;
  options.window_buckets = kBuckets;
  return options;
}

DriftStream MakeDrift(uint64_t seed) {
  DriftSpec spec;
  // Final-phase heavies sit well above phi + 1/B (recall must hold even
  // against the fixed last-W reference); both clear the threshold.
  spec.planted_fractions = {0.16, 0.12};
  spec.phases = kPhases;
  spec.universe_size = kUniverse;
  spec.stream_length = kPhases * kPhaseLength;
  return MakePlantedDriftStream(spec, seed);
}

/// Exact counts over the last `window` items of `stream` (the fixed-W
/// reference truth the windowed contract is stated against).
ExactCounter LastWindowTruth(const std::vector<uint64_t>& stream,
                             uint64_t window) {
  ExactCounter truth;
  const size_t start =
      stream.size() > window ? stream.size() - window : 0;
  for (size_t i = start; i < stream.size(); ++i) truth.Insert(stream[i]);
  return truth;
}

struct Verdict {
  bool ok = true;
  std::string detail;
};

void Check(Verdict& v, bool condition, const std::string& detail) {
  if (!condition && v.ok) {
    v.ok = false;
    v.detail = detail;
  }
}

/// Applies the windowed contract to `report` given the drift stream's
/// `prefix` (everything ingested so far) and the expired heavy ids.
Verdict CheckWindowedContract(const std::vector<ItemEstimate>& report,
                              const std::vector<uint64_t>& prefix,
                              const std::vector<uint64_t>& fresh_heavies,
                              const std::vector<uint64_t>& expired_heavies) {
  Verdict v;
  ExactCounter truth = LastWindowTruth(prefix, kWindow);
  const double w = static_cast<double>(kWindow);

  // Recall: the fresh planted heavies are above (phi + 1/B) of the last
  // W items by construction.
  for (const uint64_t heavy : fresh_heavies) {
    const bool reported =
        std::any_of(report.begin(), report.end(),
                    [heavy](const ItemEstimate& e) {
                      return e.item == heavy;
                    });
    Check(v, reported,
          "fresh heavy " + std::to_string(heavy) + " (last-W count " +
              std::to_string(truth.Count(heavy)) + ") missing from report");
  }
  // Eviction: expired heavies have last-W frequency zero — far below the
  // (phi - eps')*W soundness floor — and must be gone.
  for (const uint64_t expired : expired_heavies) {
    const bool reported =
        std::any_of(report.begin(), report.end(),
                    [expired](const ItemEstimate& e) {
                      return e.item == expired;
                    });
    Check(v, !reported,
          "expired heavy " + std::to_string(expired) +
              " still reported one window after its last occurrence");
  }
  // Soundness + estimates for everything reported.
  const double soundness_floor = (kPhi - EpsPrime()) * w - 1.0;
  const double estimate_budget =
      (kEstimateSlack * kEpsilon + 1.0 / static_cast<double>(kBuckets)) * w +
      1.0;
  for (const auto& e : report) {
    const double f = static_cast<double>(truth.Count(e.item));
    Check(v, f >= soundness_floor,
          "reported item " + std::to_string(e.item) + " has last-W count " +
              std::to_string(truth.Count(e.item)) + " < soundness floor");
    Check(v, std::abs(e.estimate - f) <= estimate_budget,
          "estimate " + std::to_string(e.estimate) + " for item " +
              std::to_string(e.item) + " off true last-W count " +
              std::to_string(truth.Count(e.item)) + " by more than " +
              std::to_string(estimate_budget));
  }
  return v;
}

class WindowedDriftConformanceTest
    : public ::testing::TestWithParam<std::string> {};

// One full drift run with a mid-stream checkpoint: after the last
// switchpoint plus one window (+ one bucket for the partial-bucket
// slack), the previous phases' heavies must already be evicted and the
// final phase's heavies recalled; the same must hold at end of stream.
TEST_P(WindowedDriftConformanceTest, EvictsExpiredAndRecallsFreshHeavies) {
  const std::string inner = GetParam();
  const std::string name = "windowed:" + inner;
  int failures = 0;
  std::string first_failure;
  for (int run = 0; run < kRuns; ++run) {
    const uint64_t seed = 1000 + 17 * run;
    const DriftStream drift = MakeDrift(seed);
    auto summary = MakeSummary(name, WindowedOptions(seed));
    ASSERT_NE(summary, nullptr) << name;

    // Ingest up to one window (+ one bucket of slack) past the final
    // switchpoint, then demand full turnover.
    const size_t check_at = static_cast<size_t>(
        drift.phase_starts[kPhases - 1] + kWindow + kWindow / kBuckets);
    ASSERT_LT(check_at, drift.items.size());
    summary->UpdateColumn(drift.items.data(), check_at);
    std::vector<uint64_t> expired;
    for (size_t p = 0; p + 1 < kPhases; ++p) {
      expired.insert(expired.end(), drift.planted_ids[p].begin(),
                     drift.planted_ids[p].end());
    }
    const std::vector<uint64_t> prefix(drift.items.begin(),
                                       drift.items.begin() + check_at);
    Verdict mid = CheckWindowedContract(summary->HeavyHitters(kPhi), prefix,
                                        drift.planted_ids[kPhases - 1],
                                        expired);

    // Finish the stream and re-check at the end.
    summary->UpdateColumn(drift.items.data() + check_at,
                          drift.items.size() - check_at);
    Verdict end = CheckWindowedContract(summary->HeavyHitters(kPhi),
                                        drift.items,
                                        drift.planted_ids[kPhases - 1],
                                        expired);
    if (!mid.ok || !end.ok) {
      ++failures;
      if (first_failure.empty()) {
        first_failure = "seed " + std::to_string(seed) + ": " +
                        (mid.ok ? end.detail : mid.detail);
      }
    }
  }
  const int budget =
      IsDeterministic(inner) ? 0 : AllowedFailures(kRuns, kDelta);
  EXPECT_LE(failures, budget)
      << name << ": " << failures << " of " << kRuns
      << " drift runs violated the windowed contract; first: "
      << first_failure;
}

// The same contract through a 4-shard windowed engine: per-shard rings
// rotate on the GLOBAL enqueued count, so the merged view answers for
// the same global window a single ring would.
TEST_P(WindowedDriftConformanceTest, ShardedEngineKeepsTheContract) {
  const std::string inner = GetParam();
  const std::string name = "windowed:" + inner;
  int failures = 0;
  std::string first_failure;
  const int runs = 3;  // the engine adds no randomness; fewer seeds
  for (int run = 0; run < runs; ++run) {
    const uint64_t seed = 2000 + 29 * run;
    const DriftStream drift = MakeDrift(seed);
    ShardedEngineOptions engine_options;
    engine_options.algorithm = name;
    engine_options.summary = WindowedOptions(seed);
    engine_options.num_shards = 4;
    engine_options.num_threads = 2;
    Status status;
    auto engine = ShardedEngine::Create(engine_options, &status);
    ASSERT_NE(engine, nullptr) << status.ToString();
    ASSERT_TRUE(engine->windowed());
    engine->UpdateBatch(drift.items);
    std::vector<uint64_t> expired;
    for (size_t p = 0; p + 1 < kPhases; ++p) {
      expired.insert(expired.end(), drift.planted_ids[p].begin(),
                     drift.planted_ids[p].end());
    }
    const Verdict v = CheckWindowedContract(
        engine->HeavyHitters(kPhi), drift.items,
        drift.planted_ids[kPhases - 1], expired);
    if (!v.ok) {
      ++failures;
      if (first_failure.empty()) {
        first_failure = "seed " + std::to_string(seed) + ": " + v.detail;
      }
    }
  }
  const int budget =
      IsDeterministic(inner) ? 0 : AllowedFailures(runs, kDelta);
  EXPECT_LE(failures, budget)
      << name << " through a 4-shard engine: " << failures << " of "
      << runs << " runs violated the contract; first: " << first_failure;
}

// Snapshot mid-bucket, restore, continue: the restored run must be
// indistinguishable from the uninterrupted one — same rotations, same
// coverage, element-wise identical reports (the per-bucket payloads
// carry live PRNG state, so even the randomized structures match).
TEST_P(WindowedDriftConformanceTest, RestoreMidBucketEqualsUninterrupted) {
  const std::string inner = GetParam();
  const std::string name = "windowed:" + inner;
  const uint64_t seed = 4242;
  const DriftStream drift = MakeDrift(seed);
  // A split point deliberately NOT on a bucket boundary.
  const size_t split = static_cast<size_t>(kWindow + kWindow / kBuckets / 2);
  ASSERT_NE((split % (kWindow / kBuckets)), 0u);

  auto uninterrupted = MakeSummary(name, WindowedOptions(seed));
  ASSERT_NE(uninterrupted, nullptr) << name;
  uninterrupted->UpdateColumn(drift.items.data(), drift.items.size());

  auto first_half = MakeSummary(name, WindowedOptions(seed));
  first_half->UpdateColumn(drift.items.data(), split);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*first_half, &bytes).ok()) << name;
  Status status;
  auto resumed = LoadSummary(bytes, &status);
  ASSERT_NE(resumed, nullptr) << name << ": " << status.ToString();
  resumed->UpdateColumn(
      drift.items.data() + split, drift.items.size() - split);

  auto* a = dynamic_cast<SlidingWindowSummary*>(uninterrupted.get());
  auto* b = dynamic_cast<SlidingWindowSummary*>(resumed.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->rotations(), b->rotations());
  EXPECT_EQ(a->window_items(), b->window_items());
  EXPECT_EQ(a->ItemsProcessed(), b->ItemsProcessed());
  const auto report_a = uninterrupted->HeavyHitters(kPhi);
  const auto report_b = resumed->HeavyHitters(kPhi);
  ASSERT_EQ(report_a.size(), report_b.size()) << name;
  for (size_t i = 0; i < report_a.size(); ++i) {
    EXPECT_EQ(report_a[i].item, report_b[i].item) << name;
    EXPECT_EQ(report_a[i].estimate, report_b[i].estimate) << name;
  }
  for (const uint64_t heavy : drift.planted_ids[kPhases - 1]) {
    EXPECT_EQ(uninterrupted->Estimate(heavy), resumed->Estimate(heavy))
        << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMergeable, WindowedDriftConformanceTest,
    ::testing::ValuesIn(MergeableSummaryNames(WindowedOptions(1))),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// Cross-layer identities that need no failure budget.

TEST(WindowedEngineTest, ShardedExactWindowEqualsSingleRing) {
  // windowed:exact is fully deterministic, so the K-sharded engine must
  // reproduce the single ring bit-for-bit: same rotations (global
  // clock), same coverage, identical estimates.
  const DriftStream drift = MakeDrift(7);
  auto single = MakeSummary("windowed:exact", WindowedOptions(7));
  single->UpdateColumn(drift.items.data(), drift.items.size());

  ShardedEngineOptions engine_options;
  engine_options.algorithm = "windowed:exact";
  engine_options.summary = WindowedOptions(7);
  engine_options.num_shards = 4;
  Status status;
  auto engine = ShardedEngine::Create(engine_options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  engine->UpdateBatch(drift.items);

  const auto& merged = engine->MergedView();
  const auto* merged_ring =
      dynamic_cast<const SlidingWindowSummary*>(&merged);
  const auto* single_ring =
      dynamic_cast<const SlidingWindowSummary*>(single.get());
  ASSERT_NE(merged_ring, nullptr);
  ASSERT_NE(single_ring, nullptr);
  EXPECT_EQ(merged_ring->rotations(), single_ring->rotations());
  EXPECT_EQ(merged_ring->window_items(), single_ring->window_items());
  const auto report_single = single->HeavyHitters(kPhi);
  const auto report_engine = engine->HeavyHitters(kPhi);
  ASSERT_EQ(report_single.size(), report_engine.size());
  for (size_t i = 0; i < report_single.size(); ++i) {
    EXPECT_EQ(report_single[i].item, report_engine[i].item);
    EXPECT_EQ(report_single[i].estimate, report_engine[i].estimate);
  }
}

TEST(WindowedEngineTest, CheckpointRestoreResumesTheGlobalClock) {
  const DriftStream drift = MakeDrift(11);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "l1hh_windowed_ckpt")
          .string();
  ShardedEngineOptions engine_options;
  engine_options.algorithm = "windowed:count_min";
  engine_options.summary = WindowedOptions(11);
  engine_options.num_shards = 3;
  Status status;
  auto original = ShardedEngine::Create(engine_options, &status);
  ASSERT_NE(original, nullptr) << status.ToString();

  // Stop mid-bucket, checkpoint, restore, and continue BOTH engines over
  // the identical suffix: reports must match element-wise.
  const size_t split = static_cast<size_t>(kWindow + 3 * kWindow / kBuckets / 2);
  original->UpdateBatch({drift.items.data(), split});
  ASSERT_TRUE(original->Checkpoint(dir).ok());
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  ASSERT_TRUE(restored->windowed());
  EXPECT_EQ(restored->ItemsProcessed(), original->ItemsProcessed());

  std::span<const uint64_t> suffix{drift.items.data() + split,
                                   drift.items.size() - split};
  original->UpdateBatch(suffix);
  restored->UpdateBatch(suffix);
  const auto report_a = original->HeavyHitters(kPhi);
  const auto report_b = restored->HeavyHitters(kPhi);
  ASSERT_EQ(report_a.size(), report_b.size());
  for (size_t i = 0; i < report_a.size(); ++i) {
    EXPECT_EQ(report_a[i].item, report_b[i].item);
    EXPECT_EQ(report_a[i].estimate, report_b[i].estimate);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Multi-producer variants: the K x P ring grid must inherit the windowed
// contract, not dodge it.

// Drives `stream` through P producer threads taking STRICT TURNS: chunk
// i is pushed by producer i % P only after chunk i - 1 returned, so the
// global position claims replay canonical stream order exactly — while
// every slot, ring, and the boundary-rotation protocol still run on real
// threads.  Deterministic structures must then answer bit-for-bit like a
// single ring.
void IngestLockstep(ShardedEngine& engine, std::span<const uint64_t> stream,
                    size_t producers, size_t chunk) {
  std::mutex mutex;
  std::condition_variable cv;
  size_t next_chunk = 0;
  const size_t total_chunks = (stream.size() + chunk - 1) / chunk;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    Status status;
    auto producer = engine.RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    threads.emplace_back([&, p, producer = std::move(producer)]() mutable {
      while (true) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] {
          return next_chunk >= total_chunks || next_chunk % producers == p;
        });
        if (next_chunk >= total_chunks) break;
        const size_t first = next_chunk * chunk;
        const size_t count = std::min(chunk, stream.size() - first);
        producer->UpdateBatch(stream.subspan(first, count));
        ++next_chunk;
        cv.notify_all();
      }
      producer.reset();
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(WindowedEngineTest, LockstepProducersEqualSingleRing) {
  const DriftStream drift = MakeDrift(17);
  auto single = MakeSummary("windowed:exact", WindowedOptions(17));
  ASSERT_NE(single, nullptr);
  single->UpdateColumn(drift.items.data(), drift.items.size());

  ShardedEngineOptions engine_options;
  engine_options.algorithm = "windowed:exact";
  engine_options.summary = WindowedOptions(17);
  engine_options.num_shards = 4;
  engine_options.num_threads = 2;
  engine_options.max_producers = 5;  // 4 external + slot 0
  Status status;
  auto engine = ShardedEngine::Create(engine_options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  // 384 is deliberately NOT a multiple of the 256-item bucket width, so
  // rotation boundaries land mid-chunk and every producer thread ends up
  // performing rotations of its own.
  IngestLockstep(*engine, drift.items, /*producers=*/4, /*chunk=*/384);
  engine->Flush();
  ASSERT_EQ(engine->ItemsProcessed(), drift.items.size());

  const auto* merged_ring =
      dynamic_cast<const SlidingWindowSummary*>(&engine->MergedView());
  const auto* single_ring =
      dynamic_cast<const SlidingWindowSummary*>(single.get());
  ASSERT_NE(merged_ring, nullptr);
  ASSERT_NE(single_ring, nullptr);
  EXPECT_EQ(merged_ring->rotations(), single_ring->rotations());
  EXPECT_EQ(merged_ring->window_items(), single_ring->window_items());
  const auto report_single = single->HeavyHitters(kPhi);
  const auto report_engine = engine->HeavyHitters(kPhi);
  ASSERT_EQ(report_single.size(), report_engine.size());
  for (size_t i = 0; i < report_single.size(); ++i) {
    EXPECT_EQ(report_single[i].item, report_engine[i].item);
    EXPECT_EQ(report_single[i].estimate, report_engine[i].estimate);
  }
}

TEST(WindowedEngineTest, RacyProducersUnderDriftEvictExpiredHeavies) {
  // Planted drift under P = 4 genuinely RACING producers.  The global
  // interleaving inside each phase is nondeterministic, so the exact
  // window contents cannot be predicted — but the contract's
  // interleaving-invariant clauses can still be demanded outright:
  // phases are separated by joins, the final phase is longer than the
  // window, so (a) heavies of earlier phases must have left the report
  // entirely, (b) final-phase heavies occupy ~16%/12% of ANY
  // interleaving's last-W suffix, far above kPhi, and must be reported,
  // (c) the global clock must have performed a consistent rotation count.
  const DriftStream drift = MakeDrift(19);
  ShardedEngineOptions engine_options;
  engine_options.algorithm = "windowed:exact";
  engine_options.summary = WindowedOptions(19);
  engine_options.num_shards = 4;
  engine_options.num_threads = 2;
  engine_options.max_producers = 5;
  Status status;
  auto engine = ShardedEngine::Create(engine_options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  for (size_t phase = 0; phase < kPhases; ++phase) {
    const size_t first = static_cast<size_t>(drift.phase_starts[phase]);
    const size_t last = phase + 1 < kPhases
                            ? static_cast<size_t>(drift.phase_starts[phase + 1])
                            : drift.items.size();
    std::vector<std::thread> threads;
    const size_t span = last - first;
    for (size_t p = 0; p < 4; ++p) {
      auto producer = engine->RegisterProducer(&status);
      ASSERT_NE(producer, nullptr) << status.ToString();
      const size_t begin = first + p * span / 4;
      const size_t end = first + (p + 1) * span / 4;
      threads.emplace_back(
          [&drift, begin, end, producer = std::move(producer)]() mutable {
            // Small sub-batches maximize cross-producer interleaving.
            size_t i = begin;
            while (i < end) {
              const size_t chunk = std::min<size_t>(777, end - i);
              producer->UpdateBatch({drift.items.data() + i, chunk});
              i += chunk;
            }
            producer.reset();
          });
    }
    for (auto& thread : threads) thread.join();
  }
  engine->Flush();
  ASSERT_EQ(engine->ItemsProcessed(), drift.items.size());

  const auto report = engine->HeavyHitters(kPhi);
  for (size_t p = 0; p + 1 < kPhases; ++p) {
    for (const uint64_t expired : drift.planted_ids[p]) {
      EXPECT_FALSE(std::any_of(
          report.begin(), report.end(),
          [expired](const ItemEstimate& e) { return e.item == expired; }))
          << "phase-" << p << " heavy " << expired
          << " survived a full final phase under racing producers";
    }
  }
  for (const uint64_t fresh : drift.planted_ids[kPhases - 1]) {
    EXPECT_TRUE(std::any_of(
        report.begin(), report.end(),
        [fresh](const ItemEstimate& e) { return e.item == fresh; }))
        << "final-phase heavy " << fresh << " missing from the report";
  }
  // The clock: T items at stride W/B admit exactly floor((T-1)/stride)
  // completed rotations once everything is applied and no producer is
  // mid-claim (the at-boundary +1 state is transient).
  const auto* ring =
      dynamic_cast<const SlidingWindowSummary*>(&engine->MergedView());
  ASSERT_NE(ring, nullptr);
  const uint64_t stride = kWindow / kBuckets;
  EXPECT_EQ(ring->rotations(), (drift.items.size() - 1) / stride);
}

TEST(WindowedEngineTest, CheckpointWithLiveProducersRestoresValidClock) {
  // Checkpoints taken from a third thread WHILE two producers race must
  // each restore cleanly: the manifest clock, the per-shard rotation
  // counts, and the widened rotation-vs-count validation (a checkpoint
  // can catch the instant where a boundary rotation fired but its
  // boundary item is not yet applied) all have to line up.
  const DriftStream drift = MakeDrift(23);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "l1hh_live_producer_ckpt")
          .string();
  ShardedEngineOptions engine_options;
  engine_options.algorithm = "windowed:exact";
  engine_options.summary = WindowedOptions(23);
  engine_options.num_shards = 3;
  engine_options.num_threads = 2;
  engine_options.max_producers = 3;
  Status status;
  auto engine = ShardedEngine::Create(engine_options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const size_t total = drift.items.size();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    auto producer = engine->RegisterProducer(&status);
    ASSERT_NE(producer, nullptr) << status.ToString();
    const size_t begin = p * total / 2;
    const size_t end = (p + 1) * total / 2;
    producers.emplace_back(
        [&drift, begin, end, producer = std::move(producer)]() mutable {
          size_t i = begin;
          while (i < end) {
            const size_t chunk = std::min<size_t>(512, end - i);
            producer->UpdateBatch({drift.items.data() + i, chunk});
            i += chunk;
          }
          producer.reset();
        });
  }

  int checkpoints = 0;
  while (engine->ItemsProcessed() < total && checkpoints < 8) {
    ASSERT_TRUE(engine->Checkpoint(dir).ok());
    auto restored = ShardedEngine::Restore(dir, &status);
    ASSERT_NE(restored, nullptr)
        << "mid-ingest checkpoint " << checkpoints
        << " failed to restore: " << status.ToString();
    EXPECT_TRUE(restored->windowed());
    EXPECT_LE(restored->ItemsProcessed(), total);
    ++checkpoints;
  }
  for (auto& thread : producers) thread.join();

  // After the producers retire, a final checkpoint must restore to a
  // clock that resumes exactly: same applied count, same report.
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), total);
  const auto report_a = engine->HeavyHitters(kPhi);
  const auto report_b = restored->HeavyHitters(kPhi);
  ASSERT_EQ(report_a.size(), report_b.size());
  for (size_t i = 0; i < report_a.size(); ++i) {
    EXPECT_EQ(report_a[i].item, report_b[i].item);
    EXPECT_EQ(report_a[i].estimate, report_b[i].estimate);
  }
  std::filesystem::remove_all(dir);
}

TEST(WindowedEngineTest, SinceTimeZeroSummaryKeepsStaleHeavies) {
  // The motivating contrast: over a drifting stream, the whole-stream
  // summary still reports phase-1 heavies at the end — the windowed view
  // is what makes the report current.
  const DriftStream drift = MakeDrift(13);
  SummaryOptions options = WindowedOptions(13);
  auto whole = MakeSummary("exact", options);
  auto windowed = MakeSummary("windowed:exact", options);
  whole->UpdateColumn(drift.items.data(), drift.items.size());
  windowed->UpdateColumn(drift.items.data(), drift.items.size());
  const double stale_phi = 0.04;  // 0.12 per phase / 3 phases = 0.04
  const auto whole_report = whole->HeavyHitters(stale_phi);
  const uint64_t stale = drift.planted_ids[0][0];
  EXPECT_TRUE(std::any_of(
      whole_report.begin(), whole_report.end(),
      [stale](const ItemEstimate& e) { return e.item == stale; }));
  EXPECT_EQ(windowed->Estimate(stale), 0.0);
}

}  // namespace
}  // namespace l1hh
