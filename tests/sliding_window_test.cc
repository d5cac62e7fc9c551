// Unit suite for the sliding-window container (src/window/): factory
// spelling, ring rotation/eviction mechanics, merge alignment rules,
// cache invalidation, and snapshot geometry checks.  The statistical
// eps + 1/B contract over drifting streams lives in
// windowed_conformance_test.cc; both carry the ctest label `window`.
#include "window/sliding_window_summary.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "io/snapshot.h"
#include "summary/summary.h"

namespace l1hh {
namespace {

SummaryOptions WindowOptions(uint64_t window, uint64_t buckets) {
  SummaryOptions opt;
  opt.epsilon = 0.02;
  opt.phi = 0.05;
  opt.universe_size = 1 << 16;
  opt.stream_length = 1 << 16;
  opt.seed = 7;
  opt.window_size = window;
  opt.window_buckets = buckets;
  return opt;
}

std::unique_ptr<SlidingWindowSummary> MakeWindow(
    const std::string& inner, uint64_t window, uint64_t buckets,
    Status* status = nullptr) {
  return SlidingWindowSummary::Create(inner, WindowOptions(window, buckets),
                                      status);
}

TEST(SlidingWindowFactoryTest, RegistrySpellingRoundTrips) {
  auto summary = MakeSummary("windowed:count_min", WindowOptions(1000, 4));
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Name(), "windowed:count_min");
  EXPECT_TRUE(summary->SupportsMerge());
  EXPECT_TRUE(summary->SupportsSnapshot());
  // Options echo the EFFECTIVE geometry so snapshot headers reconstruct
  // an identical ring.
  const SummaryOptions echoed = summary->Options();
  EXPECT_EQ(echoed.window_size, 1000u);
  EXPECT_EQ(echoed.window_buckets, 4u);
}

TEST(SlidingWindowFactoryTest, GeometryDefaultsAndRounding) {
  // window_size == 0 defaults to stream_length; buckets 0 defaults to 8.
  SummaryOptions opt = WindowOptions(0, 0);
  auto summary = MakeSummary("windowed:misra_gries", opt);
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Options().window_size, opt.stream_length);
  EXPECT_EQ(summary->Options().window_buckets, 8u);
  // Non-divisible W rounds down to a multiple of B.
  auto rounded = MakeWindow("exact", 103, 4);
  ASSERT_NE(rounded, nullptr);
  EXPECT_EQ(rounded->bucket_width(), 25u);
  EXPECT_EQ(rounded->window_size(), 100u);
}

TEST(SlidingWindowFactoryTest, RejectsUnusableInnerStructures) {
  Status status;
  EXPECT_EQ(MakeWindow("no_such_algo", 100, 4, &status), nullptr);
  EXPECT_NE(status.ToString().find("unknown"), std::string::npos);
  // Non-mergeable structures have no window semantics to offer.
  EXPECT_EQ(MakeWindow("lossy_counting", 100, 4, &status), nullptr);
  EXPECT_NE(status.ToString().find("Merge"), std::string::npos);
  // The refusal reason travels through the registry factory too, so the
  // CLI and the engine can show it instead of "unknown algorithm".
  EXPECT_EQ(MakeSummary("windowed:lossy_counting", WindowOptions(100, 4),
                        &status),
            nullptr);
  EXPECT_NE(status.ToString().find("Merge"), std::string::npos);
  EXPECT_EQ(MakeWindow("sticky_sampling", 100, 4, &status), nullptr);
  // No nested windows.
  EXPECT_EQ(MakeWindow("windowed:exact", 100, 4, &status), nullptr);
  EXPECT_EQ(MakeSummary("windowed:windowed:exact", WindowOptions(100, 4)),
            nullptr);
  // Hostile bucket counts must not size an allocation.
  EXPECT_EQ(MakeWindow("exact", 100, SlidingWindowSummary::kMaxBuckets + 1,
                       &status),
            nullptr);
  EXPECT_NE(status.ToString().find("window_buckets"), std::string::npos);
}

TEST(SlidingWindowTest, RotationIsLazyAndCoverageIsBounded) {
  auto window = MakeWindow("exact", 100, 4);  // q = 25
  ASSERT_NE(window, nullptr);
  for (uint64_t i = 0; i < 100; ++i) window->Update(i % 10);
  // Lazy rotation: a stream ending exactly on a bucket boundary still
  // covers a full window; the boundary rotation waits for the next item.
  EXPECT_EQ(window->rotations(), 3u);
  EXPECT_EQ(window->window_items(), 100u);
  EXPECT_EQ(window->ItemsProcessed(), 100u);
  window->Update(42);
  EXPECT_EQ(window->rotations(), 4u);
  EXPECT_EQ(window->window_items(), 76u);  // 3 full buckets + 1 live item
  EXPECT_EQ(window->ItemsProcessed(), 101u);
  // Coverage stays within (W - q, W] forever after.
  for (uint64_t i = 0; i < 1000; ++i) {
    window->Update(i);
    EXPECT_GT(window->window_items(), 75u);
    EXPECT_LE(window->window_items(), 100u);
  }
}

TEST(SlidingWindowTest, ExpiredItemsLeaveWithinOneWindow) {
  auto window = MakeWindow("exact", 100, 4);
  ASSERT_NE(window, nullptr);
  // A burst of one heavy item, then background: after a full window of
  // other items the heavy one must be completely evicted.
  for (int i = 0; i < 50; ++i) window->Update(7);
  EXPECT_GT(window->Estimate(7), 0.0);
  for (uint64_t i = 0; i < 100; ++i) window->Update(1000 + i);
  EXPECT_EQ(window->Estimate(7), 0.0);
  for (const auto& hh : window->HeavyHitters(0.05)) {
    EXPECT_NE(hh.item, 7u);
  }
}

TEST(SlidingWindowTest, ExactInnerReportsExactSuffixCounts) {
  auto window = MakeWindow("exact", 200, 8);  // q = 25
  ASSERT_NE(window, nullptr);
  std::vector<uint64_t> stream;
  for (uint64_t i = 0; i < 555; ++i) stream.push_back(i % 13);
  window->UpdateColumn(stream.data(), stream.size());
  // The covered suffix is the last window_items() of the stream; a
  // windowed exact counter must report exactly its counts.
  const uint64_t covered = window->window_items();
  ASSERT_LE(covered, 200u);
  std::vector<uint64_t> truth(13, 0);
  for (size_t i = stream.size() - covered; i < stream.size(); ++i) {
    ++truth[stream[i]];
  }
  for (uint64_t x = 0; x < 13; ++x) {
    EXPECT_EQ(window->Estimate(x), static_cast<double>(truth[x]))
        << "item " << x;
  }
}

TEST(SlidingWindowTest, WeightedUpdatesCrossBucketBoundaries) {
  auto window = MakeWindow("exact", 100, 4);  // q = 25
  ASSERT_NE(window, nullptr);
  window->Update(5, 120);  // spans 4+ buckets in one call
  EXPECT_EQ(window->ItemsProcessed(), 120u);
  EXPECT_EQ(window->rotations(), 4u);
  // Coverage: 3 full buckets of 25 plus 20 in the live bucket.
  EXPECT_EQ(window->window_items(), 95u);
  EXPECT_EQ(window->Estimate(5), 95.0);
}

TEST(SlidingWindowTest, QueriesReflectUpdatesImmediately) {
  auto window = MakeWindow("exact", 100, 4);
  ASSERT_NE(window, nullptr);
  window->Update(3, 10);
  EXPECT_EQ(window->Estimate(3), 10.0);  // builds the merged cache
  window->Update(3, 5);                  // must invalidate it
  EXPECT_EQ(window->Estimate(3), 15.0);
  const auto before = window->HeavyHitters(0.05);
  ASSERT_FALSE(before.empty());
  for (uint64_t i = 0; i < 110; ++i) window->Update(200 + i);
  EXPECT_EQ(window->Estimate(3), 0.0);  // rotation invalidated, 3 evicted
}

TEST(SlidingWindowMergeTest, PristineRingAdoptsAlignment) {
  auto a = MakeWindow("exact", 100, 4);
  auto b = MakeWindow("exact", 100, 4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (uint64_t i = 0; i < 130; ++i) a->Update(i % 3);
  auto merged = MakeWindow("exact", 100, 4);
  ASSERT_TRUE(merged->Merge(*a).ok());
  EXPECT_EQ(merged->rotations(), a->rotations());
  EXPECT_EQ(merged->window_items(), a->window_items());
  EXPECT_EQ(merged->Estimate(0), a->Estimate(0));
  // Merging an untouched ring is a no-op, not an alignment error.
  ASSERT_TRUE(a->Merge(*b).ok());
  EXPECT_EQ(a->ItemsProcessed(), 130u);
}

TEST(SlidingWindowMergeTest, RejectsMisalignedAndForeignRings) {
  auto a = MakeWindow("exact", 100, 4);
  auto b = MakeWindow("exact", 100, 4);
  for (uint64_t i = 0; i < 130; ++i) a->Update(i);  // 5 rotations
  for (uint64_t i = 0; i < 30; ++i) b->Update(i);   // 1 rotation
  const Status misaligned = a->Merge(*b);
  EXPECT_FALSE(misaligned.ok());
  EXPECT_NE(misaligned.ToString().find("rotation"), std::string::npos);
  // Different geometry or inner structure is incompatible outright.
  auto geometry = MakeWindow("exact", 200, 4);
  EXPECT_FALSE(a->Merge(*geometry).ok());
  auto inner = MakeWindow("misra_gries", 100, 4);
  EXPECT_FALSE(a->Merge(*inner).ok());
  auto plain = MakeSummary("exact", WindowOptions(100, 4));
  EXPECT_FALSE(a->Merge(*plain).ok());
}

TEST(SlidingWindowMergeTest, ShardStyleDisjointMergeMatchesSingleRing) {
  // Engine-style split: two rings in external-rotation mode ingest
  // disjoint halves of one global stream and rotate on the global clock;
  // their merge must equal one ring over the whole stream.
  auto single = MakeWindow("exact", 100, 4);
  auto left = MakeWindow("exact", 100, 4);
  auto right = MakeWindow("exact", 100, 4);
  left->set_external_rotation(true);
  right->set_external_rotation(true);
  const uint64_t q = single->bucket_width();
  for (uint64_t pos = 0; pos < 137; ++pos) {
    if (pos % q == 0 && pos != 0) {
      left->Rotate();
      right->Rotate();
    }
    const uint64_t item = (pos * 31) % 11;
    single->Update(item);
    (item % 2 == 0 ? left : right)->Update(item);
  }
  auto merged = MakeWindow("exact", 100, 4);
  ASSERT_TRUE(merged->Merge(*left).ok());
  ASSERT_TRUE(merged->Merge(*right).ok());
  EXPECT_EQ(merged->window_items(), single->window_items());
  for (uint64_t x = 0; x < 11; ++x) {
    EXPECT_EQ(merged->Estimate(x), single->Estimate(x)) << "item " << x;
  }
}

TEST(SlidingWindowSnapshotTest, GeometryMismatchIsCorruption) {
  auto a = MakeWindow("exact", 100, 4);
  for (uint64_t i = 0; i < 60; ++i) a->Update(i);
  BitWriter payload;
  ASSERT_TRUE(a->SaveTo(payload).ok());
  // Same payload into a ring with a different bucket width: refused as a
  // shape mismatch, exactly like every adapter's LoadFrom.
  auto b = MakeWindow("exact", 200, 4);
  BitReader reader(payload);
  const Status loaded = b->LoadFrom(reader);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("shape"), std::string::npos);
}

TEST(SlidingWindowSnapshotTest, ContainerRoundTripsThroughLoadSummary) {
  auto a = MakeWindow("count_min", 400, 8);
  ASSERT_NE(a, nullptr);
  for (uint64_t i = 0; i < 777; ++i) a->Update(i % 50);  // mid-bucket stop
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SaveSummary(*a, &bytes).ok());
  Status status;
  auto restored = LoadSummary(bytes, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->Name(), "windowed:count_min");
  auto* ring = dynamic_cast<SlidingWindowSummary*>(restored.get());
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->rotations(), a->rotations());
  EXPECT_EQ(ring->window_items(), a->window_items());
  EXPECT_EQ(ring->ItemsProcessed(), a->ItemsProcessed());
  for (uint64_t x = 0; x < 50; ++x) {
    EXPECT_EQ(restored->Estimate(x), a->Estimate(x)) << "item " << x;
  }
}

}  // namespace
}  // namespace l1hh
