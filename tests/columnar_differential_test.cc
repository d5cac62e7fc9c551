// Columnar differential battery: UpdateColumn must be STATE-IDENTICAL to
// the item-at-a-time Update loop for every registered algorithm — not
// approximately equal, bit-for-bit equal, PRNG draws included.  The
// comparison is each structure's own SaveTo bit stream, so any divergence
// (a reordered sketch increment, a candidate pruned against a future
// table state, a PRNG consumed out of order) fails loudly.
//
// The battery fuzzes the slicing, not just the data: the same seeded
// stream is replayed through slice sizes 0/1/odd/4096, a mixed schedule,
// and columns aliasing one key, because slicing is exactly what an
// UpdateColumn override could get wrong while looking correct on
// whole-stream feeds.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "util/bit_stream.h"

namespace l1hh {
namespace {

struct SnapshotBits {
  std::vector<uint64_t> words;
  size_t bits = 0;

  bool operator==(const SnapshotBits& other) const = default;
};

SnapshotBits Capture(const Summary& summary) {
  BitWriter out;
  const Status s = summary.SaveTo(out);
  EXPECT_TRUE(s.ok()) << summary.Name() << ": " << s.ToString();
  return {out.words(), out.size_bits()};
}

SummaryOptions TestOptions(uint64_t stream_length) {
  SummaryOptions o;
  o.epsilon = 0.02;
  o.phi = 0.05;
  o.delta = 0.05;
  o.universe_size = uint64_t{1} << 16;
  o.stream_length = stream_length;
  o.seed = 7;
  o.window_size = 8192;
  o.window_buckets = 4;
  return o;
}

std::vector<std::string> AllAlgorithms() {
  std::vector<std::string> names = RegisteredSummaryNames();
  // The windowed container chunks columns at bucket boundaries; cover a
  // deterministic and a PRNG-bearing inner structure.
  names.push_back("windowed:misra_gries");
  names.push_back("windowed:count_min");
  return names;
}

// Feeds `stream` through UpdateColumn in slices drawn round-robin from
// `slice_sizes` and asserts the result is indistinguishable from the
// scalar Update loop.
void ExpectColumnarEqualsScalar(const std::string& name,
                                const std::vector<uint64_t>& stream,
                                const std::vector<size_t>& slice_sizes,
                                const char* schedule_label) {
  SCOPED_TRACE(name + " / " + schedule_label);
  const SummaryOptions options = TestOptions(stream.size());
  auto scalar = MakeSummary(name, options);
  auto columnar = MakeSummary(name, options);
  ASSERT_NE(scalar, nullptr);
  ASSERT_NE(columnar, nullptr);

  for (const uint64_t item : stream) scalar->Update(item, 1);

  size_t offset = 0;
  size_t next_size = 0;
  while (offset < stream.size()) {
    size_t take = slice_sizes[next_size % slice_sizes.size()];
    ++next_size;
    take = std::min(take, stream.size() - offset);
    columnar->UpdateColumn(stream.data() + offset, take);
    offset += take;
    // A schedule of all-zero slices must still terminate.
    if (take == 0 && slice_sizes.size() == 1) {
      columnar->UpdateColumn(stream.data() + offset, stream.size() - offset);
      offset = stream.size();
    }
  }

  EXPECT_EQ(scalar->ItemsProcessed(), columnar->ItemsProcessed());
  ASSERT_TRUE(scalar->SupportsSnapshot()) << name;
  EXPECT_EQ(Capture(*scalar), Capture(*columnar))
      << name << ": UpdateColumn diverged from the scalar Update loop";
  // Redundant with the bit compare, but pins the user-visible surface
  // too (and covers any state a structure might not serialize).
  EXPECT_EQ(scalar->HeavyHitters(options.phi).size(),
            columnar->HeavyHitters(options.phi).size());
  for (uint64_t probe = 0; probe < 64; ++probe) {
    EXPECT_EQ(scalar->Estimate(probe), columnar->Estimate(probe)) << probe;
  }
}

TEST(ColumnarDifferentialTest, WholeStreamSlice) {
  const auto stream =
      MakeZipfStream(uint64_t{1} << 16, 1.2, 20000, /*seed=*/11);
  for (const auto& name : AllAlgorithms()) {
    ExpectColumnarEqualsScalar(name, stream, {stream.size()}, "whole");
  }
}

TEST(ColumnarDifferentialTest, SingleItemSlices) {
  const auto stream =
      MakeZipfStream(uint64_t{1} << 16, 1.2, 4000, /*seed=*/13);
  for (const auto& name : AllAlgorithms()) {
    ExpectColumnarEqualsScalar(name, stream, {1}, "ones");
  }
}

TEST(ColumnarDifferentialTest, OddSlices) {
  const auto stream =
      MakeZipfStream(uint64_t{1} << 16, 1.1, 20000, /*seed=*/17);
  for (const auto& name : AllAlgorithms()) {
    ExpectColumnarEqualsScalar(name, stream, {7}, "sevens");
    ExpectColumnarEqualsScalar(name, stream, {13, 255, 3}, "mixed-odd");
  }
}

TEST(ColumnarDifferentialTest, LargeAndEmptySlices) {
  const auto stream =
      MakeZipfStream(uint64_t{1} << 16, 1.3, 24000, /*seed=*/19);
  for (const auto& name : AllAlgorithms()) {
    ExpectColumnarEqualsScalar(name, stream, {4096}, "4096");
    // Zero-length slices sprinkled through the schedule must be no-ops.
    ExpectColumnarEqualsScalar(name, stream, {0, 1, 0, 7, 4096},
                               "with-zeros");
  }
}

TEST(ColumnarDifferentialTest, SlicesAliasingOneKey) {
  // Columns where one key repeats back to back: the regime where a
  // columnar hash pre-pass touches the same cells many times per tile
  // and where Misra-Gries-style decrements cascade.
  std::vector<uint64_t> stream;
  for (int rep = 0; rep < 300; ++rep) {
    for (int i = 0; i < 20; ++i) stream.push_back(42);
    for (int i = 0; i < 10; ++i) {
      stream.push_back(static_cast<uint64_t>(rep * 31 + i) % 997);
    }
    for (int i = 0; i < 5; ++i) stream.push_back(42);
  }
  for (const auto& name : AllAlgorithms()) {
    ExpectColumnarEqualsScalar(name, stream, {64}, "aliasing-64");
    ExpectColumnarEqualsScalar(name, stream, {stream.size()},
                               "aliasing-whole");
  }
}

// The engine's one batch route (UpdateBatch, the partition pass) must
// land exactly the per-shard substreams the per-item Update route does:
// every occurrence of an item on the same shard, in stream order, and —
// for a windowed engine — every item in the same global bucket.  Slice
// sizes are mixed so tile and bucket boundaries land mid-batch.
void ExpectEngineBatchEqualsPerItem(const std::string& name,
                                    size_t num_shards) {
  SCOPED_TRACE(name + " / K=" + std::to_string(num_shards));
  const auto stream =
      MakeZipfStream(uint64_t{1} << 16, 1.2, 60000, /*seed=*/23);
  ShardedEngineOptions options;
  options.algorithm = name;
  options.summary = TestOptions(stream.size());
  options.num_shards = num_shards;
  options.num_threads = 2;
  auto per_item = ShardedEngine::Create(options);
  auto batch = ShardedEngine::Create(options);
  ASSERT_NE(per_item, nullptr);
  ASSERT_NE(batch, nullptr);

  for (const uint64_t item : stream) per_item->Update(item);
  size_t offset = 0;
  const size_t sizes[] = {1, 7, 4096, 513};
  size_t i = 0;
  while (offset < stream.size()) {
    const size_t take = std::min(sizes[i++ % 4], stream.size() - offset);
    batch->UpdateBatch({stream.data() + offset, take});
    offset += take;
  }

  per_item->Flush();
  batch->Flush();
  EXPECT_EQ(per_item->ItemsProcessed(), batch->ItemsProcessed());
  EXPECT_EQ(per_item->ShardItemCounts(), batch->ShardItemCounts());
  const auto a = per_item->HeavyHitters(options.summary.phi);
  const auto b = batch->HeavyHitters(options.summary.phi);
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].item, b[k].item);
    EXPECT_EQ(a[k].estimate, b[k].estimate);
  }
  EXPECT_EQ(Capture(per_item->MergedView()), Capture(batch->MergedView()));
}

TEST(ColumnarDifferentialTest, EngineBatchMatchesPerItemPowerOfTwoShards) {
  for (const std::string name :
       {"exact", "misra_gries", "count_min", "bdw_optimal"}) {
    ExpectEngineBatchEqualsPerItem(name, 4);
  }
}

// K=3 takes the partition pass's modulo branch instead of the mask.
TEST(ColumnarDifferentialTest, EngineBatchMatchesPerItemThreeShards) {
  for (const std::string name :
       {"exact", "misra_gries", "count_min", "bdw_optimal"}) {
    ExpectEngineBatchEqualsPerItem(name, 3);
  }
}

// Bucket width 8192/4 = 2048: the 4096 and 513 slices straddle global
// bucket boundaries, so the batch is split and gated per rotation chunk.
TEST(ColumnarDifferentialTest, EngineBatchMatchesPerItemWindowed) {
  ExpectEngineBatchEqualsPerItem("windowed:space_saving", 4);
  ExpectEngineBatchEqualsPerItem("windowed:space_saving", 3);
}

}  // namespace
}  // namespace l1hh
