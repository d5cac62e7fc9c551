// Merge-algebra property tests for every mergeable registered summary:
//   * commutativity   — Merge(A,B) ≈ Merge(B,A),
//   * associativity   — Merge(Merge(A,B),C) ≈ Merge(A,Merge(B,C)),
//   * shard-and-merge — partitioned ingest + merge ≈ single-summary
//                       ingest of the whole stream (the ShardedEngine's
//                       correctness argument),
// each within the structure's documented additive error (exact equality
// for the ground-truth counter).  Substreams are disjoint item
// partitions, matching the engine's hash partitioning and the
// disjoint-substream precondition of the sampling-based merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "summary_test_util.h"
#include "util/random.h"

namespace l1hh {
namespace {

constexpr double kEpsilon = 0.02;
constexpr double kPhi = 0.05;
constexpr uint64_t kStreamLength = 60000;

SummaryOptions Options() {
  SummaryOptions o;
  o.epsilon = kEpsilon;
  o.phi = kPhi;
  o.delta = 0.05;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = kStreamLength;
  o.seed = 7;
  return o;
}

std::vector<std::string> MergeableNames() {
  return MergeableSummaryNames(Options());
}

class MergePropertyTest : public testing::TestWithParam<std::string> {
 protected:
  static std::unique_ptr<Summary> Make() {
    auto summary = MakeSummary(GetParam(), Options());
    EXPECT_NE(summary, nullptr) << GetParam();
    return summary;
  }

  /// The shared workload: planted heavies well above phi plus background,
  /// so every structure has unambiguous items to agree on.
  static const PlantedStream& Stream() {
    static const PlantedStream* stream = [] {
      PlantedSpec spec;
      spec.planted_fractions = {0.18, 0.10, 0.07};
      spec.universe_size = uint64_t{1} << 20;
      spec.stream_length = kStreamLength;
      spec.order = StreamOrder::kShuffled;
      return new PlantedStream(MakePlantedStream(spec, /*seed=*/5));
    }();
    return *stream;
  }

  /// Disjoint item partitions (every occurrence of an item stays in one
  /// part), like the engine's hash partitioning.
  static const std::vector<std::vector<uint64_t>>& Parts() {
    static const std::vector<std::vector<uint64_t>>* parts = [] {
      auto* p = new std::vector<std::vector<uint64_t>>(3);
      for (const uint64_t x : Stream().items) {
        (*p)[static_cast<size_t>(Mix64(x) % 3)].push_back(x);
      }
      return p;
    }();
    return *parts;
  }

  static std::unique_ptr<Summary> Ingest(const std::vector<uint64_t>& part) {
    auto summary = Make();
    summary->UpdateColumn(part.data(), part.size());
    return summary;
  }

  /// Estimate-agreement tolerance between two summaries over the same
  /// stream: both carry at most ~eps*m additive error (deterministically
  /// or at the fixed seeds used here), so they agree within 2*eps*m; the
  /// exact counter must agree exactly.
  static double Tolerance() {
    if (GetParam() == "exact") return 0.0;
    return 2.0 * kEpsilon * static_cast<double>(kStreamLength);
  }

  static void ExpectAgree(const Summary& a, const Summary& b) {
    ASSERT_EQ(a.ItemsProcessed(), b.ItemsProcessed()) << GetParam();
    for (const uint64_t id : Stream().planted_ids) {
      EXPECT_NEAR(a.Estimate(id), b.Estimate(id), Tolerance())
          << GetParam() << " disagrees on planted item " << id;
    }
    // Both reports must recall every planted heavy (all are > phi*m).
    for (const Summary* s : {&a, &b}) {
      const auto report = s->HeavyHitters(kPhi);
      for (const uint64_t id : Stream().planted_ids) {
        EXPECT_TRUE(std::any_of(
            report.begin(), report.end(),
            [id](const ItemEstimate& e) { return e.item == id; }))
            << GetParam() << " report missed planted item " << id;
      }
    }
  }
};

// Pins the tentpole of ISSUE 3: the paper's space-optimal Algorithm 2 is
// mergeable (epoch-reconciled MergeFrom) and therefore swept by every
// property below and shardable by the engine.  If a refactor silently
// drops SupportsMerge, the parameterized suite would just shrink — this
// test makes that a failure instead.
TEST(MergeableSetTest, PaperAlgorithmsAreMergeable) {
  const auto names = MergeableNames();
  for (const char* required : {"bdw_simple", "bdw_optimal"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required << " must support Merge";
  }
}

TEST_P(MergePropertyTest, MergeIsCommutative) {
  auto ab = Ingest(Parts()[0]);
  auto b_for_ab = Ingest(Parts()[1]);
  ASSERT_TRUE(ab->Merge(*b_for_ab).ok()) << GetParam();

  auto ba = Ingest(Parts()[1]);
  auto a_for_ba = Ingest(Parts()[0]);
  ASSERT_TRUE(ba->Merge(*a_for_ba).ok()) << GetParam();

  ExpectAgree(*ab, *ba);
}

TEST_P(MergePropertyTest, MergeIsAssociative) {
  // left = (A + B) + C
  auto left = Ingest(Parts()[0]);
  ASSERT_TRUE(left->Merge(*Ingest(Parts()[1])).ok()) << GetParam();
  ASSERT_TRUE(left->Merge(*Ingest(Parts()[2])).ok()) << GetParam();
  // right = A + (B + C)
  auto bc = Ingest(Parts()[1]);
  ASSERT_TRUE(bc->Merge(*Ingest(Parts()[2])).ok()) << GetParam();
  auto right = Ingest(Parts()[0]);
  ASSERT_TRUE(right->Merge(*bc).ok()) << GetParam();

  ExpectAgree(*left, *right);
}

TEST_P(MergePropertyTest, ShardedIngestThenMergeMatchesSingleIngest) {
  // Manual shard-and-merge over the disjoint partitions...
  auto merged = Ingest(Parts()[0]);
  ASSERT_TRUE(merged->Merge(*Ingest(Parts()[1])).ok()) << GetParam();
  ASSERT_TRUE(merged->Merge(*Ingest(Parts()[2])).ok()) << GetParam();
  // ...versus one summary ingesting the whole stream.
  auto single = Ingest(Stream().items);
  ExpectAgree(*merged, *single);
}

TEST_P(MergePropertyTest, EngineMatchesSingleIngest) {
  ShardedEngineOptions engine_options;
  engine_options.algorithm = GetParam();
  engine_options.summary = Options();
  engine_options.num_shards = 4;
  auto engine = ShardedEngine::Create(engine_options);
  ASSERT_NE(engine, nullptr) << GetParam();
  engine->UpdateBatch(Stream().items);

  auto single = Ingest(Stream().items);
  for (size_t i = 0; i < Stream().planted_ids.size(); ++i) {
    const uint64_t id = Stream().planted_ids[i];
    const double truth = static_cast<double>(Stream().planted_counts[i]);
    // Both views sit within ~eps*m of the exact count (fixed seeds).
    EXPECT_NEAR(engine->Estimate(id), truth, Tolerance() + 1.0)
        << GetParam();
    EXPECT_NEAR(single->Estimate(id), truth, Tolerance() + 1.0)
        << GetParam();
  }
  const auto report = engine->HeavyHitters(kPhi);
  for (const uint64_t id : Stream().planted_ids) {
    EXPECT_TRUE(std::any_of(
        report.begin(), report.end(),
        [id](const ItemEstimate& e) { return e.item == id; }))
        << GetParam() << " engine report missed planted item " << id;
  }
  EXPECT_EQ(engine->ItemsProcessed(), single->ItemsProcessed());
}

INSTANTIATE_TEST_SUITE_P(
    AllMergeable, MergePropertyTest, testing::ValuesIn(MergeableNames()),
    [](const testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace l1hh
