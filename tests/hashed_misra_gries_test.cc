#include "summary/hashed_misra_gries.h"

#include <gtest/gtest.h>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "util/random.h"

namespace l1hh {
namespace {

HashedMisraGries Make(size_t counters, size_t top, uint64_t seed,
                      uint64_t range = 1 << 20) {
  Rng rng(seed);
  return HashedMisraGries(counters, top, UniversalHash::Draw(rng, range),
                          /*id_bits=*/32);
}

TEST(HashedMisraGriesTest, TracksTopTrueIds) {
  auto t = Make(32, 3, 1);
  // Three clear heavies plus noise.
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) t.Insert(100);
  for (int i = 0; i < 2000; ++i) t.Insert(200);
  for (int i = 0; i < 1000; ++i) t.Insert(300);
  for (int i = 0; i < 500; ++i) t.Insert(rng.UniformU64(1 << 30));
  const auto top = t.TopEntries();
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].item, 100u);
  EXPECT_EQ(top[1].item, 200u);
  EXPECT_EQ(top[2].item, 300u);
}

TEST(HashedMisraGriesTest, TopCapacityRespected) {
  auto t = Make(64, 2, 3);
  for (uint64_t x = 0; x < 10; ++x) {
    for (int c = 0; c < 100; ++c) t.Insert(x);
  }
  EXPECT_LE(t.TopEntries().size(), 2u);
}

TEST(HashedMisraGriesTest, LateRiserDisplacesWeaker) {
  auto t = Make(32, 1, 4);
  for (int i = 0; i < 100; ++i) t.Insert(1);
  for (int i = 0; i < 500; ++i) t.Insert(2);  // overtakes item 1
  const auto top = t.TopEntries();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].item, 2u);
}

TEST(HashedMisraGriesTest, EstimateByHashMatchesInnerTable) {
  auto t = Make(16, 4, 5);
  for (int i = 0; i < 77; ++i) t.Insert(9);
  EXPECT_EQ(t.EstimateByHash(9), 77u);
}

TEST(HashedMisraGriesTest, CountsTrackTruthOnPlantedStream) {
  const PlantedSpec spec{{0.3, 0.2}, 1 << 20, 20000};
  const PlantedStream s = MakePlantedStream(spec, 6);
  auto t = Make(64, 4, 7, 1 << 24);
  ExactCounter exact;
  for (const uint64_t x : s.items) {
    t.Insert(x);
    exact.Insert(x);
  }
  for (const auto& e : t.TopEntries()) {
    // MG undercounts by at most m/(k+1); hashing adds nothing unless a
    // collision occurred (improbable at this range).
    EXPECT_LE(e.count, exact.Count(e.item) + 1);
    EXPECT_GE(e.count + 20000 / 65 + 1, exact.Count(e.item));
  }
}

TEST(HashedMisraGriesTest, SerializeRoundTrip) {
  auto t = Make(16, 3, 8);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) t.Insert(rng.UniformU64(50));
  BitWriter w;
  t.Serialize(w);
  BitReader r(w);
  const HashedMisraGries t2 =
      HashedMisraGries::Deserialize(r, t.table().k());
  const auto top1 = t.TopEntries();
  const auto top2 = t2.TopEntries();
  ASSERT_EQ(top1.size(), top2.size());
  for (size_t i = 0; i < top1.size(); ++i) {
    EXPECT_EQ(top1[i].item, top2[i].item);
    EXPECT_EQ(top1[i].count, top2[i].count);
  }
  for (uint64_t x = 0; x < 50; ++x) {
    EXPECT_EQ(t.EstimateByHash(x), t2.EstimateByHash(x));
  }
}

TEST(HashedMisraGriesTest, SpaceBitsChargesTopIdsAtLogN) {
  auto small = Make(16, 2, 10);
  auto large = Make(16, 20, 10);
  // T2 is charged id_bits per slot regardless of content.
  EXPECT_GT(large.SpaceBits(), small.SpaceBits());
  EXPECT_EQ(large.SpaceBits() - small.SpaceBits(), 18u * 32u);
}

}  // namespace
}  // namespace l1hh
