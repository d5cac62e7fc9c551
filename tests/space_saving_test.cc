#include "summary/space_saving.h"

#include <gtest/gtest.h>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "util/random.h"

namespace l1hh {
namespace {

// The Space-Saving guarantee: f(x) <= Estimate(x) <= f(x) + MinCount,
// with MinCount <= m/k.
TEST(SpaceSavingTest, OverestimateGuarantee) {
  Rng rng(1);
  const size_t k = 20;
  SpaceSaving ss(k);
  ExactCounter exact;
  const uint64_t m = 100000;
  for (uint64_t i = 0; i < m; ++i) {
    const uint64_t x = rng.UniformU64(rng.UniformU64(500) + 1);
    ss.Insert(x);
    exact.Insert(x);
  }
  EXPECT_LE(ss.MinCount(), m / k + 1);
  for (const auto& e : ss.Entries()) {
    const uint64_t truth = exact.Count(e.item);
    EXPECT_GE(e.count, truth);
    EXPECT_LE(e.count - truth, ss.MinCount());
  }
}

TEST(SpaceSavingTest, HeavyItemsAlwaysTracked) {
  const PlantedSpec spec{{0.4, 0.2, 0.1}, 1 << 16, 40000};
  const PlantedStream s = MakePlantedStream(spec, 3);
  SpaceSaving ss(16);
  for (const uint64_t x : s.items) ss.Insert(x);
  for (size_t i = 0; i < s.planted_ids.size(); ++i) {
    EXPECT_GE(ss.Estimate(s.planted_ids[i]), s.planted_counts[i]);
  }
}

TEST(SpaceSavingTest, ExactWhenUniverseFits) {
  SpaceSaving ss(10);
  for (uint64_t x = 0; x < 5; ++x) {
    for (uint64_t c = 0; c <= 2 * x; ++c) ss.Insert(x);
  }
  for (uint64_t x = 0; x < 5; ++x) {
    EXPECT_EQ(ss.Estimate(x), 2 * x + 1);
  }
  EXPECT_EQ(ss.MinCount(), 0u);  // never filled
}

TEST(SpaceSavingTest, CountsSumToStreamLength) {
  // Invariant: sum of all counters == number of insertions.
  Rng rng(2);
  SpaceSaving ss(8);
  const uint64_t m = 50000;
  for (uint64_t i = 0; i < m; ++i) ss.Insert(rng.UniformU64(300));
  uint64_t total = 0;
  for (const auto& e : ss.Entries()) total += e.count;
  EXPECT_EQ(total, m);
}

TEST(SpaceSavingTest, SerializeRoundTrip) {
  Rng rng(3);
  SpaceSaving ss(12, 24);
  for (int i = 0; i < 30000; ++i) ss.Insert(rng.UniformU64(150));
  BitWriter w;
  ss.Serialize(w);
  BitReader r(w);
  const SpaceSaving ss2 = SpaceSaving::Deserialize(r, ss.k());
  for (uint64_t x = 0; x < 150; ++x) {
    EXPECT_EQ(ss2.Estimate(x), ss.Estimate(x));
  }
}

TEST(SpaceSavingTest, EntriesAbove) {
  SpaceSaving ss(8);
  for (int i = 0; i < 100; ++i) ss.Insert(1);
  for (int i = 0; i < 10; ++i) ss.Insert(2);
  EXPECT_EQ(ss.EntriesAbove(50).size(), 1u);
  EXPECT_EQ(ss.EntriesAbove(5).size(), 2u);
}

class SpaceSavingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpaceSavingSweep, GuaranteeAcrossSkew) {
  const double alpha = GetParam();
  const uint64_t m = 60000;
  const size_t k = 32;
  const auto stream = MakeZipfStream(1 << 14, alpha, m, 41);
  SpaceSaving ss(k);
  ExactCounter exact;
  for (const uint64_t x : stream) {
    ss.Insert(x);
    exact.Insert(x);
  }
  for (const auto& e : ss.Entries()) {
    EXPECT_GE(e.count, exact.Count(e.item));
    EXPECT_LE(e.count - exact.Count(e.item), m / k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, SpaceSavingSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace l1hh
