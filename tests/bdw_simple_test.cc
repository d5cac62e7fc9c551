#include "core/bdw_simple.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"

namespace l1hh {
namespace {

BdwSimple::Options MakeOptions(double eps, double phi, uint64_t m,
                               uint64_t n = uint64_t{1} << 24) {
  BdwSimple::Options opt;
  opt.epsilon = eps;
  opt.phi = phi;
  opt.delta = 0.1;
  opt.universe_size = n;
  opt.stream_length = m;
  return opt;
}

TEST(BdwSimpleTest, OptionsValidate) {
  EXPECT_TRUE(MakeOptions(0.01, 0.05, 1000).Validate().ok());
  EXPECT_FALSE(MakeOptions(0.0, 0.05, 1000).Validate().ok());
  EXPECT_FALSE(MakeOptions(0.1, 0.05, 1000).Validate().ok());  // eps >= phi
  EXPECT_FALSE(MakeOptions(0.01, 0.05, 0).Validate().ok());
}

// Definition 1's contract, checked over independent trials: every phi-heavy
// item reported, nothing below (phi-eps)m reported, and |est - f| <= eps*m.
TEST(BdwSimpleTest, HeavyHitterContractOnPlantedStream) {
  const double eps = 0.02, phi = 0.1;
  const uint64_t m = 60000;
  int contract_failures = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    // Heavies at phi*m and 2*phi*m; decoys safely below (phi-eps)m.
    const PlantedSpec spec{{2 * phi, phi, phi - 2 * eps}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 100 + t);
    BdwSimple sketch(MakeOptions(eps, phi, m), 900 + t);
    ExactCounter exact;
    for (const uint64_t x : s.items) {
      sketch.Insert(x);
      exact.Insert(x);
    }
    bool ok = true;
    const auto report = sketch.Report();
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : report) {
      reported.insert(hh.item);
      // No false positives below (phi - eps) m.
      if (exact.Count(hh.item) <= static_cast<uint64_t>((phi - eps) * m)) {
        ok = false;
      }
      // Estimates within eps*m.
      if (std::abs(hh.estimated_count -
                   static_cast<double>(exact.Count(hh.item))) >
          eps * static_cast<double>(m)) {
        ok = false;
      }
    }
    // Both planted heavies (f >= phi*m) must be present.
    if (reported.count(s.planted_ids[0]) == 0) ok = false;
    if (reported.count(s.planted_ids[1]) == 0) ok = false;
    if (!ok) ++contract_failures;
  }
  // delta = 0.1; allow a small-sample margin.
  EXPECT_LE(contract_failures, 4);
}

TEST(BdwSimpleTest, NoFalsePositivesOnUniformStream) {
  const double eps = 0.05, phi = 0.2;
  const uint64_t m = 40000;
  // Uniform over 1000 items: max frequency ~ m/1000 << (phi-eps)m.
  const auto stream = MakeUniformStream(1000, m, 3);
  BdwSimple sketch(MakeOptions(eps, phi, m), 17);
  for (const uint64_t x : stream) sketch.Insert(x);
  EXPECT_TRUE(sketch.Report().empty());
}

TEST(BdwSimpleTest, SingleItemStreamIsTheHeavyHitter) {
  const uint64_t m = 20000;
  BdwSimple sketch(MakeOptions(0.05, 0.5, m), 5);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(1234);
  const auto report = sketch.Report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].item, 1234u);
  EXPECT_NEAR(report[0].estimated_fraction, 1.0, 0.05);
}

TEST(BdwSimpleTest, AdversarialOrdersDoNotBreakContract) {
  const double eps = 0.04, phi = 0.15;
  const uint64_t m = 50000;
  for (const StreamOrder order :
       {StreamOrder::kHeaviesFirst, StreamOrder::kHeaviesLast,
        StreamOrder::kBursty}) {
    PlantedSpec spec{{0.3, 0.2}, 1 << 24, m};
    spec.order = order;
    const PlantedStream s = MakePlantedStream(spec, 77);
    BdwSimple sketch(MakeOptions(eps, phi, m), 23);
    for (const uint64_t x : s.items) sketch.Insert(x);
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : sketch.Report()) reported.insert(hh.item);
    EXPECT_TRUE(reported.count(s.planted_ids[0]) == 1)
        << "order " << static_cast<int>(order);
    EXPECT_TRUE(reported.count(s.planted_ids[1]) == 1)
        << "order " << static_cast<int>(order);
  }
}

TEST(BdwSimpleTest, ShortStreamSamplesEverything) {
  // m below the sample budget: p = 1, sketch is exact-ish.
  const uint64_t m = 200;
  BdwSimple sketch(MakeOptions(0.1, 0.4, m), 7);
  for (uint64_t i = 0; i < m / 2; ++i) sketch.Insert(1);
  for (uint64_t i = 0; i < m / 2; ++i) sketch.Insert(2);
  EXPECT_EQ(sketch.samples_taken(), m);
  const auto report = sketch.Report();
  EXPECT_EQ(report.size(), 2u);
}

TEST(BdwSimpleTest, SpaceBitsSublinearInStream) {
  const uint64_t m = 1 << 20;
  BdwSimple sketch(MakeOptions(0.01, 0.05, m), 9);
  Rng rng(10);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(rng.UniformU64(1 << 20));
  // Space must be tiny compared to the stream (this is the whole point).
  EXPECT_LT(sketch.SpaceBits(), 200000u);
  EXPECT_GT(sketch.SpaceBits(), 100u);
}

TEST(BdwSimpleTest, SerializeRoundTripAndResume) {
  const uint64_t m = 30000;
  BdwSimple alice(MakeOptions(0.05, 0.2, m), 13);
  for (uint64_t i = 0; i < m / 2; ++i) alice.Insert(42);
  BitWriter w;
  alice.Serialize(w);
  BitReader r(w);
  BdwSimple bob = BdwSimple::Deserialize(r, alice.options(), 14);
  EXPECT_EQ(bob.samples_taken(), alice.samples_taken());
  for (uint64_t i = 0; i < m / 2; ++i) bob.Insert(42);
  const auto report = bob.Report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].item, 42u);
}

TEST(BdwSimpleTest, TopKOrderedAndBounded) {
  const uint64_t m = 40000;
  const PlantedSpec spec{{0.3, 0.2, 0.1}, 1 << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 33);
  BdwSimple sketch(MakeOptions(0.02, 0.08, m), 34);
  for (const uint64_t x : s.items) sketch.Insert(x);
  const auto top2 = sketch.TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].item, s.planted_ids[0]);
  EXPECT_EQ(top2[1].item, s.planted_ids[1]);
  EXPECT_GE(top2[0].estimated_count, top2[1].estimated_count);
  EXPECT_LE(sketch.TopK(1000).size(), 1000u);
}

TEST(BdwSimpleTest, EstimateCountTracksTruth) {
  const uint64_t m = 50000;
  BdwSimple sketch(MakeOptions(0.02, 0.1, m), 19);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(i % 4);  // each 25%
  for (uint64_t x = 0; x < 4; ++x) {
    EXPECT_NEAR(sketch.EstimateCount(x), m / 4.0, 0.02 * m);
  }
}

TEST(BdwSimpleTest, PaperConstantsAlsoWork) {
  // Structural smoke test with the literal paper constants (huge tables).
  BdwSimple::Options opt = MakeOptions(0.1, 0.3, 10000);
  opt.constants = Constants::Paper();
  BdwSimple sketch(opt, 21);
  for (uint64_t i = 0; i < 10000; ++i) sketch.Insert(i % 3);
  const auto report = sketch.Report();
  EXPECT_EQ(report.size(), 3u);  // all three at 33% > phi
}

// Sweep the (eps, phi) grid: recall of must-report items must hold with
// at most delta failures.
struct GridParam {
  double eps;
  double phi;
};

class BdwSimpleGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(BdwSimpleGrid, RecallHolds) {
  const auto [eps, phi] = GetParam();
  const uint64_t m = 40000;
  int failures = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const PlantedSpec spec{{phi * 1.5, phi * 1.1}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 1000 + t);
    BdwSimple sketch(MakeOptions(eps, phi, m), 2000 + t);
    for (const uint64_t x : s.items) sketch.Insert(x);
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : sketch.Report()) reported.insert(hh.item);
    if (reported.count(s.planted_ids[0]) == 0 ||
        reported.count(s.planted_ids[1]) == 0) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 2);
}

// Note: the two planted items use 1.5*phi + 1.1*phi = 2.6*phi of the
// stream, so phi must stay below ~0.35 for the spec to be satisfiable.
INSTANTIATE_TEST_SUITE_P(Grid, BdwSimpleGrid,
                         ::testing::Values(GridParam{0.01, 0.05},
                                           GridParam{0.02, 0.1},
                                           GridParam{0.05, 0.2},
                                           GridParam{0.1, 0.3},
                                           GridParam{0.03, 0.15}));

}  // namespace
}  // namespace l1hh
