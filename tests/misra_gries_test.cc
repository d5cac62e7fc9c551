#include "summary/misra_gries.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "util/random.h"

namespace l1hh {
namespace {

TEST(MisraGriesTest, ExactWhenUniverseFits) {
  MisraGries mg(10);
  for (int rep = 0; rep < 7; ++rep) {
    for (uint64_t x = 0; x < 5; ++x) {
      for (uint64_t c = 0; c <= x; ++c) mg.Insert(x);
    }
  }
  for (uint64_t x = 0; x < 5; ++x) {
    EXPECT_EQ(mg.Estimate(x), 7 * (x + 1));
  }
  EXPECT_EQ(mg.ErrorBound(), 0u);
}

// The deterministic Misra-Gries guarantee:
//   f(x) - m/(k+1) <= Estimate(x) <= f(x).
TEST(MisraGriesTest, DeterministicGuarantee) {
  Rng rng(1);
  const size_t k = 20;
  MisraGries mg(k);
  ExactCounter exact;
  const uint64_t m = 100000;
  for (uint64_t i = 0; i < m; ++i) {
    // Skewed-ish stream.
    const uint64_t x = rng.UniformU64(rng.UniformU64(1000) + 1);
    mg.Insert(x);
    exact.Insert(x);
  }
  for (uint64_t x = 0; x < 1000; ++x) {
    const uint64_t est = mg.Estimate(x);
    const uint64_t truth = exact.Count(x);
    EXPECT_LE(est, truth);
    EXPECT_LE(truth - est, m / (k + 1) + 1);
  }
}

TEST(MisraGriesTest, AllHeavyItemsSurvive) {
  // Any item with f > m/(k+1) must be tracked.
  const PlantedSpec spec{
      {0.3, 0.2, 0.1}, /*universe=*/1 << 16, /*length=*/50000};
  const PlantedStream s = MakePlantedStream(spec, 7);
  MisraGries mg(20);
  for (const uint64_t x : s.items) mg.Insert(x);
  for (size_t i = 0; i < s.planted_ids.size(); ++i) {
    EXPECT_GT(mg.Estimate(s.planted_ids[i]), 0u)
        << "planted item " << i << " lost";
  }
}

TEST(MisraGriesTest, TracksAtMostKItems) {
  Rng rng(2);
  MisraGries mg(5);
  for (int i = 0; i < 10000; ++i) mg.Insert(rng.UniformU64(1000));
  EXPECT_LE(mg.tracked(), 5u);
  EXPECT_LE(mg.Entries().size(), 5u);
}

TEST(MisraGriesTest, EntriesSortedDescending) {
  MisraGries mg(8);
  for (int c = 0; c < 5; ++c) mg.Insert(1);
  for (int c = 0; c < 9; ++c) mg.Insert(2);
  for (int c = 0; c < 2; ++c) mg.Insert(3);
  const auto entries = mg.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].item, 2u);
  EXPECT_EQ(entries[1].item, 1u);
  EXPECT_EQ(entries[2].item, 3u);
}

TEST(MisraGriesTest, EntriesAboveThreshold) {
  MisraGries mg(8);
  for (int c = 0; c < 10; ++c) mg.Insert(1);
  for (int c = 0; c < 3; ++c) mg.Insert(2);
  EXPECT_EQ(mg.EntriesAbove(5).size(), 1u);
  EXPECT_EQ(mg.EntriesAbove(1).size(), 2u);
  EXPECT_EQ(mg.EntriesAbove(11).size(), 0u);
}

TEST(MisraGriesTest, MergePreservesGuarantee) {
  Rng rng(3);
  const size_t k = 15;
  MisraGries a(k), b(k);
  ExactCounter exact;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t x = rng.UniformU64(rng.UniformU64(200) + 1);
    a.Insert(x);
    exact.Insert(x);
  }
  for (int i = 0; i < 30000; ++i) {
    const uint64_t x = rng.UniformU64(rng.UniformU64(200) + 1);
    b.Insert(x);
    exact.Insert(x);
  }
  const MisraGries merged = MisraGries::Merge(a, b);
  const uint64_t m = 60000;
  EXPECT_LE(merged.tracked(), k);
  for (uint64_t x = 0; x < 200; ++x) {
    const uint64_t est = merged.Estimate(x);
    const uint64_t truth = exact.Count(x);
    EXPECT_LE(est, truth);
    // Merged error <= m_a/(k+1) + m_b/(k+1) + (k+1)-th largest <= 2m/(k+1).
    EXPECT_LE(truth - est, 2 * m / (k + 1) + 2);
  }
}

// A merged summary's ErrorBound covers its undercount (the two inputs'
// decrements plus the merge cut) and keeps the (n_a + n_b)/(k+1) bound,
// also when a merged summary is merged again.
TEST(MisraGriesTest, MergedErrorBoundCoversEveryUndercount) {
  const size_t k = 8;
  const uint64_t m = 20000;
  const auto stream = MakeZipfStream(1 << 12, 1.1, 3 * m, /*seed=*/17);
  MisraGries a(k), b(k), c(k);
  ExactCounter exact_ab;
  ExactCounter exact_abc;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    MisraGries& part = i < m ? a : (i < 2 * m ? b : c);
    part.Insert(stream[i]);
    if (i < 2 * m) exact_ab.Insert(stream[i]);
    exact_abc.Insert(stream[i]);
  }
  const MisraGries ab = MisraGries::Merge(a, b);
  const MisraGries abc = MisraGries::Merge(ab, c);
  EXPECT_GT(ab.ErrorBound(), 0u);
  EXPECT_LE(ab.ErrorBound(), 2 * m / (k + 1));
  EXPECT_LE(abc.ErrorBound(), 3 * m / (k + 1));
  for (const uint64_t x : stream) {
    EXPECT_LE(ab.Estimate(x), exact_ab.Count(x));
    EXPECT_LE(exact_ab.Count(x) - ab.Estimate(x), ab.ErrorBound()) << x;
    EXPECT_LE(abc.Estimate(x), exact_abc.Count(x));
    EXPECT_LE(exact_abc.Count(x) - abc.Estimate(x), abc.ErrorBound()) << x;
  }
}

TEST(MisraGriesTest, SerializeRoundTrip) {
  Rng rng(4);
  MisraGries mg(12, 20);
  for (int i = 0; i < 20000; ++i) mg.Insert(rng.UniformU64(100));
  BitWriter w;
  mg.Serialize(w);
  BitReader r(w);
  const MisraGries mg2 = MisraGries::Deserialize(r, mg.k());
  EXPECT_EQ(mg2.items_processed(), mg.items_processed());
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(mg2.Estimate(x), mg.Estimate(x));
  }
}

TEST(MisraGriesTest, SingleItemStream) {
  MisraGries mg(4);
  for (int i = 0; i < 1000; ++i) mg.Insert(42);
  EXPECT_EQ(mg.Estimate(42), 1000u);
}

TEST(MisraGriesTest, KOne) {
  // Boyer-Moore majority with a single counter.
  MisraGries mg(1);
  for (int i = 0; i < 60; ++i) mg.Insert(1);
  for (int i = 0; i < 40; ++i) mg.Insert(2);
  EXPECT_GT(mg.Estimate(1), 0u);  // majority survives
  EXPECT_EQ(mg.Estimate(2), 0u);
}

// Property sweep over k and distribution skew.
struct MgSweepParam {
  size_t k;
  double zipf_alpha;
};

class MgGuaranteeSweep : public ::testing::TestWithParam<MgSweepParam> {};

TEST_P(MgGuaranteeSweep, GuaranteeHolds) {
  const auto [k, alpha] = GetParam();
  const uint64_t m = 60000;
  const auto stream = MakeZipfStream(1 << 14, alpha, m, 17 + k);
  MisraGries mg(k);
  ExactCounter exact;
  for (const uint64_t x : stream) {
    mg.Insert(x);
    exact.Insert(x);
  }
  for (const auto& e : exact.SortedByCountDesc()) {
    const uint64_t est = mg.Estimate(e.item);
    EXPECT_LE(est, e.count);
    EXPECT_LE(e.count - est, m / (k + 1) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MgGuaranteeSweep,
    ::testing::Values(MgSweepParam{5, 0.8}, MgSweepParam{5, 1.2},
                      MgSweepParam{20, 0.0}, MgSweepParam{20, 1.5},
                      MgSweepParam{100, 1.0}, MgSweepParam{100, 2.0}));

}  // namespace
}  // namespace l1hh
