#include "core/epsilon_maximum.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/stream_generator.h"
#include "summary/exact_counter.h"

namespace l1hh {
namespace {

EpsilonMaximum::Options MakeOptions(double eps, uint64_t m,
                                    uint64_t n = uint64_t{1} << 24) {
  EpsilonMaximum::Options opt;
  opt.epsilon = eps;
  opt.delta = 0.1;
  opt.universe_size = n;
  opt.stream_length = m;
  return opt;
}

TEST(EpsilonMaximumTest, FindsClearMaximum) {
  const uint64_t m = 40000;
  const PlantedSpec spec{{0.4, 0.2}, 1 << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 1);
  EpsilonMaximum sketch(MakeOptions(0.05, m), 2);
  for (const uint64_t x : s.items) sketch.Insert(x);
  const HeavyHitter hh = sketch.Report();
  EXPECT_EQ(hh.item, s.planted_ids[0]);
  EXPECT_NEAR(hh.estimated_fraction, 0.4, 0.05);
}

// The Definition 4 guarantee: estimated max within eps*m of the true max.
TEST(EpsilonMaximumTest, MaxFrequencyWithinEpsM) {
  const double eps = 0.02;
  const uint64_t m = 60000;
  int failures = 0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    const auto stream = MakeZipfStream(1 << 14, 1.2, m, 100 + t);
    EpsilonMaximum sketch(MakeOptions(eps, m), 200 + t);
    ExactCounter exact;
    for (const uint64_t x : stream) {
      sketch.Insert(x);
      exact.Insert(x);
    }
    const double est = sketch.EstimateMaxCount();
    const double truth = static_cast<double>(exact.Max().count);
    if (std::abs(est - truth) > eps * static_cast<double>(m)) ++failures;
  }
  EXPECT_LE(failures, 3);
}

// The same guarantee when the stream is shorter or longer than the
// configured m: the estimate scales by the items processed, so it stays
// within eps*n of the true max at n = m/4 and n = 4m.
TEST(EpsilonMaximumTest, MaxFrequencyWithinEpsNWhenLengthIsNotM) {
  const double eps = 0.02;
  const uint64_t m = 40000;
  for (const uint64_t n : {m / 4, 4 * m}) {
    int failures = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      const auto stream = MakeZipfStream(1 << 14, 1.2, n, 700 + t);
      EpsilonMaximum sketch(MakeOptions(eps, m), 800 + t);
      ExactCounter exact;
      for (const uint64_t x : stream) {
        sketch.Insert(x);
        exact.Insert(x);
      }
      const double est = sketch.EstimateMaxCount();
      const double truth = static_cast<double>(exact.Max().count);
      if (std::abs(est - truth) > eps * static_cast<double>(n)) ++failures;
    }
    EXPECT_LE(failures, 2) << "n = " << n;
  }
}

TEST(EpsilonMaximumTest, ReturnedItemIsNearMaximal) {
  // The returned item's true frequency must be within eps*m of the max
  // (the epsilon-winner condition of [DB15]).
  const double eps = 0.03;
  const uint64_t m = 50000;
  int failures = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const auto stream = MakeZipfStream(1 << 12, 1.0, m, 400 + t);
    EpsilonMaximum sketch(MakeOptions(eps, m), 500 + t);
    ExactCounter exact;
    for (const uint64_t x : stream) {
      sketch.Insert(x);
      exact.Insert(x);
    }
    const HeavyHitter hh = sketch.Report();
    const double truth_max = static_cast<double>(exact.Max().count);
    const double mine = static_cast<double>(exact.Count(hh.item));
    if (truth_max - mine > eps * static_cast<double>(m)) ++failures;
  }
  EXPECT_LE(failures, 3);
}

TEST(EpsilonMaximumTest, TieStreamReturnsSomeTopItem) {
  const uint64_t m = 30000;
  EpsilonMaximum sketch(MakeOptions(0.05, m), 7);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(i % 2);
  const HeavyHitter hh = sketch.Report();
  EXPECT_LE(hh.item, 1u);
  EXPECT_NEAR(hh.estimated_fraction, 0.5, 0.05);
}

TEST(EpsilonMaximumTest, SmallUniverseUsesExactTable) {
  // n < 1/eps: the table never decrements, counts are exact samples.
  const uint64_t m = 20000;
  EpsilonMaximum sketch(MakeOptions(0.01, m, /*n=*/16), 9);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(i % 16 == 0 ? 3 : i % 16);
  const HeavyHitter hh = sketch.Report();
  EXPECT_EQ(hh.item, 3u);  // doubled frequency
}

TEST(EpsilonMaximumTest, EmptyStreamReportsZero) {
  EpsilonMaximum sketch(MakeOptions(0.1, 1000), 11);
  const HeavyHitter hh = sketch.Report();
  EXPECT_DOUBLE_EQ(hh.estimated_count, 0.0);
}

TEST(EpsilonMaximumTest, SerializeRoundTripAndResume) {
  const uint64_t m = 20000;
  EpsilonMaximum alice(MakeOptions(0.05, m), 13);
  for (uint64_t i = 0; i < m / 2; ++i) alice.Insert(i % 5);
  BitWriter w;
  alice.Serialize(w);
  BitReader r(w);
  EpsilonMaximum bob = EpsilonMaximum::Deserialize(r, alice.options(), 15);
  for (uint64_t i = 0; i < m / 2; ++i) bob.Insert(99);  // new clear max
  EXPECT_EQ(bob.Report().item, 99u);
}

TEST(EpsilonMaximumTest, SpaceSmallerThanListVariant) {
  // Theorem 3 drops the phi^-1 log n term; the max-tracker holds one id.
  const uint64_t m = 1 << 18;
  EpsilonMaximum sketch(MakeOptions(0.01, m), 17);
  Rng rng(19);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(rng.UniformU64(1 << 20));
  // Sanity bound: well under MG-with-ids territory.
  EXPECT_LT(sketch.SpaceBits(), 60000u);
}

}  // namespace
}  // namespace l1hh
