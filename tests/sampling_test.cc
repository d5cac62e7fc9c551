#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "sampling/coin_flip_sampler.h"
#include "sampling/geometric_skip.h"
#include "sampling/reservoir_sampler.h"

namespace l1hh {
namespace {

TEST(CoinFlipSamplerTest, AcceptanceRateMatchesExponent) {
  // Lemma 1: accept with probability exactly 2^-k.
  Rng rng(1);
  for (int k : {1, 4, 7}) {
    const auto s = CoinFlipSampler::FromExponent(k);
    const int n = 400000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (s.Sample(rng)) ++hits;
    }
    const double expected = std::ldexp(n, -k);
    EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected));
  }
}

TEST(CoinFlipSamplerTest, FromProbabilityRoundsDownToPow2) {
  // Footnote 3: probability 0.3 becomes 1/4.
  const auto s = CoinFlipSampler::FromProbability(0.3);
  EXPECT_EQ(s.exponent(), 2);
  EXPECT_DOUBLE_EQ(s.probability(), 0.25);
}

TEST(CoinFlipSamplerTest, SpaceIsLogLog) {
  // Proposition 2: the sampler state is the exponent, O(log k) bits, i.e.
  // O(log log m) for p = 1/m.
  const auto s = CoinFlipSampler::FromProbability(1.0 / (1 << 30));
  EXPECT_EQ(s.exponent(), 30);
  EXPECT_LE(s.SpaceBits(), 6);
}

TEST(CoinFlipSamplerTest, RandomnessBudget) {
  // One trial at probability 2^-k consumes at most ceil(k/64) words.
  Rng rng(2);
  const auto s = CoinFlipSampler::FromExponent(10);
  const uint64_t before = rng.words_drawn();
  s.Sample(rng);
  EXPECT_LE(rng.words_drawn() - before, 1u);
}

TEST(CoinFlipSamplerTest, SerializeRoundTrip) {
  const auto s = CoinFlipSampler::FromExponent(13);
  BitWriter w;
  s.Serialize(w);
  BitReader r(w);
  CoinFlipSampler s2;
  s2.Deserialize(r);
  EXPECT_EQ(s2.exponent(), 13);
}

TEST(GeometricSkipTest, LongRunRateMatchesProbability) {
  Rng rng(3);
  for (int k : {1, 3, 6}) {
    auto s = GeometricSkipSampler::FromExponent(k, rng);
    const int n = 400000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (s.Offer(rng)) ++hits;
    }
    const double expected = std::ldexp(n, -k);
    EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected));
  }
}

TEST(GeometricSkipTest, GapsAreGeometric) {
  Rng rng(4);
  auto s = GeometricSkipSampler::FromExponent(4, rng);  // p = 1/16
  std::vector<int> gaps;
  int gap = 0;
  for (int i = 0; i < 200000; ++i) {
    if (s.Offer(rng)) {
      gaps.push_back(gap);
      gap = 0;
    } else {
      ++gap;
    }
  }
  double mean = 0;
  for (const int g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  // E[failures between successes] = (1-p)/p = 15.
  EXPECT_NEAR(mean, 15.0, 0.5);
}

TEST(GeometricSkipTest, ProbabilityOneSamplesEverything) {
  Rng rng(5);
  auto s = GeometricSkipSampler::FromProbability(1.0, rng);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(s.Offer(rng));
}

TEST(GeometricSkipTest, SerializeRoundTripPreservesSkip) {
  Rng rng(6);
  auto s = GeometricSkipSampler::FromExponent(5, rng);
  for (int i = 0; i < 17; ++i) s.Offer(rng);
  BitWriter w;
  s.Serialize(w);
  BitReader r(w);
  GeometricSkipSampler s2;
  s2.Deserialize(r);
  EXPECT_EQ(s2.exponent(), s.exponent());
  // Both must agree on the next accepted offer position.
  Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.Offer(rng_a), s2.Offer(rng_b));
  }
}

// NextSuccessWithin(n) is n Offer() calls folded into one: the same
// success positions and the same random draws, in any chunking.
TEST(GeometricSkipTest, NextSuccessWithinMatchesOfferSequence) {
  for (int k : {0, 2, 5}) {
    Rng rng_a(8), rng_b(8);
    auto a = GeometricSkipSampler::FromExponent(k, rng_a);
    auto b = GeometricSkipSampler::FromExponent(k, rng_b);
    std::vector<uint64_t> by_offer, by_chunk;
    const uint64_t total = 20000;
    for (uint64_t i = 0; i < total; ++i) {
      if (a.Offer(rng_a)) by_offer.push_back(i);
    }
    uint64_t pos = 0;
    for (uint64_t chunk = 1; pos < total; chunk = chunk % 37 + 1) {
      const uint64_t n = std::min(chunk, total - pos);
      uint64_t j = b.NextSuccessWithin(n, rng_b);
      while (j < n) {
        by_chunk.push_back(pos + j);
        j += 1 + b.NextSuccessWithin(n - j - 1, rng_b);
      }
      pos += n;
    }
    EXPECT_EQ(by_offer, by_chunk) << "k=" << k;
    EXPECT_EQ(rng_a.words_drawn(), rng_b.words_drawn()) << "k=" << k;
  }
}

// The sampler caches log1p(-p); its gaps must still be exactly
// Rng::Geometric(p)'s draws, so every sampler keeps its random sequence.
TEST(GeometricSkipTest, GapsAreExactlyRngGeometricDraws) {
  for (int k : {1, 5, 20}) {
    Rng sampler_rng(9), reference_rng(9);
    auto s = GeometricSkipSampler::FromExponent(k, sampler_rng);
    for (int i = 0; i < 200; ++i) {
      const uint64_t gap = reference_rng.Geometric(std::ldexp(1.0, -k));
      EXPECT_EQ(s.NextSuccessWithin(gap, sampler_rng), gap) << "k=" << k;
      EXPECT_EQ(s.NextSuccessWithin(1, sampler_rng), 0u) << "k=" << k;
    }
    EXPECT_EQ(sampler_rng.words_drawn(), reference_rng.words_drawn() + 1);
  }
}

TEST(ReservoirSamplerTest, HoldsAtMostCapacity) {
  ReservoirSampler s(10, 8);
  for (uint64_t i = 0; i < 1000; ++i) s.Offer(i);
  EXPECT_EQ(s.sample().size(), 10u);
  EXPECT_EQ(s.items_seen(), 1000u);
}

TEST(ReservoirSamplerTest, KeepsAllWhenUnderCapacity) {
  ReservoirSampler s(100, 9);
  for (uint64_t i = 0; i < 50; ++i) s.Offer(i);
  EXPECT_EQ(s.sample().size(), 50u);
}

TEST(ReservoirSamplerTest, UniformInclusion) {
  // Every item should appear with probability capacity/n.
  const int trials = 2000;
  const uint64_t n = 100;
  const size_t capacity = 10;
  std::unordered_map<uint64_t, int> inclusion;
  for (int t = 0; t < trials; ++t) {
    ReservoirSampler s(capacity, 1000 + t);
    for (uint64_t i = 0; i < n; ++i) s.Offer(i);
    for (const uint64_t v : s.sample()) ++inclusion[v];
  }
  const double expected = trials * static_cast<double>(capacity) / n;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(inclusion[i], expected, 6 * std::sqrt(expected));
  }
}

// Parameterized acceptance-rate sweep for the geometric-skip sampler.
class SkipRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkipRateSweep, RateWithinTolerance) {
  const int k = GetParam();
  Rng rng(100 + k);
  auto s = GeometricSkipSampler::FromExponent(k, rng);
  const int n = 1 << 19;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (s.Offer(rng)) ++hits;
  }
  const double expected = std::ldexp(n, -k);
  EXPECT_NEAR(hits, expected, 6 * std::sqrt(expected) + 2);
}

INSTANTIATE_TEST_SUITE_P(Exponents, SkipRateSweep,
                         ::testing::Values(0, 1, 2, 4, 8, 12));

}  // namespace
}  // namespace l1hh
