// Cross-module property tests: invariants that tie different components
// together, checked over randomized instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/bdw_optimal.h"
#include "core/bdw_simple.h"
#include "core/unknown_length.h"
#include "stream/stream_generator.h"
#include "stream/vote_generator.h"
#include "summary/exact_counter.h"
#include "summary/misra_gries.h"
#include "summary/space_saving.h"
#include "votes/election.h"

namespace l1hh {
namespace {

// Truth is bracketed by the two deterministic summaries:
// MG(x) <= f(x) <= SS(x) for tracked x (same k, same stream).
TEST(PropertiesTest, MisraGriesAndSpaceSavingBracketTruth) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t k = 16 + 8 * trial;
    MisraGries mg(k);
    SpaceSaving ss(k);
    ExactCounter exact;
    const auto stream =
        MakeZipfStream(1 << 12, 0.7 + 0.2 * trial, 40000, 10 + trial);
    for (const uint64_t x : stream) {
      mg.Insert(x);
      ss.Insert(x);
      exact.Insert(x);
    }
    for (const auto& e : ss.Entries()) {
      const uint64_t truth = exact.Count(e.item);
      EXPECT_LE(mg.Estimate(e.item), truth);
      EXPECT_GE(e.count, truth);
    }
  }
}

// Election identities: Borda(i) = sum_j Pairwise(i,j);
// maximin(i) >= plurality(i); maximin(i)*(n-1) <= Borda(i).
TEST(PropertiesTest, ElectionScoreIdentities) {
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = 4 + trial;
    Election e(n);
    const auto votes = MakeMallowsVotes(n, 500, 0.3 + 0.08 * trial,
                                        20 + trial);
    for (const auto& v : votes) e.AddVote(v);
    const auto borda = e.BordaScores();
    const auto maximin = e.MaximinScores();
    const auto plurality = e.PluralityScores();
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t pairwise_sum = 0;
      for (uint32_t j = 0; j < n; ++j) {
        if (j != i) pairwise_sum += e.Pairwise(i, j);
      }
      EXPECT_EQ(borda[i], pairwise_sum);
      // A top-ranked vote defeats every opponent.
      EXPECT_GE(maximin[i], plurality[i]);
      // The worst pairwise is at most the average pairwise.
      EXPECT_LE(maximin[i] * (n - 1), borda[i]);
    }
  }
}

// Lemma 3, empirically: Bernoulli(2^-k) thinning preserves all relative
// frequencies within eps for r >~ 2 eps^-2 log(2/delta) samples.
TEST(PropertiesTest, SamplingPreservesFrequencies) {
  Rng rng(3);
  const uint64_t m = 1 << 19;
  const auto stream = MakeZipfStream(256, 1.0, m, 30);
  ExactCounter full;
  ExactCounter sampled;
  const int k = 4;  // p = 1/16 -> r ~ 32k samples -> eps ~ 0.02 whp
  for (const uint64_t x : stream) {
    full.Insert(x);
    if (rng.AllZeroBits(k)) sampled.Insert(x);
  }
  const double r = static_cast<double>(sampled.total());
  ASSERT_GT(r, 1000);
  for (uint64_t x = 0; x < 256; ++x) {
    const double rel_full =
        static_cast<double>(full.Count(x)) / static_cast<double>(m);
    const double rel_sample = static_cast<double>(sampled.Count(x)) / r;
    EXPECT_NEAR(rel_sample, rel_full, 0.02);
  }
}

// Serialization idempotence: deserialize(serialize(x)) serializes to the
// identical bit string.
TEST(PropertiesTest, SerializationIdempotent) {
  BdwSimple::Options opt;
  opt.epsilon = 0.05;
  opt.phi = 0.2;
  opt.universe_size = 1 << 20;
  opt.stream_length = 20000;
  BdwSimple sketch(opt, 40);
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) sketch.Insert(rng.UniformU64(100));
  BitWriter first;
  sketch.Serialize(first);
  BitReader r(first);
  const BdwSimple copy = BdwSimple::Deserialize(r, opt, 42);
  BitWriter second;
  copy.Serialize(second);
  ASSERT_EQ(first.size_bits(), second.size_bits());
  EXPECT_EQ(first.words(), second.words());
}

// Randomized soak: random (eps, phi, order, skew) configurations, checking
// the full Definition 1 contract each time.  Catches parameter-dependent
// corner cases the fixed grids miss.
TEST(PropertiesTest, RandomConfigSoak) {
  Rng meta(4);
  int failures = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const double eps = 0.01 + 0.04 * meta.UniformDouble();
    const double phi = 4 * eps + 0.2 * meta.UniformDouble();
    const uint64_t m = 20000 + meta.UniformU64(40000);
    PlantedSpec spec{{phi * 1.4, phi + 2 * eps}, uint64_t{1} << 22, m};
    spec.order = static_cast<StreamOrder>(meta.UniformU64(4));
    const PlantedStream s = MakePlantedStream(spec, 100 + t);

    const bool use_optimal = (meta.NextU64() & 1) != 0;
    ExactCounter exact;
    std::vector<HeavyHitter> report;
    if (use_optimal) {
      BdwOptimal::Options opt;
      opt.epsilon = eps;
      opt.phi = phi;
      opt.universe_size = uint64_t{1} << 22;
      opt.stream_length = m;
      BdwOptimal sketch(opt, 200 + t);
      for (const uint64_t x : s.items) {
        sketch.Insert(x);
        exact.Insert(x);
      }
      report = sketch.Report();
    } else {
      BdwSimple::Options opt;
      opt.epsilon = eps;
      opt.phi = phi;
      opt.universe_size = uint64_t{1} << 22;
      opt.stream_length = m;
      BdwSimple sketch(opt, 200 + t);
      for (const uint64_t x : s.items) {
        sketch.Insert(x);
        exact.Insert(x);
      }
      report = sketch.Report();
    }
    bool ok = true;
    int found = 0;
    for (const auto& hh : report) {
      const double truth = static_cast<double>(exact.Count(hh.item));
      if (truth <= (phi - eps) * static_cast<double>(m)) ok = false;
      if (std::abs(hh.estimated_count - truth) >
          eps * static_cast<double>(m)) {
        ok = false;
      }
      if (hh.item == s.planted_ids[0] || hh.item == s.planted_ids[1]) {
        ++found;
      }
    }
    if (found < 2) ok = false;
    if (!ok) ++failures;
  }
  EXPECT_LE(failures, 3);  // delta = 0.1 per trial
}

// A heavy item that appears only in the final tenth of the stream must
// still be caught by the unknown-length wrapper (its reporter window
// always covers all but an eps-fraction *prefix*).
TEST(PropertiesTest, UnknownLengthLateHeavyCaught) {
  BdwSimple::Options base;
  base.epsilon = 0.05;
  base.phi = 0.05;  // phi <= late item's 10% share
  base.delta = 0.1;
  base.universe_size = uint64_t{1} << 20;
  base.stream_length = 0;
  int failures = 0;
  for (int t = 0; t < 4; ++t) {
    auto w = MakeUnknownLengthListHeavyHitters(base, 1 << 22, 50 + t);
    Rng rng(60 + t);
    const uint64_t m = 200000;
    for (uint64_t i = 0; i < m; ++i) {
      if (i >= 9 * m / 10) {
        w.Insert(uint64_t{7});  // last 10% all one item
      } else {
        w.Insert(1000 + rng.UniformU64(100000));
      }
    }
    bool found = false;
    for (const auto& hh : w.Reporter().Report()) {
      if (hh.item == 7) found = true;
    }
    if (!found) ++failures;
  }
  EXPECT_LE(failures, 1);
}

// Space accounting sanity: every sketch's SpaceBits is dominated by (and
// usually far below) the serialized size plus hash-seed overhead, and is
// stable across identical runs.
TEST(PropertiesTest, SpaceAccountingDeterministic) {
  BdwOptimal::Options opt;
  opt.epsilon = 0.05;
  opt.phi = 0.2;
  opt.universe_size = 1 << 20;
  opt.stream_length = 30000;
  BdwOptimal a(opt, 70), b(opt, 70);
  const auto stream = MakeZipfStream(1 << 16, 1.2, 30000, 71);
  for (const uint64_t x : stream) {
    a.Insert(x);
    b.Insert(x);
  }
  EXPECT_EQ(a.SpaceBits(), b.SpaceBits());
  BitWriter w;
  a.Serialize(w);
  EXPECT_GT(w.size_bits(), 0u);
}

}  // namespace
}  // namespace l1hh
