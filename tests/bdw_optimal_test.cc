#include "core/bdw_optimal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/bdw_simple.h"
#include "stream/stream_generator.h"
#include "summary/exact_counter.h"
#include "summary/misra_gries.h"
#include "summary/summary.h"
#include "util/bit_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace l1hh {
namespace {

BdwOptimal::Options MakeOptions(double eps, double phi, uint64_t m,
                                uint64_t n = uint64_t{1} << 24) {
  BdwOptimal::Options opt;
  opt.epsilon = eps;
  opt.phi = phi;
  opt.delta = 0.1;
  opt.universe_size = n;
  opt.stream_length = m;
  return opt;
}

TEST(BdwOptimalTest, StructureMatchesFormulas) {
  const BdwOptimal sketch(MakeOptions(0.01, 0.1, 1 << 20), 1);
  // R = Theta(log(1/phi)), odd.
  EXPECT_EQ(sketch.repetitions() % 2, 1u);
  EXPECT_GE(sketch.repetitions(), 5u);
  // rows = Theta(1/eps).
  EXPECT_GE(sketch.rows(), 100u);
  EXPECT_LE(sketch.rows(), 6400u);
}

TEST(BdwOptimalTest, HeavyHitterContractOnPlantedStream) {
  const double eps = 0.02, phi = 0.1;
  const uint64_t m = 60000;
  int failures = 0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const PlantedSpec spec{{2 * phi, phi, phi - 2 * eps}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 300 + t);
    BdwOptimal sketch(MakeOptions(eps, phi, m), 700 + t);
    ExactCounter exact;
    for (const uint64_t x : s.items) {
      sketch.Insert(x);
      exact.Insert(x);
    }
    bool ok = true;
    std::unordered_set<uint64_t> reported;
    for (const auto& hh : sketch.Report()) {
      reported.insert(hh.item);
      if (exact.Count(hh.item) <= static_cast<uint64_t>((phi - eps) * m)) {
        ok = false;  // false positive
      }
      if (std::abs(hh.estimated_count -
                   static_cast<double>(exact.Count(hh.item))) >
          eps * static_cast<double>(m)) {
        ok = false;  // estimate out of tolerance
      }
    }
    if (reported.count(s.planted_ids[0]) == 0) ok = false;
    if (reported.count(s.planted_ids[1]) == 0) ok = false;
    if (!ok) ++failures;
  }
  EXPECT_LE(failures, 3);
}

TEST(BdwOptimalTest, AccuracyOnZipfStream) {
  const double eps = 0.02, phi = 0.08;
  const uint64_t m = 80000;
  const auto stream = MakeZipfStream(1 << 16, 1.3, m, 5);
  BdwOptimal sketch(MakeOptions(eps, phi, m), 7);
  ExactCounter exact;
  for (const uint64_t x : stream) {
    sketch.Insert(x);
    exact.Insert(x);
  }
  // The head of the Zipf distribution must be reported accurately.
  const auto truth = exact.SortedByCountDesc();
  std::unordered_set<uint64_t> reported;
  double max_err = 0;
  for (const auto& hh : sketch.Report()) {
    reported.insert(hh.item);
    max_err = std::max(max_err,
                       std::abs(hh.estimated_count -
                                static_cast<double>(exact.Count(hh.item))));
  }
  for (const auto& e : truth) {
    if (e.count >= static_cast<uint64_t>((phi + eps) * m)) {
      EXPECT_TRUE(reported.count(e.item) == 1) << "missing head item";
    }
  }
  EXPECT_LE(max_err, 1.5 * eps * m);
}

TEST(BdwOptimalTest, EstimateCountNearTruthForHeavies) {
  const uint64_t m = 60000;
  BdwOptimal sketch(MakeOptions(0.02, 0.2, m), 11);
  for (uint64_t i = 0; i < m; ++i) sketch.Insert(i % 3);
  for (uint64_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(sketch.EstimateCount(x), m / 3.0, 0.04 * m);
  }
}

TEST(BdwOptimalTest, TopKOrderedAndBounded) {
  const uint64_t m = 40000;
  const PlantedSpec spec{{0.3, 0.2, 0.1}, 1 << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 41);
  BdwOptimal sketch(MakeOptions(0.02, 0.08, m), 43);
  for (const uint64_t x : s.items) sketch.Insert(x);
  const auto top3 = sketch.TopK(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].item, s.planted_ids[0]);
  EXPECT_EQ(top3[1].item, s.planted_ids[1]);
  EXPECT_EQ(top3[2].item, s.planted_ids[2]);
  EXPECT_GE(top3[0].estimated_count, top3[1].estimated_count);
  EXPECT_GE(top3[1].estimated_count, top3[2].estimated_count);
}

TEST(BdwOptimalTest, NoFalsePositivesOnUniform) {
  const uint64_t m = 40000;
  const auto stream = MakeUniformStream(2000, m, 13);
  BdwOptimal sketch(MakeOptions(0.05, 0.25, m), 17);
  for (const uint64_t x : stream) sketch.Insert(x);
  EXPECT_TRUE(sketch.Report().empty());
}

TEST(BdwOptimalTest, SerializeRoundTripAndResume) {
  const uint64_t m = 30000;
  BdwOptimal alice(MakeOptions(0.05, 0.25, m), 19);
  for (uint64_t i = 0; i < m / 2; ++i) alice.Insert(7);
  BitWriter w;
  alice.Serialize(w);
  BitReader r(w);
  BdwOptimal bob = BdwOptimal::Deserialize(r, alice.options(), 23);
  EXPECT_EQ(bob.samples_taken(), alice.samples_taken());
  for (uint64_t i = 0; i < m / 2; ++i) bob.Insert(7);
  const auto report = bob.Report();
  ASSERT_GE(report.size(), 1u);
  EXPECT_EQ(report[0].item, 7u);
}

// The headline claim of Table 1, in its laptop-measurable form: as log n
// grows, Misra-Gries pays eps^-1 additional bits per unit of log n (it
// stores ids in every one of its eps^-1 slots), while Algorithm 2 pays
// only phi^-1 (ids live only in the small T1 candidate table).  With
// eps^-1 / phi^-1 = 64 the slope ratio must be large.  (The absolute
// crossover needs log n + log m to exceed Algorithm 2's leading constant,
// i.e. astronomically long streams — EXPERIMENTS.md discusses this.)
TEST(BdwOptimalTest, SpaceSlopeInLogNBeatsMisraGries) {
  const double eps = 1.0 / 256, phi = 0.25;
  const uint64_t m = 1 << 18;
  const uint64_t n_small = uint64_t{1} << 20;
  const uint64_t n_large = uint64_t{1} << 60;

  auto measure = [&](uint64_t n, uint64_t seed) {
    BdwOptimal optimal(MakeOptions(eps, phi, m, n), seed);
    MisraGries mg(static_cast<size_t>(1.0 / eps), UniverseBits(n));
    Rng rng(seed + 1);
    for (uint64_t i = 0; i < m; ++i) {
      const uint64_t x = rng.UniformU64(n);
      optimal.Insert(x);
      mg.Insert(x);
    }
    return std::make_pair(optimal.SpaceBits(), mg.SpaceBits());
  };
  const auto [opt_small, mg_small] = measure(n_small, 29);
  const auto [opt_large, mg_large] = measure(n_large, 37);
  const double opt_slope =
      static_cast<double>(opt_large) - static_cast<double>(opt_small);
  const double mg_slope =
      static_cast<double>(mg_large) - static_cast<double>(mg_small);
  EXPECT_GT(mg_slope, 8 * std::max(opt_slope, 1.0));
}

// The merge-enabling property of the epoch scheme: the epoch is a pure
// function of (Options, samples taken) — identical across instances with
// the same options, monotone in the sample position, and clamped to
// [0, max_epoch].  (Per-instance state like the hash draws must not leak
// into it; that is what makes shard epochs reconcilable.)
TEST(BdwOptimalTest, EpochScheduleIsSharedDeterministicAndMonotone) {
  const uint64_t m = 60000;
  const BdwOptimal a(MakeOptions(0.02, 0.1, m), 1);
  const BdwOptimal b(MakeOptions(0.02, 0.1, m), 999);  // different seed
  int prev = -1;
  for (uint64_t s = 0; s <= m; s += 997) {
    const int t = a.EpochAtSample(s);
    EXPECT_EQ(t, b.EpochAtSample(s)) << "schedule depends on the seed";
    EXPECT_GE(t, prev) << "schedule not monotone at s=" << s;
    EXPECT_GE(t, 0);
    EXPECT_LE(t, a.max_epoch());
    prev = t;
  }
  // The schedule leaves epoch 0 once eps*phi*s clears the scale, so a
  // full-length run must actually exercise several epochs.
  EXPECT_GT(a.EpochAtSample(m), 2);
}

// current_epoch() tracks the schedule during ingestion: with these
// options the sampler keeps everything (l > m), so samples == inserts.
TEST(BdwOptimalTest, CurrentEpochFollowsScheduleDuringIngest) {
  const uint64_t m = 50000;
  BdwOptimal sketch(MakeOptions(0.02, 0.1, m), 5);
  for (uint64_t i = 0; i < m; ++i) {
    sketch.Insert(i % 100);
    if (i % 5000 == 0) {
      EXPECT_EQ(sketch.current_epoch(),
                sketch.EpochAtSample(sketch.samples_taken()));
    }
  }
  EXPECT_EQ(sketch.samples_taken(), m);
  EXPECT_EQ(sketch.current_epoch(), sketch.EpochAtSample(m));
}

// The coin skips at the bench operating point (eps = 0.005, so
// eps_exp = 8; l > m, so every item is sampled), with the epoch pinned by
// FastForwardToEpoch so p_T3 = 2^-(eps_exp - t) covers 2^-8, 2^-3 and 1.
// n samples stay below the schedule's first step, so the pin holds.
constexpr double kSkipEps = 0.005, kSkipPhi = 0.02;
constexpr uint64_t kSkipSamples = 50000;

std::vector<int> PinnedEpochs() {
  const int eps_exp = ProbabilityToPow2Exponent(kSkipEps);
  return {0, eps_exp - 3, eps_exp};
}

BdwOptimal PinnedSketch(int epoch, uint64_t seed) {
  BdwOptimal sketch(MakeOptions(kSkipEps, kSkipPhi, uint64_t{1} << 20), seed);
  sketch.FastForwardToEpoch(epoch);
  return sketch;
}

uint64_t RngWordsDrawn(const BdwOptimal& sketch) {
  BitWriter w;
  sketch.SerializeRngState(w);
  BitReader r(w);
  Rng rng(0);
  rng.Deserialize(r);
  return rng.words_drawn();
}

// Over n samples, T2 gathers Binomial(R n, 2^-eps_exp) counts and T3
// Binomial(R n, p_T3): the skips land each (sample, repetition) coin at
// exactly the per-coin probability the old coin loop flipped.
TEST(BdwOptimalTest, CoinSkipsLandAtTheirProbabilities) {
  const int eps_exp = ProbabilityToPow2Exponent(kSkipEps);
  for (const int epoch : PinnedEpochs()) {
    BdwOptimal sketch = PinnedSketch(epoch, 31 + static_cast<uint64_t>(epoch));
    ASSERT_EQ(sketch.current_epoch(), epoch);
    for (uint64_t i = 0; i < kSkipSamples; ++i) sketch.Insert(i % 1000);
    ASSERT_EQ(sketch.samples_taken(), kSkipSamples);
    ASSERT_EQ(sketch.current_epoch(), epoch);
    const double trials =
        static_cast<double>(sketch.repetitions() * kSkipSamples);
    auto expect_binomial = [&](uint64_t landed, int exponent) {
      const double p = std::ldexp(1.0, -exponent);
      EXPECT_NEAR(static_cast<double>(landed), trials * p,
                  6 * std::sqrt(trials * p * (1 - p)))
          << "epoch " << epoch << ", p = 2^-" << exponent;
    };
    expect_binomial(sketch.t2_total(), eps_exp);
    expect_binomial(sketch.t3_total(), std::max(eps_exp - epoch, 0));
  }
}

// The hot path draws randomness only for coins that land (one word per
// landed coin below probability 1), never 2R words per sample.
TEST(BdwOptimalTest, HotPathDrawsOnlyForLandedCoins) {
  const int eps_exp = ProbabilityToPow2Exponent(kSkipEps);
  for (const int epoch : PinnedEpochs()) {
    BdwOptimal sketch = PinnedSketch(epoch, 41 + static_cast<uint64_t>(epoch));
    const uint64_t before = RngWordsDrawn(sketch);
    for (uint64_t i = 0; i < kSkipSamples; ++i) sketch.Insert(i % 1000);
    ASSERT_EQ(sketch.samples_taken(), kSkipSamples);
    const double per_item =
        static_cast<double>(RngWordsDrawn(sketch) - before) /
        static_cast<double>(kSkipSamples);
    const double p_t2 = std::ldexp(1.0, -eps_exp);
    const double p_t3 = std::ldexp(1.0, -std::max(eps_exp - epoch, 0));
    EXPECT_LE(per_item,
              1 + 2 * static_cast<double>(sketch.repetitions()) *
                      (p_t2 + p_t3))
        << "epoch " << epoch;
  }
}

// ---- Served answers, pinned --------------------------------------------

// CRC-32 over (item, estimate bits) pairs: any change to a reported item,
// to the report order or to one bit of an estimate changes it.
uint32_t CrcOfReport(const std::vector<ItemEstimate>& report) {
  uint32_t crc = 0;
  for (const ItemEstimate& e : report) {
    uint64_t bits = 0;
    std::memcpy(&bits, &e.estimate, sizeof(bits));
    crc = Crc32Update(crc, &e.item, sizeof(e.item));
    crc = Crc32Update(crc, &bits, sizeof(bits));
  }
  return crc;
}

// The answers `heavy` and `estimate` serve at the benchmark's operating
// point (eps = 0.005, phi = 0.02, two shards merged for the query),
// checksummed bit for bit: the report at phi, the report at 2 phi, and
// Estimate() of the stream's first 1000 items, for one unmerged shard and
// for the merged view.  Query-path work may make these cheaper but must
// leave every bit where it is.
TEST(BdwOptimalTest, ServedAnswersArePinned) {
  SummaryOptions o;
  o.epsilon = 0.005;
  o.phi = 0.02;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = uint64_t{1} << 18;
  o.seed = 11;
  const auto stream = MakeZipfStream(o.universe_size, 1.2, o.stream_length,
                                     /*seed=*/5);
  const size_t half = stream.size() / 2;
  auto shard0 = MakeSummary("bdw_optimal", o);
  auto shard1 = MakeSummary("bdw_optimal", o);
  ASSERT_NE(shard0, nullptr);
  ASSERT_NE(shard1, nullptr);
  shard0->UpdateColumn(stream.data(), half);
  shard1->UpdateColumn(stream.data() + half, stream.size() - half);
  const auto pin = [&](const Summary& view) {
    std::vector<ItemEstimate> estimates;
    for (size_t i = 0; i < 1000; ++i) {
      estimates.push_back({stream[i], view.Estimate(stream[i])});
    }
    const auto report = view.HeavyHitters(o.phi);
    EXPECT_FALSE(report.empty());
    return std::vector<uint32_t>{
        static_cast<uint32_t>(report.size()), CrcOfReport(report),
        CrcOfReport(view.HeavyHitters(2 * o.phi)), CrcOfReport(estimates)};
  };
  const std::vector<uint32_t> unmerged = pin(*shard0);
  ASSERT_TRUE(shard0->Merge(*shard1).ok());
  const std::vector<uint32_t> merged = pin(*shard0);
  EXPECT_EQ(unmerged, (std::vector<uint32_t>{7, 0x7005c943u, 0x3b6b0ce7u,
                                             0xcbcec7f8u}));
  EXPECT_EQ(merged, (std::vector<uint32_t>{7, 0x7b1fd1bcu, 0x16eeda26u,
                                           0x8c4686ccu}));
}

// ---- Thresholded report against the unthresholded reference ------------

// The served answer before the thresholded scan: every T1 candidate's full
// median (TopK), then the (phi - eps/2) * n filter and the canonical order.
std::vector<ItemEstimate> FilterTopKReference(const BdwOptimal& sketch,
                                              double phi) {
  const double threshold = (phi - sketch.options().epsilon / 2.0) *
                           static_cast<double>(sketch.items_processed());
  std::vector<ItemEstimate> out;
  for (const HeavyHitter& hh :
       sketch.TopK(std::numeric_limits<size_t>::max())) {
    if (hh.estimated_count >= threshold) {
      out.push_back({hh.item, hh.estimated_count});
    }
  }
  SortByEstimateDesc(out);
  return out;
}

void ExpectSameReport(const std::vector<ItemEstimate>& got,
                      const std::vector<ItemEstimate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].estimate),
              std::bit_cast<uint64_t>(want[i].estimate))
        << "rank " << i;
  }
}

std::vector<ItemEstimate> AsItemEstimates(
    const std::vector<HeavyHitter>& report) {
  std::vector<ItemEstimate> out;
  for (const HeavyHitter& hh : report) {
    out.push_back({hh.item, hh.estimated_count});
  }
  return out;
}

// A phi at which `estimate` sits exactly on the threshold
// (phi - eps/2) * n, found among the doubles next to estimate / n + eps/2;
// 0 when none of them lands exactly.
double PhiOnThreshold(double estimate, double eps, uint64_t n) {
  double phi = estimate / static_cast<double>(n) + eps / 2.0;
  for (int i = 0; i < 64; ++i) phi = std::nextafter(phi, 0.0);
  for (int i = 0; i < 128; ++i, phi = std::nextafter(phi, 1.0)) {
    if ((phi - eps / 2.0) * static_cast<double>(n) == estimate) return phi;
  }
  return 0;
}

// Report(phi) and the adapter's HeavyHitters(phi) equal FilterTopK(TopK)
// item for item and bit for bit — on Zipf and planted streams, for one
// sketch and for a merge of two halves, at phi in {phi, 2 phi, eps/4
// (a negative threshold: every candidate), 0.9 (none)} and at a phi that
// puts one candidate's median exactly on the threshold (it is reported).
TEST(BdwOptimalTest, ThresholdedReportMatchesFilteredTopK) {
  SummaryOptions o;
  o.epsilon = 0.005;
  o.phi = 0.02;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = uint64_t{1} << 17;
  const BdwOptimal::Options opt =
      MakeOptions(o.epsilon, o.phi, o.stream_length, o.universe_size);
  int on_threshold_cases = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const PlantedSpec spec{{0.1, 0.03, 0.021, 0.0175, 0.01},
                           o.universe_size, o.stream_length};
    for (const bool zipf : {true, false}) {
      const std::vector<uint64_t> stream =
          zipf ? MakeZipfStream(o.universe_size, 1.1, o.stream_length, seed)
               : MakePlantedStream(spec, seed).items;
      const size_t half = stream.size() / 2;
      o.seed = 100 + seed;
      BdwOptimal sketch(opt, o.seed);
      BdwOptimal other(opt, o.seed);
      auto summary = MakeSummary("bdw_optimal", o);
      auto other_summary = MakeSummary("bdw_optimal", o);
      ASSERT_NE(summary, nullptr);
      for (size_t i = 0; i < half; ++i) sketch.Insert(stream[i]);
      for (size_t i = half; i < stream.size(); ++i) other.Insert(stream[i]);
      summary->UpdateColumn(stream.data(), half);
      other_summary->UpdateColumn(stream.data() + half, stream.size() - half);
      for (const bool merged : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (zipf ? "zipf" : "planted") << " seed " << seed
                     << (merged ? " merged" : " scalar"));
        if (merged) {
          ASSERT_TRUE(sketch.MergeFrom(other).ok());
          ASSERT_TRUE(summary->Merge(*other_summary).ok());
        }
        std::vector<double> phis = {o.phi, 2 * o.phi, o.epsilon / 4, 0.9};
        const auto top = sketch.TopK(std::numeric_limits<size_t>::max());
        ASSERT_FALSE(top.empty());
        // The candidate nearest phi * n, put exactly on the threshold.
        const auto nearest = std::min_element(
            top.begin(), top.end(), [&](const auto& a, const auto& b) {
              const double target =
                  o.phi * static_cast<double>(sketch.items_processed());
              return std::abs(a.estimated_count - target) <
                     std::abs(b.estimated_count - target);
            });
        const double edge = PhiOnThreshold(
            nearest->estimated_count, o.epsilon, sketch.items_processed());
        if (edge > 0) {
          ++on_threshold_cases;
          phis.push_back(edge);
        }
        for (const double phi : phis) {
          SCOPED_TRACE(::testing::Message() << "phi " << phi);
          const auto want = FilterTopKReference(sketch, phi);
          ExpectSameReport(AsItemEstimates(sketch.Report(phi)), want);
          ExpectSameReport(summary->HeavyHitters(phi), want);
          if (phi == edge) {
            EXPECT_TRUE(std::any_of(want.begin(), want.end(), [&](auto& e) {
              return e.item == nearest->item;
            }));
          }
        }
        // EstimateCount runs the same per-item routine to completion.
        for (const HeavyHitter& hh : top) {
          EXPECT_EQ(std::bit_cast<uint64_t>(sketch.EstimateCount(hh.item)),
                    std::bit_cast<uint64_t>(hh.estimated_count));
        }
      }
    }
  }
  EXPECT_GE(on_threshold_cases, 8);
}

class BdwOptimalGrid
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BdwOptimalGrid, RecallHolds) {
  const auto [eps, phi] = GetParam();
  const uint64_t m = 40000;
  int failures = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const PlantedSpec spec{{phi * 1.5, phi * 1.1}, 1 << 24, m};
    const PlantedStream s = MakePlantedStream(spec, 5000 + t);
    BdwOptimal sketch(MakeOptions(eps, phi, m), 6000 + t);
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

// phi < ~0.35 keeps the two planted items (2.6*phi total) satisfiable.
INSTANTIATE_TEST_SUITE_P(Grid, BdwOptimalGrid,
                         ::testing::Values(std::make_pair(0.02, 0.1),
                                           std::make_pair(0.05, 0.2),
                                           std::make_pair(0.1, 0.3),
                                           std::make_pair(0.03, 0.15)));

}  // namespace
}  // namespace l1hh
