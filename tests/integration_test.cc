// End-to-end scenarios crossing module boundaries: generators -> core
// algorithms -> reports, on the workloads the paper's introduction
// motivates (network flows, voting).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/bdw_optimal.h"
#include "core/bdw_simple.h"
#include "core/epsilon_maximum.h"
#include "core/epsilon_minimum.h"
#include "core/borda.h"
#include "core/maximin.h"
#include "core/unknown_length.h"
#include "stream/stream_generator.h"
#include "stream/vote_generator.h"
#include "summary/count_min_sketch.h"
#include "summary/exact_counter.h"
#include "summary/misra_gries.h"
#include "summary/space_saving.h"
#include "votes/election.h"

namespace l1hh {
namespace {

// "Elephant flow detection": heavy-tailed traffic, all five sketch families
// must agree on the elephants.
TEST(IntegrationTest, AllSketchesAgreeOnElephants) {
  const uint64_t m = 100000;
  const double phi = 0.1, eps = 0.02;
  const PlantedSpec spec{{0.3, 0.15}, uint64_t{1} << 32, m};
  const PlantedStream s = MakePlantedStream(spec, 1);

  BdwSimple::Options so;
  so.epsilon = eps;
  so.phi = phi;
  so.universe_size = uint64_t{1} << 32;
  so.stream_length = m;
  BdwSimple simple(so, 2);

  BdwOptimal::Options oo;
  oo.epsilon = eps;
  oo.phi = phi;
  oo.universe_size = uint64_t{1} << 32;
  oo.stream_length = m;
  BdwOptimal optimal(oo, 3);

  MisraGries mg(static_cast<size_t>(2 / eps), 32);
  SpaceSaving ss(static_cast<size_t>(2 / eps), 32);
  CountMinSketch cms = CountMinSketch::ForError(eps / 2, 0.01, 4);

  for (const uint64_t x : s.items) {
    simple.Insert(x);
    optimal.Insert(x);
    mg.Insert(x);
    ss.Insert(x);
    cms.Insert(x);
  }

  const uint64_t threshold = static_cast<uint64_t>(phi * m);
  for (const uint64_t elephant : s.planted_ids) {
    bool in_simple = false, in_optimal = false;
    for (const auto& hh : simple.Report()) {
      if (hh.item == elephant) in_simple = true;
    }
    for (const auto& hh : optimal.Report()) {
      if (hh.item == elephant) in_optimal = true;
    }
    EXPECT_TRUE(in_simple);
    EXPECT_TRUE(in_optimal);
    EXPECT_GE(mg.Estimate(elephant) + m / (2 / eps + 1), threshold);
    EXPECT_GE(ss.Estimate(elephant), threshold);
    EXPECT_GE(cms.Estimate(elephant), threshold);
  }
}

// Streaming election: plurality (via eps-Maximum over top choices), Borda,
// and maximin all pick the planted winner.
TEST(IntegrationTest, StreamingElectionAllRulesAgree) {
  const uint32_t n = 8;
  const uint64_t m = 30000;
  const uint32_t winner = 5;
  const auto votes = MakePlantedWinnerVotes(n, m, winner, 0.45, 5);

  EpsilonMaximum::Options mo;
  mo.epsilon = 0.05;
  mo.universe_size = n;
  mo.stream_length = m;
  EpsilonMaximum plurality(mo, 6);

  StreamingBorda::Options bo;
  bo.epsilon = 0.05;
  bo.num_candidates = n;
  bo.stream_length = m;
  StreamingBorda borda(bo, 7);

  StreamingMaximin::Options xo;
  xo.epsilon = 0.1;
  xo.num_candidates = n;
  xo.stream_length = m;
  StreamingMaximin maximin(xo, 8);

  for (const auto& v : votes) {
    plurality.Insert(v.At(0));  // plurality sees only top choices
    borda.InsertVote(v);
    maximin.InsertVote(v);
  }
  EXPECT_EQ(plurality.Report().item, winner);
  EXPECT_EQ(borda.MaxScore().item, winner);
  EXPECT_EQ(maximin.MaxScore().item, winner);
}

// The "complaints portal": fewest-dislikes item via epsilon-Minimum, where
// dislikes arrive as a stream and one product has almost none.
TEST(IntegrationTest, FewestComplaintsProduct) {
  const uint64_t n_products = 10;
  const uint64_t m = 50000;
  EpsilonMinimum::Options opt;
  opt.epsilon = 0.05;
  opt.universe_size = n_products;
  opt.stream_length = m;
  EpsilonMinimum sketch(opt, 9);
  ExactCounter exact;
  Rng rng(10);
  for (uint64_t i = 0; i < m; ++i) {
    // Product 4 receives ~0.2% of complaints; the rest split the bulk.
    const uint64_t x =
        rng.UniformU64(500) == 0 ? 4 : (rng.UniformU64(9) >= 4 ? 1 : 0) +
                                           rng.UniformU64(9);
    const uint64_t clamped = std::min<uint64_t>(x, n_products - 1);
    sketch.Insert(clamped == 4 && x != 4 ? 5 : clamped);
    exact.Insert(clamped == 4 && x != 4 ? 5 : clamped);
  }
  const auto r = sketch.Report();
  const auto truth = exact.MinOverUniverse(n_products);
  EXPECT_LE(exact.Count(r.item),
            truth.count + static_cast<uint64_t>(0.05 * m));
}

// Unknown-length pipe: a long Zipf stream through the Theorem 7 wrapper,
// compared to the known-length sketch on the same data.
TEST(IntegrationTest, UnknownLengthMatchesKnownLength) {
  const double eps = 0.05, phi = 0.2;
  const uint64_t m = 150000;
  const auto stream = MakeZipfStream(1 << 16, 1.4, m, 11);

  BdwSimple::Options base;
  base.epsilon = eps;
  base.phi = phi;
  base.universe_size = uint64_t{1} << 20;
  base.stream_length = m;
  BdwSimple known(base, 12);

  BdwSimple::Options unknown_base = base;
  unknown_base.stream_length = 0;
  auto unknown =
      MakeUnknownLengthListHeavyHitters(unknown_base, 1 << 22, 13);

  ExactCounter exact;
  for (const uint64_t x : stream) {
    known.Insert(x);
    unknown.Insert(x);
    exact.Insert(x);
  }
  std::unordered_set<uint64_t> known_set, unknown_set;
  for (const auto& hh : known.Report()) known_set.insert(hh.item);
  for (const auto& hh : unknown.Reporter().Report()) {
    unknown_set.insert(hh.item);
  }
  // Must-report items appear in both.
  for (const auto& e : exact.SortedByCountDesc()) {
    if (e.count >= static_cast<uint64_t>((phi + eps) * m)) {
      EXPECT_TRUE(known_set.count(e.item) == 1);
      EXPECT_TRUE(unknown_set.count(e.item) == 1);
    }
  }
}

// Serialization interoperability: a sketch built on one "node" finishes on
// another, mimicking a router handing off to a collector.
TEST(IntegrationTest, HandoffAcrossSerialization) {
  const uint64_t m = 40000;
  BdwOptimal::Options opt;
  opt.epsilon = 0.05;
  opt.phi = 0.2;
  opt.universe_size = uint64_t{1} << 24;
  opt.stream_length = m;

  BdwOptimal node_a(opt, 14);
  const PlantedSpec spec{{0.4}, uint64_t{1} << 24, m};
  const PlantedStream s = MakePlantedStream(spec, 15);
  for (uint64_t i = 0; i < m / 2; ++i) node_a.Insert(s.items[i]);

  BitWriter wire;
  node_a.Serialize(wire);
  BitReader r(wire);
  BdwOptimal node_b = BdwOptimal::Deserialize(r, opt, 16);
  for (uint64_t i = m / 2; i < m; ++i) node_b.Insert(s.items[i]);

  bool found = false;
  for (const auto& hh : node_b.Report()) {
    if (hh.item == s.planted_ids[0]) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace l1hh
