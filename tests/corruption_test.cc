// Failure injection: deserialization must survive hostile bytes.
//
// A sketch travels over the network in the communication games and in the
// telemetry example; a production library cannot crash or balloon its
// allocations on a truncated or bit-flipped message.  These tests feed
// every Deserialize() (a) truncated prefixes of valid messages and (b)
// messages with payload bit flips, and assert we neither crash nor
// allocate absurdly (the CheckedCount guards), with overflow detectable.
#include <gtest/gtest.h>

#include "core/bdw_simple.h"
#include "core/bdw_optimal.h"
#include "core/borda.h"
#include "core/epsilon_maximum.h"
#include "core/epsilon_minimum.h"
#include "core/maximin.h"
#include "count/compact_counter_array.h"
#include "summary/count_min_sketch.h"
#include "summary/lossy_counting.h"
#include "summary/misra_gries.h"
#include "summary/summary.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {
namespace {

// Rebuilds a writer holding the first `bits` bits of `src`.
BitWriter Truncate(const BitWriter& src, size_t bits) {
  BitWriter out;
  BitReader r(src);
  size_t left = bits;
  while (left >= 64) {
    out.WriteU64(r.ReadU64());
    left -= 64;
  }
  if (left > 0) out.WriteBits(r.ReadBits(static_cast<int>(left)),
                              static_cast<int>(left));
  return out;
}

// Copies `src` and flips one bit at `pos`.
BitWriter FlipBit(const BitWriter& src, size_t pos) {
  BitWriter out;
  BitReader r(src);
  size_t left = src.size_bits();
  size_t offset = 0;
  while (left > 0) {
    const int chunk = static_cast<int>(std::min<size_t>(left, 64));
    uint64_t word = r.ReadBits(chunk);
    if (pos >= offset && pos < offset + static_cast<size_t>(chunk)) {
      word ^= uint64_t{1} << (pos - offset);
    }
    out.WriteBits(word, chunk);
    offset += static_cast<size_t>(chunk);
    left -= static_cast<size_t>(chunk);
  }
  return out;
}

TEST(CorruptionTest, MisraGriesTruncation) {
  Rng rng(1);
  MisraGries mg(16, 24);
  for (int i = 0; i < 5000; ++i) mg.Insert(rng.UniformU64(64));
  BitWriter w;
  mg.Serialize(w);
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const BitWriter t = Truncate(w, static_cast<size_t>(
                                        frac * w.size_bits()));
    BitReader r(t);
    const MisraGries broken = MisraGries::Deserialize(r, mg.k());
    // Must not crash; the result is allowed to be anything sane.
    EXPECT_LE(broken.tracked(), broken.k() + 1);
  }
}

TEST(CorruptionTest, CompactCounterArrayTruncation) {
  CompactCounterArray a(100);
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) a.Increment(rng.UniformU64(100));
  BitWriter w;
  a.Serialize(w);
  for (const size_t bits : {size_t{0}, size_t{3}, w.size_bits() / 2}) {
    const BitWriter t = Truncate(w, bits);
    BitReader r(t);
    CompactCounterArray broken;
    broken.Deserialize(r);
    // CheckedCount caps the element count at the message size.
    EXPECT_LE(broken.size(), t.size_bits() + 64);
  }
  // The sparse snapshot format: a truncated payload either fails the
  // size echo (no allocation) or stops mid-cells; both must leave the
  // reader flagged.
  BitWriter sparse;
  a.SerializeSparse(sparse);
  for (const size_t bits :
       {size_t{0}, size_t{3}, sparse.size_bits() / 2}) {
    const BitWriter t = Truncate(sparse, bits);
    BitReader r(t);
    CompactCounterArray broken;
    broken.DeserializeSparse(r, a.size());
    EXPECT_TRUE(r.overflow());
    EXPECT_LE(broken.size(), a.size());
  }
}

// Copies `src` with its first 64 bits replaced by the double `value`: the
// leading epsilon echo of the bdw_simple, bdw_optimal and eps-maximum
// messages.
BitWriter WithLeadingDouble(const BitWriter& src, double value) {
  BitWriter out;
  out.WriteDouble(value);
  BitReader r(src);
  (void)r.ReadU64();
  while (r.remaining_bits() > 0) {
    const int chunk = static_cast<int>(std::min<size_t>(r.remaining_bits(),
                                                        64));
    out.WriteBits(r.ReadBits(chunk), chunk);
  }
  return out;
}

// An epsilon of 1.1e-12 would ask for ~2e12 table counters: the decoders
// size their tables from the receiver's options and refuse the echo
// instead of allocating for it.
TEST(CorruptionTest, HostileEpsilonEchoIsRefusedBeforeSizing) {
  constexpr double kHostile = 1.1e-12;
  SummaryOptions o;
  o.epsilon = 0.05;
  o.phi = 0.2;
  o.universe_size = 1 << 16;
  o.stream_length = 4000;
  o.seed = 21;
  for (const char* name : {"bdw_simple", "bdw_optimal"}) {
    auto saved = MakeSummary(name, o);
    ASSERT_NE(saved, nullptr) << name;
    for (uint64_t i = 0; i < o.stream_length; ++i) saved->Update(i % 9, 1);
    BitWriter w;
    ASSERT_TRUE(saved->SaveTo(w).ok()) << name;
    const BitWriter hostile = WithLeadingDouble(w, kHostile);
    auto loaded = MakeSummary(name, o);
    BitReader r(hostile);
    EXPECT_TRUE(loaded->LoadFrom(r).IsCorruption()) << name;
    EXPECT_EQ(loaded->ItemsProcessed(), 0u) << name;
  }

  BdwSimple::Options simple;
  simple.epsilon = 0.05;
  simple.phi = 0.2;
  simple.universe_size = 1 << 16;
  simple.stream_length = 4000;
  BitWriter ws;
  BdwSimple(simple, 22).Serialize(ws);
  const BitWriter hostile_simple = WithLeadingDouble(ws, kHostile);
  BitReader rs(hostile_simple);
  BdwSimple broken_simple = BdwSimple::Deserialize(rs, simple, 23);
  EXPECT_TRUE(rs.overflow());
  broken_simple.Insert(1);

  EpsilonMaximum::Options max;
  max.epsilon = 0.05;
  max.universe_size = 1 << 16;
  max.stream_length = 4000;
  BitWriter wm;
  EpsilonMaximum(max, 24).Serialize(wm);
  const BitWriter hostile_max = WithLeadingDouble(wm, kHostile);
  BitReader rm(hostile_max);
  EpsilonMaximum broken_max = EpsilonMaximum::Deserialize(rm, max, 25);
  EXPECT_TRUE(rm.overflow());
  broken_max.Insert(1);
}

TEST(CorruptionTest, BdwSimpleTruncation) {
  BdwSimple::Options opt;
  opt.epsilon = 0.05;
  opt.phi = 0.2;
  opt.universe_size = 1 << 20;
  opt.stream_length = 10000;
  BdwSimple sketch(opt, 3);
  for (int i = 0; i < 10000; ++i) sketch.Insert(static_cast<uint64_t>(i % 7));
  BitWriter w;
  sketch.Serialize(w);
  for (const double frac : {0.1, 0.4, 0.7, 0.95}) {
    const BitWriter t = Truncate(w, static_cast<size_t>(
                                        frac * w.size_bits()));
    BitReader r(t);
    BdwSimple broken = BdwSimple::Deserialize(r, opt, 4);
    EXPECT_TRUE(r.overflow());
    broken.Insert(1);  // must still be usable
    (void)broken.Report();
  }
}

TEST(CorruptionTest, BdwSimplePayloadBitFlips) {
  BdwSimple::Options opt;
  opt.epsilon = 0.1;
  opt.phi = 0.3;
  opt.universe_size = 1 << 16;
  opt.stream_length = 5000;
  BdwSimple sketch(opt, 5);
  for (int i = 0; i < 5000; ++i) sketch.Insert(static_cast<uint64_t>(i % 5));
  BitWriter w;
  sketch.Serialize(w);
  // Flip bits in the payload (past the 5 fixed-width option fields).
  const size_t start = 64 * 5;
  Rng rng(6);
  for (int t = 0; t < 50; ++t) {
    const size_t pos =
        start + rng.UniformU64(w.size_bits() - start);
    const BitWriter flipped = FlipBit(w, pos);
    BitReader r(flipped);
    BdwSimple broken = BdwSimple::Deserialize(r, opt, 7);
    broken.Insert(1);
    (void)broken.Report();  // no crash, no unbounded allocation
  }
}

TEST(CorruptionTest, EpsilonMinimumHostileHeader) {
  EpsilonMinimum::Options opt;
  opt.epsilon = 0.1;
  opt.universe_size = 8;
  opt.stream_length = 1000;
  EpsilonMinimum sketch(opt, 8);
  for (int i = 0; i < 1000; ++i) sketch.Insert(static_cast<uint64_t>(i % 8));
  BitWriter w;
  sketch.Serialize(w);
  // Flip bits everywhere, including the header doubles and the universe
  // size: the deserializer must reject implausible values instead of
  // allocating universe-sized vectors.
  Rng rng(9);
  for (int t = 0; t < 100; ++t) {
    const size_t pos = rng.UniformU64(w.size_bits());
    const BitWriter flipped = FlipBit(w, pos);
    BitReader r(flipped);
    EpsilonMinimum broken = EpsilonMinimum::Deserialize(r, 10);
    (void)broken.Report();
  }
}

TEST(CorruptionTest, CountMinTruncation) {
  CountMinSketch cms(CountMinSketch::Options{64, 3, false}, 11);
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) cms.Insert(rng.UniformU64(100));
  BitWriter w;
  cms.Serialize(w);
  const BitWriter t = Truncate(w, w.size_bits() / 3);
  BitReader r(t);
  const CountMinSketch broken = CountMinSketch::Deserialize(r);
  EXPECT_TRUE(r.overflow());
  (void)broken.Estimate(1);
}

TEST(CorruptionTest, LossyCountingTruncation) {
  LossyCounting lc(0.05, 20);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) lc.Insert(rng.UniformU64(40));
  BitWriter w;
  lc.Serialize(w);
  const BitWriter t = Truncate(w, w.size_bits() / 4);
  BitReader r(t);
  const LossyCounting broken = LossyCounting::Deserialize(r);
  EXPECT_TRUE(r.overflow());
  (void)broken.Entries();
}

TEST(CorruptionTest, MaximinTruncation) {
  StreamingMaximin::Options opt;
  opt.epsilon = 0.2;
  opt.num_candidates = 6;
  opt.stream_length = 100;
  StreamingMaximin sketch(opt, 14);
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    sketch.InsertVote(Ranking::Random(6, rng));
  }
  BitWriter w;
  sketch.Serialize(w);
  for (const double frac : {0.2, 0.6, 0.9}) {
    const BitWriter t = Truncate(w, static_cast<size_t>(
                                        frac * w.size_bits()));
    BitReader r(t);
    StreamingMaximin broken = StreamingMaximin::Deserialize(r, 16);
    (void)broken.Scores();
  }
}

TEST(CorruptionTest, BordaTruncation) {
  StreamingBorda::Options opt;
  opt.epsilon = 0.1;
  opt.num_candidates = 8;
  opt.stream_length = 200;
  StreamingBorda sketch(opt, 17);
  Rng rng(18);
  for (int i = 0; i < 200; ++i) sketch.InsertVote(Ranking::Random(8, rng));
  BitWriter w;
  sketch.Serialize(w);
  const BitWriter t = Truncate(w, w.size_bits() / 2);
  BitReader r(t);
  StreamingBorda broken = StreamingBorda::Deserialize(r, 19);
  EXPECT_TRUE(r.overflow());
  (void)broken.Scores();
}

TEST(CorruptionTest, EmptyMessage) {
  BitWriter empty;
  {
    BitReader r(empty);
    const MisraGries broken = MisraGries::Deserialize(r, 16);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(broken.tracked(), 0u);
  }
  {
    BitReader r(empty);
    CompactCounterArray broken;
    broken.Deserialize(r);
    EXPECT_EQ(broken.size(), 0u);
  }
  {
    BitReader r(empty);
    CompactCounterArray broken;
    broken.DeserializeSparse(r, 100);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(broken.size(), 0u);
  }
}

}  // namespace
}  // namespace l1hh
