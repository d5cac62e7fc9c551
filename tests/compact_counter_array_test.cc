#include "count/compact_counter_array.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "count/saturating_counter.h"
#include "util/random.h"

namespace l1hh {
namespace {

TEST(CompactCounterArrayTest, StartsAtZero) {
  CompactCounterArray a(100);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a.Get(i), 0u);
  EXPECT_EQ(a.Total(), 0u);
}

TEST(CompactCounterArrayTest, IncrementWithinNibble) {
  CompactCounterArray a(10);
  for (int i = 0; i < 14; ++i) a.Increment(3);
  EXPECT_EQ(a.Get(3), 14u);
  EXPECT_EQ(a.Get(2), 0u);
  EXPECT_EQ(a.Get(4), 0u);
}

TEST(CompactCounterArrayTest, OverflowsIntoSpill) {
  CompactCounterArray a(10);
  for (int i = 0; i < 1000; ++i) a.Increment(7);
  EXPECT_EQ(a.Get(7), 1000u);
  EXPECT_EQ(a.Total(), 1000u);
}

TEST(CompactCounterArrayTest, AddLargeDelta) {
  CompactCounterArray a(4);
  a.Add(0, 5);
  a.Add(0, 1000000);
  a.Add(1, 14);
  a.Add(1, 1);  // exactly to the nibble boundary
  EXPECT_EQ(a.Get(0), 1000005u);
  EXPECT_EQ(a.Get(1), 15u);
}

TEST(CompactCounterArrayTest, AdjacentNibblesIndependent) {
  CompactCounterArray a(16);
  for (size_t i = 0; i < 16; ++i) {
    for (size_t k = 0; k <= i; ++k) a.Increment(i);
  }
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(a.Get(i), i + 1);
}

TEST(CompactCounterArrayTest, MatchesReferenceOnRandomOps) {
  Rng rng(1);
  const size_t n = 257;
  CompactCounterArray a(n);
  std::vector<uint64_t> ref(n, 0);
  for (int op = 0; op < 100000; ++op) {
    const size_t i = rng.UniformU64(n);
    const uint64_t d = 1 + rng.UniformU64(20);
    a.Add(i, d);
    ref[i] += d;
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(a.Get(i), ref[i]);
}

// AllZero over every [begin, end) of a small array, against Get: odd and
// even bounds, empty ranges, and a spilled counter.
TEST(CompactCounterArrayTest, AllZeroMatchesCellwiseCheck) {
  const size_t n = 13;
  CompactCounterArray a(n);
  a.Add(4, 1);
  a.Add(7, 40);  // spills past the nibble
  a.Add(12, 2);  // last cell of an odd-length array
  for (size_t begin = 0; begin <= n; ++begin) {
    for (size_t end = begin; end <= n; ++end) {
      bool expected = true;
      for (size_t i = begin; i < end; ++i) expected &= a.Get(i) == 0;
      EXPECT_EQ(a.AllZero(begin, end), expected) << begin << ".." << end;
    }
  }
}

TEST(CompactCounterArrayTest, SpaceBitsGrowsWithContent) {
  CompactCounterArray a(64);
  const size_t empty_bits = a.SpaceBits();
  EXPECT_EQ(empty_bits, 64u);  // one bit per empty slot
  a.Add(0, 1000);
  EXPECT_GT(a.SpaceBits(), empty_bits);
}

TEST(CompactCounterArrayTest, SerializeRoundTrip) {
  Rng rng(2);
  CompactCounterArray a(50);
  for (int op = 0; op < 5000; ++op) a.Increment(rng.UniformU64(50));
  BitWriter w;
  a.Serialize(w);
  BitReader r(w);
  CompactCounterArray b;
  b.Deserialize(r);
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b.Get(i), a.Get(i));
}

TEST(CompactCounterArrayTest, SparseSerializeRoundTrip) {
  Rng rng(5);
  CompactCounterArray a(300);
  for (int op = 0; op < 500; ++op) a.Increment(rng.UniformU64(40));
  BitWriter w;
  a.SerializeSparse(w);
  BitReader r(w);
  CompactCounterArray b;
  b.DeserializeSparse(r, a.size());
  ASSERT_FALSE(r.overflow());
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b.Get(i), a.Get(i));
}

TEST(CompactCounterArrayTest, SparseSerializeSkipsZeroRuns) {
  // One nonzero cell in a huge, otherwise-empty array: the sparse
  // encoding must cost O(log size) bits, not one bit per empty cell
  // (which is what the dense message format pays).
  CompactCounterArray a(100000);
  a.Add(73611, 9);
  BitWriter sparse;
  a.SerializeSparse(sparse);
  EXPECT_LT(sparse.size_bits(), 128u);
  BitWriter dense;
  a.Serialize(dense);
  EXPECT_GT(dense.size_bits(), 100000u);
  BitReader r(sparse);
  CompactCounterArray b;
  b.DeserializeSparse(r, a.size());
  ASSERT_FALSE(r.overflow());
  EXPECT_EQ(b.Get(73611), 9u);
  EXPECT_EQ(b.Total(), 9u);
}

TEST(CompactCounterArrayTest, SparseDeserializeRejectsUnexpectedSize) {
  CompactCounterArray a(50);
  a.Add(3, 7);
  BitWriter w;
  a.SerializeSparse(w);
  BitReader r(w);
  CompactCounterArray b;
  // Wrong expectation: the payload's size field (50) must be refused
  // without allocating, leaving the reader in an overflow state.
  b.DeserializeSparse(r, 49);
  EXPECT_TRUE(r.overflow());
  EXPECT_EQ(b.size(), 0u);
}

TEST(CompactCounterArrayTest, ResetClears) {
  CompactCounterArray a(8);
  a.Add(2, 500);
  a.Reset(8);
  EXPECT_EQ(a.Get(2), 0u);
  EXPECT_EQ(a.Total(), 0u);
}

// ---- The spill table against a std::map reference -----------------------

// Heap bytes of the node-based overflow map the spill table replaced, for
// the same spilled cells: ~48 bytes a node plus 8 per bucket, and the
// nibble array.
size_t NodeMapHeapBytes(const CompactCounterArray& a, size_t packed_bytes) {
  std::unordered_map<size_t, uint64_t> overflow;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Get(i) >= 15) overflow[i] = a.Get(i) - 15;
  }
  return packed_bytes + overflow.size() * 48 +
         overflow.bucket_count() * sizeof(void*);
}

// Spill-table slots once `spilled` cells have spilled: 8, doubled until
// the load is at most 3/4.
size_t SpillSlotsFor(size_t spilled) {
  if (spilled == 0) return 0;
  size_t slots = 8;
  while (spilled * 4 > slots * 3) slots *= 2;
  return slots;
}

void ExpectMatches(const CompactCounterArray& a,
                   const std::map<size_t, uint64_t>& ref) {
  uint64_t total = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto it = ref.find(i);
    const uint64_t want = it == ref.end() ? 0 : it->second;
    ASSERT_EQ(a.Get(i), want) << "cell " << i;
    total += want;
  }
  EXPECT_EQ(a.Total(), total);
}

// Random deltas around the nibble boundary (1..30): cells cross 15 from
// below, land on it exactly and grow past it, so the table sees inserts,
// updates and every growth step.
TEST(CompactCounterArrayTest, SpillTableMatchesMapReference) {
  for (const size_t n : {size_t{1}, size_t{13}, size_t{1000}, size_t{20000}}) {
    SCOPED_TRACE(n);
    Rng rng(n);
    CompactCounterArray a(n);
    std::map<size_t, uint64_t> ref;
    const size_t ops = 3 * n + 100;
    for (size_t op = 0; op < ops; ++op) {
      const size_t i = rng.UniformU64(n);
      const uint64_t d = 1 + rng.UniformU64(30);
      a.Add(i, d);
      ref[i] += d;
    }
    ExpectMatches(a, ref);
    size_t spilled = 0;
    for (const auto& [cell, value] : ref) spilled += value > 15 ? 1 : 0;
    const size_t packed = (n + 1) / 2;
    EXPECT_EQ(a.HeapBytes(), packed + 16 * SpillSlotsFor(spilled));
    EXPECT_LE(a.HeapBytes(), NodeMapHeapBytes(a, packed));

    // Sum with a second random array, cell by cell.
    CompactCounterArray b(n);
    for (size_t op = 0; op < ops; ++op) {
      const size_t i = rng.UniformU64(n);
      const uint64_t d = 1 + rng.UniformU64(30);
      b.Add(i, d);
      ref[i] += d;
    }
    ASSERT_TRUE(a.AddFrom(b));
    ExpectMatches(a, ref);
    EXPECT_FALSE(a.AddFrom(CompactCounterArray(n + 1)));

    // Dense and sparse round trips.
    BitWriter dense;
    a.Serialize(dense);
    BitReader dense_reader(dense);
    CompactCounterArray from_dense;
    from_dense.Deserialize(dense_reader);
    ASSERT_FALSE(dense_reader.overflow());
    ExpectMatches(from_dense, ref);
    BitWriter sparse;
    a.SerializeSparse(sparse);
    BitReader sparse_reader(sparse);
    CompactCounterArray from_sparse;
    from_sparse.DeserializeSparse(sparse_reader, n);
    ASSERT_FALSE(sparse_reader.overflow());
    ExpectMatches(from_sparse, ref);

    // Reset zeroes every cell and frees the table.
    a.Reset(n);
    ExpectMatches(a, {});
    EXPECT_EQ(a.HeapBytes(), packed);
  }
}

// Writes a sparse-format payload by hand: `claimed` cells, then `pairs`
// (gap, value) entries, whatever their count says.
BitWriter SparsePayload(size_t claimed, uint64_t nonzero,
                        const std::vector<std::pair<uint64_t, uint64_t>>&
                            pairs) {
  BitWriter w;
  w.WriteGamma(claimed + 1);
  w.WriteBool(true);
  w.WriteCounter(nonzero);
  for (const auto& [gap, value] : pairs) {
    w.WriteCounter(gap);
    w.WriteGamma(value);
  }
  return w;
}

// Hostile sparse payloads cannot grow the spill table past what the
// receiver's expected size allows: every cell spilled is the most a valid
// payload can do, and more entries than cells, a gap past the end or a
// wrong size field are refused.
TEST(CompactCounterArrayTest, HostileSparsePayloadsStayWithinExpectedSize) {
  const size_t n = 100;
  const size_t packed = (n + 1) / 2;
  std::vector<std::pair<uint64_t, uint64_t>> every_cell(n, {0, 1000000});
  {
    // The largest valid payload: all n cells spilled.
    BitWriter w = SparsePayload(n, n, every_cell);
    BitReader r(w);
    CompactCounterArray a;
    a.DeserializeSparse(r, n);
    EXPECT_FALSE(r.overflow());
    EXPECT_EQ(a.Total(), n * 1000000);
    EXPECT_EQ(a.HeapBytes(), packed + 16 * SpillSlotsFor(n));
  }
  {
    // One entry more than there are cells.
    every_cell.push_back({0, 1000000});
    BitWriter w = SparsePayload(n, n + 1, every_cell);
    BitReader r(w);
    CompactCounterArray a;
    a.DeserializeSparse(r, n);
    EXPECT_TRUE(r.overflow());
    EXPECT_LE(a.HeapBytes(), packed + 16 * SpillSlotsFor(n));
  }
  {
    // A gap that lands past the last cell.
    BitWriter w = SparsePayload(n, 2, {{50, 1000}, {60, 1000}});
    BitReader r(w);
    CompactCounterArray a;
    a.DeserializeSparse(r, n);
    EXPECT_TRUE(r.overflow());
    EXPECT_LE(a.HeapBytes(), packed + 16 * SpillSlotsFor(1));
  }
  {
    // A size field above the expectation: refused before any allocation.
    BitWriter w = SparsePayload(size_t{1} << 40, 1, {{0, 1000}});
    BitReader r(w);
    CompactCounterArray a;
    a.DeserializeSparse(r, n);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.HeapBytes(), 0u);
  }
}

TEST(SaturatingCounterTest, CapsAtThreshold) {
  SaturatingCounter c(5);
  for (int i = 0; i < 100; ++i) c.Increment();
  EXPECT_EQ(c.value(), 5u);
  EXPECT_TRUE(c.saturated());
  EXPECT_EQ(c.SpaceBits(), 3);  // values in [0,5] fit in 3 bits
}

TEST(SaturatingCounterTest, ExactBelowCap) {
  SaturatingCounter c(100);
  for (int i = 0; i < 42; ++i) c.Increment();
  EXPECT_EQ(c.value(), 42u);
  EXPECT_FALSE(c.saturated());
}

}  // namespace
}  // namespace l1hh
