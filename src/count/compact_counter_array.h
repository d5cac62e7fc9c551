// A variable-length counter array in the spirit of Blandford–Blelloch
// [BB08], which the paper invokes for its RAM model: "We store an integer C
// using a variable length array which allows us to read and update C in O(1)
// time and O(log C) bits of space" (Section 2.3).
//
// Layout: every counter owns a 4-bit nibble in a packed base array; a
// counter that outgrows its nibble sets it to 15 and keeps its high part
// (value - 15) in the spill table: flat 16-byte slots {cell + 1, high
// part}, 0 marking an empty slot, linearly probed from a multiplicative
// hash of the cell, power-of-two capacity doubled at 3/4 load.  Cells
// never shrink, so slots are never deleted; Reset frees the table.  A
// spilled cell costs 16 / load = 21-43 bytes of table.  Reads and
// increments are O(1) expected; the occupied space is
// Theta(sum_i log c_i) + O(n) bits, matching the accounting the paper
// needs for tables T2/T3 of Algorithm 2.  SpaceBits() reports the
// information-theoretic gamma-code cost, which is what the benches chart;
// HeapBytes() reports what this process actually allocated.
#ifndef L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_
#define L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bit_stream.h"
#include "util/bit_util.h"

namespace l1hh {

class CompactCounterArray {
 public:
  explicit CompactCounterArray(size_t n = 0) { Reset(n); }

  void Reset(size_t n);

  size_t size() const { return size_; }

  uint64_t Get(size_t i) const {
    const uint8_t nib = Nibble(i);
    if (nib < kNibbleMax) return nib;
    return kNibbleMax + SpillHigh(i);
  }

  /// Hints that cell i is about to be read: fetches the cache line of its
  /// nibble.  Reading a run of cells needs one hint per cache line.
  void Prefetch(size_t i) const { __builtin_prefetch(packed_.data() + i / 2); }

  /// counter[i] += delta.
  void Add(size_t i, uint64_t delta);

  void Increment(size_t i) { Add(i, 1); }

  /// Cell-wise sum: counter[i] += other[i] for all i.  Returns false (and
  /// changes nothing) when the arrays differ in length.  This is the
  /// combination step of every table merge (e.g. BdwOptimal::MergeFrom).
  bool AddFrom(const CompactCounterArray& other);

  /// Sum of all counters.
  uint64_t Total() const { return total_; }

  /// True iff every counter in [begin, end) is zero (a nibble is zero iff
  /// its counter is).  Branch-free over whole bytes, so checking a range
  /// that should be empty runs at memory speed.
  bool AllZero(size_t begin, size_t end) const {
    uint8_t any = 0;
    if (begin < end && (begin & 1) != 0) any |= Nibble(begin++);
    if (begin < end && (end & 1) != 0) any |= Nibble(--end);
    for (size_t b = begin / 2; b < end / 2; ++b) any |= packed_[b];
    return any == 0;
  }

  /// Information-theoretic space: gamma-code cost of every nonzero counter
  /// plus one bit per (empty) slot; this matches the paper's
  /// "each entry can store an integer in [0, B]" tables when contents are
  /// small and degrades gracefully (O(log C) per counter) when they grow.
  size_t SpaceBits() const;

  /// Actual process memory held by this structure: the nibble array plus
  /// the spill table's slots.
  size_t HeapBytes() const;

  /// Dense wire encoding: one gamma code per cell (1 bit per empty cell).
  /// This is what the Section 4 communication games send — the message
  /// size tracks the structure's cell count, the quantity the
  /// message-vs-eps experiments chart.
  void Serialize(BitWriter& out) const;
  void Deserialize(BitReader& in);

  /// Snapshot wire encoding: nonzero cells as gamma-coded (gap, value)
  /// pairs when the grid is sparse — low-occupancy T2/T3 states (window
  /// buckets, shard partials, early checkpoints) cost Theta(nonzero)
  /// instead of Theta(size) bits — with an automatic dense fallback
  /// (1-bit format flag) for saturated grids, where gap codes would only
  /// add overhead.  This is what the snapshot path persists (measured
  /// table: docs/SNAPSHOTS.md).
  void SerializeSparse(BitWriter& out) const;

  /// Restores a SerializeSparse payload.  `expected_size` is the cell
  /// count the caller's configuration implies (e.g. rows * reps for T2);
  /// a payload claiming any other size marks the reader corrupt WITHOUT
  /// allocating.  The wire size can legitimately dwarf the payload bits
  /// (that is the point of the sparse encoding), so — unlike the dense
  /// format — the size field cannot be sanity-bounded by the bits
  /// remaining, only by the caller's expectation.
  void DeserializeSparse(BitReader& in, size_t expected_size);

 private:
  static constexpr uint8_t kNibbleMax = 15;  // nibble value 15 == "spilled"

  uint8_t Nibble(size_t i) const {
    const uint8_t byte = packed_[i >> 1];
    return (i & 1) != 0 ? (byte >> 4) : (byte & 0x0f);
  }
  void SetNibble(size_t i, uint8_t v) {
    uint8_t& byte = packed_[i >> 1];
    if ((i & 1) != 0) {
      byte = static_cast<uint8_t>((byte & 0x0f) | (v << 4));
    } else {
      byte = static_cast<uint8_t>((byte & 0xf0) | v);
    }
  }

  // One spill-table slot: key = cell + 1 (0 = empty), high = value - 15.
  struct Spill {
    uint64_t key;
    uint64_t high;
  };

  // Home slot of `key` in a table of 2^(64 - spill_shift_) slots.
  size_t SpillHome(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> spill_shift_);
  }

  // The slot holding `key`, or the empty slot where it would go.  The
  // table must be nonempty (and, at <= 3/4 load, always has an empty slot).
  size_t SpillProbe(uint64_t key) const {
    const size_t mask = spill_.size() - 1;
    size_t s = SpillHome(key);
    while (spill_[s].key != key && spill_[s].key != 0) s = (s + 1) & mask;
    return s;
  }

  // High part of spilled cell i: 0 when it holds exactly 15 and so never
  // took a slot (an empty slot's high part is 0).
  uint64_t SpillHigh(size_t i) const {
    if (spill_.empty()) return 0;
    return spill_[SpillProbe(static_cast<uint64_t>(i) + 1)].high;
  }

  // The high part of cell i, inserting a zero slot when it has none.
  uint64_t& SpillSlot(size_t i);
  void GrowSpill();

  size_t size_ = 0;
  uint64_t total_ = 0;
  std::vector<uint8_t> packed_;  // 2 counters per byte
  std::vector<Spill> spill_;     // empty, or a power-of-two slot count
  size_t spilled_ = 0;           // occupied slots
  int spill_shift_ = 64;         // 64 - log2(spill_.size())
};

}  // namespace l1hh

#endif  // L1HH_COUNT_COMPACT_COUNTER_ARRAY_H_
