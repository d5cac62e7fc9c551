// Differential counter groups: the [DLOM02] structure behind O(1)
// worst-case Misra–Gries and Space-Saving updates, laid out flat.
//
// The k slots form one array sorted by absolute count, as contiguous runs
// of equal count; a run table holds each run's (count, start, end) and
// every slot records its run.  Effective counts are (absolute - offset),
// so the Misra–Gries "decrement all counters" step is one offset bump, and
// the slots whose count has fallen to the offset ("zombies") are always a
// prefix of the array, consumed one per insertion.  An increment swaps its
// slot to the end of its run — the boundary with the next run — and hands
// it over, so every update touches O(1) slots and runs worst case, as the
// paper claims for its algorithms (Section 3.1 and the reference to
// Section 3.3 of [DLOM02] in the proof of Theorem 4).  Keys are found
// through a fixed-capacity open-addressing index: a power of two >= 4k
// cells, linear probing, backward-shift deletion (no tombstones), never
// rehashed.  See docs/ALGORITHMS.md, "Counter groups".
#ifndef L1HH_SUMMARY_COUNTER_GROUPS_H_
#define L1HH_SUMMARY_COUNTER_GROUPS_H_

#include <cstdint>
#include <vector>

#include "util/bit_stream.h"
#include "util/bit_util.h"

namespace l1hh {

class CounterGroups {
 public:
  /// A key with its effective count: the unit of merges and rebuilds.
  struct Counter {
    uint64_t key;
    uint64_t count;
    /// Canonical order: count ascending, then key ascending.
    friend bool operator<(const Counter& x, const Counter& y) {
      return x.count < y.count || (x.count == y.count && x.key < y.key);
    }
  };

  /// The largest capacity: its 4k index cells still fit the int handles
  /// and the 32-bit tags.  A larger one aborts (it would need >= 32 GiB).
  static constexpr size_t kMaxCapacity = size_t{1} << 29;

  explicit CounterGroups(size_t capacity);

  size_t capacity() const { return capacity_; }
  /// Number of entries with effective count >= 1.
  size_t live_size() const { return capacity_ - first_live_; }
  bool Full() const { return first_live_ == 0; }

  /// Returns the handle of `key`'s live entry, or -1 when it is absent or
  /// a zombie.  A handle stays valid until the next InsertNew, ReplaceMin,
  /// Assign or Deserialize.
  int Find(uint64_t key) const {
    const uint32_t tag = Tag(key);
    for (size_t i = tag >> tag_shift_;; i = (i + 1) & mask_) {
      const Cell cell = cells_[i];
      if (cell.slot == kNone) return -1;
      if (cell.tag == tag && slots_[cell.slot].key == key) {
        return RunOf(cell.slot).count > offset_ ? static_cast<int>(i) : -1;
      }
    }
  }

  /// Effective count of `key` (0 if absent or zombie).
  uint64_t Count(uint64_t key) const {
    const int e = Find(key);
    return e < 0 ? 0 : RunOf(cells_[e].slot).count - offset_;
  }

  /// entry must be live; adds one to its count.  O(1).
  void Increment(int entry) {
    const uint32_t s = cells_[entry].slot;
    const Run& run = RunOf(s);
    const uint32_t last = run.end - 1;
    if (s != last) SwapSlots(s, last);
    HandOver(last, run.count + 1);
  }

  /// Inserts `key` (absent or a zombie) with effective count 1.  Requires
  /// !Full().  O(1): reuses the last zombie slot.  Returns the new handle.
  int InsertNew(uint64_t key);

  /// Misra–Gries step: subtract one from every counter.  O(1).
  void DecrementAll() {
    ++offset_;
    if (first_live_ < capacity_) {
      const Run& lowest = RunOf(first_live_);
      if (lowest.count <= offset_) first_live_ = lowest.end;
    }
  }

  /// Space-Saving step: requires Full() and `key` absent.  Gives the
  /// first live slot — a minimum-count entry — to `key` and increments
  /// it.  Returns the replaced minimum count.  O(1).
  uint64_t ReplaceMin(uint64_t key);

  /// Smallest effective count among live entries (0 if empty).
  uint64_t MinCount() const {
    return first_live_ < capacity_ ? RunOf(first_live_).count - offset_ : 0;
  }
  /// Largest effective count among live entries (0 if empty).
  uint64_t MaxCount() const {
    return first_live_ < capacity_ ? RunOf(capacity_ - 1).count - offset_
                                   : 0;
  }

  /// Total decrements applied via DecrementAll (the Misra–Gries
  /// undercount bound).
  uint64_t decrement_count() const { return offset_; }

  /// Visits every live (key, effective count) pair in ascending count
  /// order.
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t s = first_live_; s < capacity_; ++s) {
      fn(slots_[s].key, RunOf(s).count - offset_);
    }
  }

  /// Replaces the contents: offset `offset`, and the entries of
  /// `ascending` — distinct keys, effective counts >= 1 in ascending
  /// order, at most capacity() of them — laid out in the given order.
  /// O(k).  Returns false, leaving the structure empty, on a repeated key.
  bool Assign(uint64_t offset, const std::vector<Counter>& ascending);

  /// The live entries of `a` and `b` combined by key in one pass over b
  /// through a's index: counts of shared keys add, a key only in `a` gets
  /// `a_only_bonus` added and a key only in `b` gets `b_only_bonus`.
  /// Unordered.  O(k).
  static std::vector<Counter> Combine(const CounterGroups& a,
                                      uint64_t a_only_bonus,
                                      const CounterGroups& b,
                                      uint64_t b_only_bonus);

  /// Paper-style accounting: per slot, `key_bits` for the id plus a value
  /// width sized to the largest count, plus the offset register.
  size_t SpaceBits(int key_bits) const;

  /// Canonical order (count asc, key asc): serializing a deserialized
  /// structure reproduces the identical bit string.
  void Serialize(BitWriter& out) const;
  /// Reads a serialized structure of this one's capacity in O(k); a
  /// different capacity, entries out of canonical order (which covers a
  /// repeated key) or a count past 2^64 leaves the reader in its overflow
  /// state (and this structure empty) before any allocation.
  void Deserialize(BitReader& in);

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // A slot position keeps its run; the entry in it (key and index cell,
  // kNone for a zombie slot no key has ever used) moves between positions.
  struct Slot {
    uint64_t key;
    uint32_t run;
    uint32_t cell;
  };
  struct Run {
    uint64_t count;  // absolute; effective = count - offset_
    uint32_t start;
    uint32_t end;
  };
  // The tag is the top half of the key's multiplicative hash: its top
  // bits are the key's home cell, and it filters key comparisons.
  struct Cell {
    uint32_t slot;  // kNone: empty cell
    uint32_t tag;
  };

  static uint32_t Tag(uint64_t key) {
    return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> 32);
  }
  const Run& RunOf(size_t slot) const { return runs_[slots_[slot].run]; }

  /// Empties the structure and sets the offset.
  void Reset(uint64_t offset);
  /// The cell holding `key`, or the empty cell where it would go.
  size_t Probe(uint64_t key) const;
  /// Removes a cell by backward shift, re-pointing the moved entries.
  /// Returns the cell left empty.
  size_t EraseCell(size_t cell);
  /// Exchanges the entries at two slot positions (each keeps its run).
  void SwapSlots(uint32_t a, uint32_t b);
  /// Slot s is the last of its run: hands it to the run holding `count`
  /// just after it, opening that run when absent.
  void HandOver(uint32_t s, uint64_t count);

  size_t capacity_;
  uint64_t offset_ = 0;
  uint32_t first_live_ = 0;  // slots [0, first_live_) are zombies
  int tag_shift_ = 31;  // home cell = tag >> tag_shift_
  size_t mask_ = 1;
  std::vector<Slot> slots_;
  std::vector<Run> runs_;            // capacity_ + 1 records
  std::vector<uint32_t> free_runs_;  // ids of unused run records
  std::vector<Cell> cells_;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_COUNTER_GROUPS_H_
