#include "summary/counter_groups.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace l1hh {

CounterGroups::CounterGroups(size_t capacity) : capacity_(capacity) {
  if (capacity_ > kMaxCapacity) {
    std::fprintf(stderr, "CounterGroups: capacity %zu exceeds %zu\n",
                 capacity_, kMaxCapacity);
    std::abort();
  }
  // Index: a power of two >= 4k cells of 8 bytes.  Any load below 1 lets
  // a probe always meet an empty cell, so the table never grows; at most
  // 1/4 keeps most probes and backward shifts to one cell, which makes
  // their loops predictable, at the memory the linked structure used
  // (measured in docs/ALGORITHMS.md, "Counter groups").
  int bits = 1;
  while ((size_t{1} << bits) < 4 * capacity_) ++bits;
  tag_shift_ = 32 - bits;
  mask_ = (size_t{1} << bits) - 1;
  Reset(0);
}

void CounterGroups::Reset(uint64_t offset) {
  offset_ = offset;
  first_live_ = static_cast<uint32_t>(capacity_);
  // Every slot starts as a never-used zombie in run 0 (count 0 <= offset).
  // Run records: at most k runs are non-empty, plus the one HandOver
  // opens before it retires the run it empties.
  slots_.assign(capacity_, Slot{0, 0, kNone});
  runs_.assign(capacity_ + 1, Run{0, 0, static_cast<uint32_t>(capacity_)});
  free_runs_.clear();
  for (size_t r = capacity_; r >= 1; --r) {
    free_runs_.push_back(static_cast<uint32_t>(r));
  }
  if (capacity_ == 0) free_runs_.push_back(0);
  cells_.assign(mask_ + 1, Cell{kNone, 0});
}

size_t CounterGroups::Probe(uint64_t key) const {
  const uint32_t tag = Tag(key);
  size_t i = tag >> tag_shift_;
  while (cells_[i].slot != kNone &&
         (cells_[i].tag != tag || slots_[cells_[i].slot].key != key)) {
    i = (i + 1) & mask_;
  }
  return i;
}

size_t CounterGroups::EraseCell(size_t cell) {
  size_t hole = cell;
  for (size_t j = (hole + 1) & mask_; cells_[j].slot != kNone;
       j = (j + 1) & mask_) {
    // The entry at j may fill the hole iff the hole lies cyclically in
    // [home, j), i.e. moving it back keeps it reachable from its home.
    const size_t home = cells_[j].tag >> tag_shift_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      cells_[hole] = cells_[j];
      slots_[cells_[hole].slot].cell = static_cast<uint32_t>(hole);
      hole = j;
    }
  }
  cells_[hole].slot = kNone;
  return hole;
}

void CounterGroups::SwapSlots(uint32_t a, uint32_t b) {
  std::swap(slots_[a].key, slots_[b].key);
  std::swap(slots_[a].cell, slots_[b].cell);
  if (slots_[a].cell != kNone) cells_[slots_[a].cell].slot = a;
  if (slots_[b].cell != kNone) cells_[slots_[b].cell].slot = b;
}

void CounterGroups::HandOver(uint32_t s, uint64_t count) {
  const uint32_t from = slots_[s].run;
  const uint32_t next = s + 1;
  if (next < capacity_ && RunOf(next).count == count) {
    const uint32_t to = slots_[next].run;
    runs_[to].start = s;
    slots_[s].run = to;
  } else {
    const uint32_t to = free_runs_.back();
    free_runs_.pop_back();
    runs_[to] = Run{count, s, next};
    slots_[s].run = to;
  }
  if (--runs_[from].end == runs_[from].start) free_runs_.push_back(from);
}

int CounterGroups::InsertNew(uint64_t key) {
  const uint32_t b = first_live_ - 1;  // the last zombie slot
  size_t c = Probe(key);
  if (cells_[c].slot != kNone) {
    SwapSlots(cells_[c].slot, b);  // the key's own zombie takes the slot
  } else {
    if (slots_[b].cell != kNone) {
      // Retire the zombie's key.  If that opens a hole on the key's probe
      // path, the key belongs in the hole instead.
      const size_t hole = EraseCell(slots_[b].cell);
      const size_t home = Tag(key) >> tag_shift_;
      if (((hole - home) & mask_) < ((c - home) & mask_)) c = hole;
    }
    cells_[c] = Cell{b, Tag(key)};
    slots_[b].key = key;
    slots_[b].cell = static_cast<uint32_t>(c);
  }
  HandOver(b, offset_ + 1);
  first_live_ = b;
  return static_cast<int>(c);
}

uint64_t CounterGroups::ReplaceMin(uint64_t key) {
  if (first_live_ == capacity_) return 0;  // k == 0: nothing to replace
  const uint32_t p = first_live_;
  const uint64_t old_count = RunOf(p).count - offset_;
  EraseCell(slots_[p].cell);
  const size_t c = Probe(key);
  cells_[c] = Cell{p, Tag(key)};
  slots_[p].key = key;
  slots_[p].cell = static_cast<uint32_t>(c);
  Increment(static_cast<int>(c));
  return old_count;
}

bool CounterGroups::Assign(uint64_t offset,
                           const std::vector<Counter>& ascending) {
  Reset(offset);
  const size_t n = std::min(ascending.size(), capacity_);
  const auto first = static_cast<uint32_t>(capacity_ - n);
  runs_[0].end = first;
  if (first == 0) free_runs_.push_back(0);
  uint32_t run = kNone;
  for (size_t i = 0; i < n; ++i) {
    const auto s = static_cast<uint32_t>(first + i);
    const uint64_t count = offset + ascending[i].count;
    if (run == kNone || runs_[run].count != count) {
      run = free_runs_.back();
      free_runs_.pop_back();
      runs_[run] = Run{count, s, s};
    }
    ++runs_[run].end;
    const size_t c = Probe(ascending[i].key);
    if (cells_[c].slot != kNone) {
      Reset(offset);
      return false;
    }
    cells_[c] = Cell{s, Tag(ascending[i].key)};
    slots_[s] = Slot{ascending[i].key, run, static_cast<uint32_t>(c)};
  }
  first_live_ = first;
  return true;
}

std::vector<CounterGroups::Counter> CounterGroups::Combine(
    const CounterGroups& a, uint64_t a_only_bonus, const CounterGroups& b,
    uint64_t b_only_bonus) {
  std::vector<Counter> out;
  out.reserve(a.live_size() + b.live_size());
  // a's entries land at index (slot - a.first_live_), so a key of b found
  // in a's index adds to its entry directly, taking back the a-only bonus
  // (unsigned wrap-around makes the sum exact).
  a.ForEach([&](uint64_t key, uint64_t count) {
    out.push_back({key, count + a_only_bonus});
  });
  b.ForEach([&](uint64_t key, uint64_t count) {
    const int e = a.Find(key);
    if (e < 0) {
      out.push_back({key, count + b_only_bonus});
    } else {
      out[a.cells_[e].slot - a.first_live_].count += count - a_only_bonus;
    }
  });
  return out;
}

size_t CounterGroups::SpaceBits(int key_bits) const {
  // Capacity-based accounting, matching the paper's "a table of length k
  // whose key entries store integers in [0, K] and value entries integers
  // in [0, V]": every slot is charged key_bits plus a value width sized to
  // the largest count the table currently holds.  (Content-based gamma
  // accounting would let a churning table on a uniform stream report a
  // handful of bits, which is not what any implementation allocates.)
  const int value_bits = BitWidth(MaxCount());
  return capacity_ * (static_cast<size_t>(key_bits) +
                      static_cast<size_t>(value_bits)) +
         BitWidth(offset_);
}

void CounterGroups::Serialize(BitWriter& out) const {
  out.WriteGamma(capacity_ + 1);
  out.WriteCounter(offset_);
  out.WriteGamma(live_size() + 1);
  // Slots are already in count order; only each run's keys need sorting.
  std::vector<uint64_t> keys;
  for (size_t s = first_live_; s < capacity_;) {
    const Run& run = RunOf(s);
    keys.clear();
    for (; s < run.end; ++s) keys.push_back(slots_[s].key);
    std::sort(keys.begin(), keys.end());
    for (const uint64_t key : keys) {
      out.WriteU64(key);
      out.WriteGamma(run.count - offset_);
    }
  }
}

void CounterGroups::Deserialize(BitReader& in) {
  // The capacity field declares the structure's k, not elements present
  // in the stream — an empty or sparse structure legitimately declares a
  // capacity far beyond its remaining bits — so it is checked against the
  // caller's k rather than trusted for an allocation.  The bit-plausibility
  // clamp applies to the entry count instead (each entry is >= 65 wire
  // bits).
  const uint64_t capacity = in.ReadGamma() - 1;
  const uint64_t offset = in.ReadCounter();
  if (capacity != capacity_) {
    (void)in.CheckedCount(~uint64_t{0});  // force overflow status
    Reset(0);
    return;
  }
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(in.CheckedCount(in.ReadGamma() - 1), capacity));
  std::vector<Counter> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n && !in.overflow(); ++i) {
    const Counter entry{in.ReadU64(), in.ReadGamma()};
    // Only the canonical order (strictly ascending) is accepted, so the
    // rebuild is one O(k) pass.
    if (entry.count > ~uint64_t{0} - offset ||
        (!entries.empty() && !(entries.back() < entry))) {
      (void)in.CheckedCount(~uint64_t{0});
      break;
    }
    entries.push_back(entry);
  }
  if (in.overflow()) {
    Reset(0);
    return;
  }
  if (!Assign(offset, entries)) (void)in.CheckedCount(~uint64_t{0});
}

}  // namespace l1hh
