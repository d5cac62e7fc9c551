#include "summary/space_saving.h"

#include <algorithm>

namespace l1hh {

SpaceSaving::SpaceSaving(size_t k, int key_bits)
    : groups_(k), key_bits_(key_bits) {}

void SpaceSaving::Insert(uint64_t item) {
  ++processed_;
  const int e = groups_.Find(item);
  if (e >= 0) {
    groups_.Increment(e);
    return;
  }
  if (!groups_.Full()) {
    groups_.InsertNew(item);
    return;
  }
  groups_.ReplaceMin(item);
}

std::vector<SpaceSaving::Entry> SpaceSaving::Entries() const {
  std::vector<Entry> out;
  out.reserve(groups_.live_size());
  groups_.ForEach(
      [&](uint64_t item, uint64_t count) { out.push_back({item, count}); });
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count > b.count || (a.count == b.count && a.item < b.item);
  });
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::EntriesAbove(
    uint64_t threshold) const {
  std::vector<Entry> all = Entries();
  std::vector<Entry> out;
  for (const Entry& e : all) {
    if (e.count >= threshold) out.push_back(e);
  }
  return out;
}

SpaceSaving SpaceSaving::Merge(const SpaceSaving& a, const SpaceSaving& b) {
  // Items tracked by only one side get the other side's global
  // overestimate added, keeping the one-sided error invariant.
  std::vector<CounterGroups::Counter> combined = CounterGroups::Combine(
      a.groups_, b.MinCount(), b.groups_, a.MinCount());
  // Keep the k largest; a tie at the cut keeps the smaller item ids.
  const size_t k = a.k();
  if (combined.size() > k) {
    std::nth_element(combined.begin(), combined.begin() + k, combined.end(),
                     [](const CounterGroups::Counter& x,
                        const CounterGroups::Counter& y) {
                       return x.count > y.count ||
                              (x.count == y.count && x.key < y.key);
                     });
    combined.resize(k);
  }
  std::sort(combined.begin(), combined.end());
  SpaceSaving merged(k, a.key_bits_);
  merged.processed_ = a.processed_ + b.processed_;
  merged.groups_.Assign(0, combined);
  return merged;
}

void SpaceSaving::Serialize(BitWriter& out) const {
  out.WriteBits(static_cast<uint64_t>(key_bits_), 8);
  out.WriteCounter(processed_);
  groups_.Serialize(out);
}

SpaceSaving SpaceSaving::Deserialize(BitReader& in, size_t k) {
  const int key_bits = static_cast<int>(in.ReadBits(8));
  const uint64_t processed = in.ReadCounter();
  SpaceSaving ss(k, key_bits);
  ss.groups_.Deserialize(in);
  ss.processed_ = processed;
  return ss;
}

}  // namespace l1hh
