#include "summary/misra_gries.h"

#include <algorithm>

namespace l1hh {

MisraGries::MisraGries(size_t k, int key_bits)
    : groups_(k), key_bits_(key_bits) {}

void MisraGries::Insert(uint64_t item) {
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
  groups_.DecrementAll();
}

std::vector<MisraGries::Entry> MisraGries::Entries() const {
  std::vector<Entry> out;
  out.reserve(groups_.live_size());
  groups_.ForEach(
      [&](uint64_t item, uint64_t count) { out.push_back({item, count}); });
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count > b.count || (a.count == b.count && a.item < b.item);
  });
  return out;
}

std::vector<MisraGries::Entry> MisraGries::EntriesAbove(
    uint64_t threshold) const {
  std::vector<Entry> out;
  groups_.ForEach([&](uint64_t item, uint64_t count) {
    if (count >= threshold) out.push_back({item, count});
  });
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count > b.count || (a.count == b.count && a.item < b.item);
  });
  return out;
}

MisraGries MisraGries::Merge(const MisraGries& a, const MisraGries& b) {
  std::vector<CounterGroups::Counter> combined =
      CounterGroups::Combine(a.groups_, 0, b.groups_, 0);
  // Subtract the (k+1)-st largest count; only entries above it survive,
  // and there are at most k of them.
  const size_t k = a.k();
  uint64_t cut = 0;
  if (combined.size() > k) {
    std::nth_element(combined.begin(), combined.begin() + k, combined.end(),
                     [](const CounterGroups::Counter& x,
                        const CounterGroups::Counter& y) {
                       return x.count > y.count;
                     });
    cut = combined[k].count;
    combined.resize(k);
  }
  std::erase_if(combined, [cut](const CounterGroups::Counter& c) {
    return c.count <= cut;
  });
  for (CounterGroups::Counter& c : combined) c.count -= cut;
  std::sort(combined.begin(), combined.end());

  // Every estimate undercounts by at most err_a + err_b + cut, and each
  // of those decrements removed k+1 units, so the merged ErrorBound stays
  // <= (n_a + n_b)/(k+1). The counts sit above that offset, so the
  // estimates are still the combined counts minus the cut.
  MisraGries merged(k, a.key_bits_);
  merged.processed_ = a.processed_ + b.processed_;
  merged.groups_.Assign(a.ErrorBound() + b.ErrorBound() + cut, combined);
  return merged;
}

void MisraGries::Serialize(BitWriter& out) const {
  out.WriteBits(static_cast<uint64_t>(key_bits_), 8);
  out.WriteCounter(processed_);
  groups_.Serialize(out);
}

MisraGries MisraGries::Deserialize(BitReader& in, size_t k) {
  const int key_bits = static_cast<int>(in.ReadBits(8));
  const uint64_t processed = in.ReadCounter();
  MisraGries mg(k, key_bits);
  mg.groups_.Deserialize(in);
  mg.processed_ = processed;
  return mg;
}

}  // namespace l1hh
