#include "summary/hashed_misra_gries.h"

#include <algorithm>

#include "util/bit_util.h"

namespace l1hh {

HashedMisraGries::HashedMisraGries(size_t counters, size_t top_ids,
                                   UniversalHash hash, int id_bits)
    : hash_(hash),
      mg_(counters, BitWidth(hash.range() - 1)),
      top_capacity_(top_ids),
      id_bits_(id_bits) {
  top_.reserve(top_ids);
}

void HashedMisraGries::Insert(uint64_t item) {
  const uint64_t key = hash_(item);
  mg_.Insert(key);
  const uint64_t my_count = mg_.Estimate(key);
  if (my_count == 0) return;  // the insert decremented-all; order unchanged

  // Already tracked?  (Also refresh duplicates defensively.)
  for (const TopId& t : top_) {
    if (t.id == item) return;
  }
  if (top_.size() < top_capacity_) {
    top_.push_back({item, key});
    return;
  }
  // Replace the weakest tracked id if this item now outranks it (the
  // paper's Case 2: x enters the top-1/phi set, so some y left it).
  size_t weakest = 0;
  uint64_t weakest_count = UINT64_MAX;
  for (size_t i = 0; i < top_.size(); ++i) {
    const uint64_t c = mg_.Estimate(top_[i].key);
    if (c < weakest_count) {
      weakest_count = c;
      weakest = i;
    }
  }
  if (my_count > weakest_count) {
    top_[weakest] = {item, key};
  }
}

std::vector<HashedMisraGries::Entry> HashedMisraGries::TopEntries() const {
  std::vector<Entry> out;
  out.reserve(top_.size());
  for (const TopId& t : top_) {
    const uint64_t c = mg_.Estimate(t.key);
    if (c > 0) out.push_back({t.id, c});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.count > b.count || (a.count == b.count && a.item < b.item);
  });
  return out;
}

HashedMisraGries HashedMisraGries::Merge(const HashedMisraGries& a,
                                         const HashedMisraGries& b) {
  HashedMisraGries merged(1, a.top_capacity_, a.hash_, a.id_bits_);
  if (!(a.hash_ == b.hash_)) return a;  // incompatible; caller bug
  merged.mg_ = MisraGries::Merge(a.mg_, b.mg_);
  // Union of the tracked ids, ranked by merged T1 counts.
  std::vector<TopId> top = a.top_;
  for (const TopId& t : b.top_) {
    bool dup = false;
    for (const TopId& seen : top) {
      if (seen.id == t.id) dup = true;
    }
    if (!dup) top.push_back(t);
  }
  std::sort(top.begin(), top.end(), [&](const TopId& x, const TopId& y) {
    return merged.mg_.Estimate(x.key) > merged.mg_.Estimate(y.key);
  });
  if (top.size() > merged.top_capacity_) top.resize(merged.top_capacity_);
  merged.top_ = std::move(top);
  return merged;
}

size_t HashedMisraGries::SpaceBits() const {
  // T1 (hashed keys + counts) + T2 (true ids) + the hash seed.
  return mg_.SpaceBits() +
         top_capacity_ * static_cast<size_t>(id_bits_) +
         static_cast<size_t>(hash_.SeedBits());
}

void HashedMisraGries::Serialize(BitWriter& out) const {
  hash_.Serialize(out);
  mg_.Serialize(out);
  out.WriteGamma(top_capacity_ + 1);
  out.WriteBits(static_cast<uint64_t>(id_bits_), 8);
  out.WriteGamma(top_.size() + 1);
  for (const TopId& t : top_) out.WriteU64(t.id);
}

HashedMisraGries HashedMisraGries::Deserialize(BitReader& in,
                                               size_t counters) {
  const UniversalHash hash = UniversalHash::Deserialize(in);
  MisraGries mg = MisraGries::Deserialize(in, counters);
  const size_t top_capacity = in.CheckedCount(in.ReadGamma() - 1);
  const int id_bits = static_cast<int>(in.ReadBits(8));
  HashedMisraGries out(1, top_capacity, hash, id_bits);
  out.mg_ = std::move(mg);
  const size_t n_ids = in.CheckedCount(in.ReadGamma() - 1);
  out.top_.clear();
  for (size_t i = 0; i < n_ids; ++i) {
    const uint64_t id = in.ReadU64();
    out.top_.push_back({id, hash(id)});
  }
  return out;
}

}  // namespace l1hh
