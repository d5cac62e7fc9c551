// Space-Saving / Stream-Summary [MAE05] — a randomized-free baseline the
// paper lists among prior work.  With k counters:
//     f(x) <= Estimate(x) <= f(x) + MinCount,   MinCount <= m/k,
// and every item with f(x) > m/k is tracked.  O(1) worst-case update via
// the shared CounterGroups structure; among tied minimum counters the one
// replaced is the first slot of the lowest run (CounterGroups::ReplaceMin).
#ifndef L1HH_SUMMARY_SPACE_SAVING_H_
#define L1HH_SUMMARY_SPACE_SAVING_H_

#include <cstdint>
#include <vector>

#include "summary/counter_groups.h"
#include "util/bit_stream.h"

namespace l1hh {

class SpaceSaving {
 public:
  struct Entry {
    uint64_t item;
    uint64_t count;  // overestimate
  };

  explicit SpaceSaving(size_t k, int key_bits = 64);

  void Insert(uint64_t item);

  /// Overestimate of the frequency (0 if not tracked).
  uint64_t Estimate(uint64_t item) const { return groups_.Count(item); }

  /// Current minimum counter = the global overestimation bound.
  uint64_t MinCount() const { return groups_.Full() ? groups_.MinCount() : 0; }

  std::vector<Entry> Entries() const;
  std::vector<Entry> EntriesAbove(uint64_t threshold) const;

  /// Distributed merge: estimates add (both overestimate), and the merged
  /// summary keeps the k largest, preserving
  /// f(x) <= Estimate(x) <= f(x) + err_a + err_b over the union stream.
  /// A tie at the k-th largest estimate keeps the smaller item ids, so
  /// the result is a function of the two inputs' contents.  One pass of b
  /// through a's index, one selection and one sort of the <= 2k
  /// candidates.
  static SpaceSaving Merge(const SpaceSaving& a, const SpaceSaving& b);

  uint64_t items_processed() const { return processed_; }
  size_t k() const { return groups_.capacity(); }

  size_t SpaceBits() const {
    return groups_.SpaceBits(key_bits_) + BitWidth(processed_);
  }

  void Serialize(BitWriter& out) const;
  /// Reads a summary of `k` counters (see MisraGries::Deserialize).
  static SpaceSaving Deserialize(BitReader& in, size_t k);

 private:
  CounterGroups groups_;
  int key_bits_;
  uint64_t processed_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_SUMMARY_SPACE_SAVING_H_
