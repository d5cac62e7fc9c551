// Theorem 3: the eps-Maximum problem — estimate the maximum frequency (and
// return an item achieving it) within additive eps*m.
//
// This is Algorithm 1 with one change (paper, proof of Theorem 3):
// "instead of maintaining the table T2, we just store the actual id of the
// item with maximum frequency in the sampled items."  Resolves Question 3
// of the IITK 2006 workshop for l1 insertion streams:
// O(eps^-1 (log eps^-1 + log log delta^-1) + log n + log log m) bits.
#ifndef L1HH_CORE_EPSILON_MAXIMUM_H_
#define L1HH_CORE_EPSILON_MAXIMUM_H_

#include <cstdint>

#include "core/common.h"
#include "sampling/geometric_skip.h"
#include "summary/hashed_misra_gries.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class EpsilonMaximum {
 public:
  struct Options {
    double epsilon = 0.01;
    double delta = 0.1;
    uint64_t universe_size = uint64_t{1} << 32;
    uint64_t stream_length = 0;
    Constants constants = Constants::Practical();

    Status Validate() const {
      return ValidateHeavyHitterParams(epsilon, /*phi=*/1.0, delta,
                                       universe_size, stream_length);
    }
  };

  EpsilonMaximum(const Options& options, uint64_t seed);

  void Insert(ItemId item);

  /// The tracked approximate-maximum item and its rescaled count estimate.
  HeavyHitter Report() const;

  /// Estimated maximum frequency (count units over the full stream).
  double EstimateMaxCount() const { return Report().estimated_count; }

  uint64_t samples_taken() const { return sampled_; }
  uint64_t items_processed() const { return position_; }
  const Options& options() const { return opt_; }

  size_t SpaceBits() const;

  void Serialize(BitWriter& out) const;
  /// Same contract as BdwSimple::Deserialize: the echoed options must
  /// equal `expected`, which alone sizes the table.
  static EpsilonMaximum Deserialize(BitReader& in, const Options& expected,
                                    uint64_t seed);

 private:
  EpsilonMaximum(const Options& options, uint64_t seed,
                 HashedMisraGries table);

  Options opt_;
  Rng rng_;
  GeometricSkipSampler sampler_;
  HashedMisraGries table_;  // with a zero-length T2; max id kept separately
  ItemId max_item_ = 0;
  bool has_max_ = false;
  uint64_t position_ = 0;
  uint64_t sampled_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_CORE_EPSILON_MAXIMUM_H_
