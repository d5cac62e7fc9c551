// Algorithm 2 of the paper (Theorem 2): the space-optimal
// (eps, phi)-List heavy hitters algorithm.
//
// Structure, mirroring the pseudocode:
//   * Bernoulli sample of ~l = O(eps^-2) items (geometric-skip, O(1) w.c.);
//   * T1: Misra–Gries over *true* ids with O(1/phi) counters — the
//     candidate set (every phi-heavy item of the sample survives);
//   * for each of R = O(log(1/phi)) repetitions j, a universal hash h_j
//     into O(1/eps) rows;
//   * T2[i][j]: eps-subsampled running count of hashed id i — the paper's
//     factor-4 frequency tracker, kept here for space accounting and as a
//     cross-check of the epoch schedule;
//   * T3[i][j][t]: the "accelerated counters": an arrival in epoch t is
//     counted with probability min(eps 2^t, 1), so counting probability
//     grows as Theta(eps^2 f_i) for phi-heavy items and each estimator has
//     O(eps^-2) variance;
//   * estimate = median over j of sum_t T3[i][j][t] / min(eps 2^t, 1),
//     rescaled by items / samples; report T1 candidates whose estimate
//     clears (phi - eps/2) * items.
//
// Epoch schedule (deviation from the pseudocode, documented in
// docs/ALGORITHMS.md): the paper advances each cell's epoch from its own
// T2 value, which makes epochs *instance-local* — two sketches built over
// disjoint substreams disagree about which probability an epoch-t count
// was taken at relative to the union stream, so their T3 tables cannot be
// reconciled.  Here the epoch is a pure function of the shared, seeded
// configuration and the number of samples taken:
//
//     epoch(s) = clamp(floor(2 log2(eps phi s / scale)), 0, max_epoch)
//
// — the epoch the paper's rule would give an exactly phi-heavy cell after
// s samples.  Every instance with the same Options walks the same
// schedule, epochs only ever increase, and two instances at different
// sample positions merge by fast-forwarding the behind one to the common
// epoch (FastForwardToEpoch) and summing T2/T3 cell-wise: each T3[t]
// count is divided by its *own* epoch's probability at estimate time, so
// the merged estimator stays unbiased regardless of which instance
// counted at which epoch.  See MergeFrom.
//
// Space: O(eps^-1 log phi^-1 + phi^-1 log n + log log m) bits — optimal by
// the paper's Theorems 9 and 14.
#ifndef L1HH_CORE_BDW_OPTIMAL_H_
#define L1HH_CORE_BDW_OPTIMAL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/common.h"
#include "count/compact_counter_array.h"
#include "hash/universal_hash.h"
#include "sampling/geometric_skip.h"
#include "summary/misra_gries.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

class BdwOptimal {
 public:
  struct Options {
    double epsilon = 0.01;
    double phi = 0.05;
    double delta = 0.1;  // the paper states Theorem 2 for constant delta
    uint64_t universe_size = uint64_t{1} << 32;
    uint64_t stream_length = 0;
    Constants constants = Constants::Practical();

    Status Validate() const {
      return ValidateHeavyHitterParams(epsilon, phi, delta, universe_size,
                                       stream_length);
    }
  };

  BdwOptimal(const Options& options, uint64_t seed);

  /// Processes one stream item.  Non-sampled items cost one skip
  /// decrement.  A sampled item's 2R coins (one T2 and one T3 coin per
  /// repetition) are two geometric skips over the flattened
  /// (sample, repetition) trial sequence, so only the repetitions whose
  /// coin lands are hashed and incremented: expected
  /// O(1 + R (2^-eps_exp + 2^-(eps_exp - t))) work per sample, which is R
  /// once the epoch t reaches eps_exp and every T3 coin lands.
  void Insert(ItemId item);

  /// The T1 candidates whose median estimate clears
  /// (phi - eps/2) * items_processed(), estimate descending (ties by item).
  /// A candidate is dropped as soon as R/2 + 1 of its repetitions fall
  /// below the threshold, which decides its median: a dropped candidate
  /// costs about R/2 + 1 repetitions, a reported one all R.  Estimates are
  /// bit-identical to TopK's.
  std::vector<HeavyHitter> Report(double phi) const;
  std::vector<HeavyHitter> Report() const { return Report(opt_.phi); }

  /// The k candidates with the highest median estimates, unthresholded.
  std::vector<HeavyHitter> TopK(size_t k) const;

  /// Median accelerated-counter estimate for an arbitrary item, rescaled
  /// to full-stream units.
  double EstimateCount(ItemId item) const;

  // ---- Distributed merge ----------------------------------------------

  /// True iff the two sketches follow the same epoch schedule and hash
  /// layout: equal (eps, phi, delta, n, m) options, equal derived shape
  /// (rows, repetitions, subsampling exponent, epoch scale/cap), and the
  /// same drawn hash functions (i.e. the same construction seed).  This
  /// is the precondition of MergeFrom.
  static bool Compatible(const BdwOptimal& a, const BdwOptimal& b);

  /// In-place merge with a Compatible sketch built over a disjoint
  /// substream (their combined length covered by options.stream_length).
  /// Reconciliation: both instances sit somewhere on the shared epoch
  /// schedule; this instance fast-forwards to the common (maximum)
  /// epoch, then T1 merges by the classic Misra–Gries merge and T2/T3
  /// combine cell-wise.  Summing T3 across instances is sound because
  /// the estimator divides each epoch-t count by that epoch's own
  /// probability — it never needs to know which instance counted it.
  /// Afterwards this sketch answers for the concatenation of both
  /// substreams.  Returns InvalidArgument (and changes nothing) when the
  /// sketches are not Compatible.
  Status MergeFrom(const BdwOptimal& other);

  /// Raises the epoch floor to `epoch` (clamped to [current floor,
  /// max_epoch]): future arrivals are counted at probability
  /// min(eps 2^epoch, 1) or better.  Never lowers the epoch.  Past T3
  /// counts are untouched — they remain divided by their own recorded
  /// epoch's probability, so estimates stay unbiased; fast-forwarding
  /// only trades a little space (higher counting rate) for variance no
  /// worse than before.  Called by MergeFrom; public for tests and for
  /// coordinators that know a global stream position.
  void FastForwardToEpoch(int epoch);

  /// The shared schedule: epoch after s samples, before any fast-forward
  /// floor.  Deterministic in (Options, s); identical across instances
  /// with equal Options.
  int EpochAtSample(uint64_t s) const;

  /// The epoch new arrivals are currently counted in:
  /// max(EpochAtSample(samples_taken()), fast-forward floor).
  int current_epoch() const { return current_epoch_; }

  uint64_t samples_taken() const { return sampled_; }
  /// Sums of all T2 and all T3 counters: the number of coins that landed.
  uint64_t t2_total() const { return t2_.Total(); }
  uint64_t t3_total() const { return t3_.Total(); }
  uint64_t items_processed() const { return position_; }
  size_t repetitions() const { return hashes_.size(); }
  size_t rows() const { return rows_; }
  int max_epoch() const { return max_epoch_; }
  const Options& options() const { return opt_; }

  /// Paper-style accounting: T1 + T2 (content) + T3 (sparse: only epochs
  /// actually opened per cell are charged) + hash seeds + sampler.
  size_t SpaceBits() const;

  /// Message encoding (dense T2/T3 grids, one gamma code per cell): what
  /// the Section 4 communication games send, so the measured message
  /// size tracks the structure's cell count.
  void Serialize(BitWriter& out) const;
  /// Same contract as BdwSimple::Deserialize: the echoed options and
  /// constants must equal `expected`, which alone sizes the structure.
  static BdwOptimal Deserialize(BitReader& in, const Options& expected,
                                uint64_t seed);

  /// Snapshot encoding: identical except T2/T3 use the sparse gap-coded
  /// cell format (CompactCounterArray::SerializeSparse), collapsing the
  /// zero runs that dominate the dense grids — this is what SaveTo
  /// persists; see docs/SNAPSHOTS.md#measured-sizes.
  void SerializeSparse(BitWriter& out) const;
  static BdwOptimal DeserializeSparse(BitReader& in, const Options& expected,
                                      uint64_t seed);

  /// Checks what a decoded sketch must satisfy before it is trusted: no
  /// T3 count above the current epoch (T3 is only ever written at the
  /// current epoch, and the epoch never decreases) and coin skips at the
  /// probabilities the epoch implies.  Corruption otherwise.
  Status ValidateDecodedState() const;

  /// Snapshot support: persists the live PRNG state so a restored sketch
  /// continues the exact random sequence of the saved one (same contract
  /// as BdwSimple::SerializeRngState).
  void SerializeRngState(BitWriter& out) const;
  void DeserializeRngState(BitReader& in);

 private:
  void SerializeImpl(BitWriter& out, bool sparse_grids) const;
  static BdwOptimal DeserializeImpl(BitReader& in, const Options& expected,
                                    uint64_t seed, bool sparse_grids);

  size_t T2Cell(size_t row, size_t rep) const { return row * reps_ + rep; }
  size_t T3Cell(size_t row, size_t rep, int epoch) const {
    return (row * reps_ + rep) * static_cast<size_t>(max_epoch_ + 1) +
           static_cast<size_t>(epoch);
  }

  /// Scratch of MedianEstimate, built once per query call: the exact
  /// epoch weights 1 / min(eps 2^t, 1) = 2^T3Exponent(t) for t <=
  /// current_epoch_, and one item's R T3 block offsets and estimates.
  struct MedianScratch {
    std::vector<double> weight;
    std::vector<size_t> block;
    std::vector<double> reps;
  };
  MedianScratch MakeMedianScratch() const;

  /// The one per-item estimator behind Report, TopK and EstimateCount:
  /// hashes all R repetitions and prefetches their T3 epoch blocks, then
  /// sums each repetition's epochs (sampled-stream units).  Sets *median
  /// to the median repetition times `scale` (full-stream units) and
  /// returns true — unless R/2 + 1 repetitions have rep * scale <
  /// `threshold`, which puts the median below it too: then it returns
  /// false without reading the rest.  Pass -infinity to always finish.
  bool MedianEstimate(ItemId item, double scale, double threshold,
                      MedianScratch& scratch, double* median) const;

  /// Full-stream units per sampled item: items_processed / samples_taken.
  double Scale() const {
    return static_cast<double>(position_) / static_cast<double>(sampled_);
  }

  /// T3 counting probability at `epoch` is min(eps 2^epoch, 1) =
  /// 2^-T3Exponent(epoch).
  int T3Exponent(int epoch) const { return std::max(eps_exp_ - epoch, 0); }

  /// Moves new arrivals to `epoch` (> current_epoch_): redraws the T3
  /// coin skip at the new probability — sound because the skip is
  /// memoryless, pending failures carry no information — and recomputes
  /// next_epoch_sample_.
  void EnterEpoch(int epoch);

  /// Smallest sample count at which the schedule exceeds current_epoch_
  /// (UINT64_MAX once the epoch is capped), so Insert compares a counter
  /// instead of evaluating EpochAtSample per sample.
  uint64_t NextEpochSample() const;

  Options opt_;
  Rng rng_;
  GeometricSkipSampler sampler_;
  // Coin skips over the (sample, repetition) trial sequence: T2 at
  // 2^-eps_exp, T3 at 2^-T3Exponent(current_epoch_).
  GeometricSkipSampler t2_coin_;
  GeometricSkipSampler t3_coin_;
  MisraGries t1_;
  std::vector<UniversalHash> hashes_;
  size_t rows_ = 0;
  size_t reps_ = 0;
  int eps_exp_ = 0;    // T2 subsampling probability = 2^{-eps_exp}
  int max_epoch_ = 0;
  double epoch_scale_ = 8.0;
  CompactCounterArray t2_;
  CompactCounterArray t3_;
  uint64_t position_ = 0;
  uint64_t sampled_ = 0;
  // Epoch state: current_epoch_ = max(EpochAtSample(sampled_),
  // epoch_floor_); the floor is raised by FastForwardToEpoch so a merge
  // chain never lowers an instance's counting probability (keeps the
  // schedule monotone and merges associative).
  int current_epoch_ = 0;
  int epoch_floor_ = 0;
  uint64_t next_epoch_sample_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_CORE_BDW_OPTIMAL_H_
