// Geometric skip sampling: instead of flipping a Bernoulli(p) coin per
// stream item, draw the gap to the next success once, then count down.
//
// This is how every algorithm in the paper achieves O(1) *worst-case*
// update time (Section 3.1): non-sampled items cost one decrement, and with
// p <= O(eps^2) the expensive per-sample work provably has O(1/eps) slack
// between samples to be spread over.
//
// The same skip serves any Bernoulli(2^-k) trial sequence, not only one
// trial per stream item: NextSuccessWithin consumes a run of n trials at
// once, which is how BdwOptimal flips its R per-repetition coins per
// sample while paying only for the coins that land.
#ifndef L1HH_SAMPLING_GEOMETRIC_SKIP_H_
#define L1HH_SAMPLING_GEOMETRIC_SKIP_H_

#include <cmath>
#include <cstdint>

#include "util/bit_stream.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace l1hh {

class GeometricSkipSampler {
 public:
  GeometricSkipSampler() = default;

  /// Acceptance probability is 2^{-exponent} (footnote-3 rounding applied
  /// by the caller or via FromProbability).
  static GeometricSkipSampler FromExponent(int exponent, Rng& rng) {
    GeometricSkipSampler s;
    s.SetExponent(exponent);
    s.ScheduleNext(rng);
    return s;
  }

  static GeometricSkipSampler FromProbability(double p, Rng& rng) {
    return FromExponent(ProbabilityToPow2Exponent(p), rng);
  }

  /// Called once per stream item; returns true iff this item is sampled.
  /// O(1) worst case: one compare + decrement, plus one Geometric draw on
  /// the (rare) sampled items.
  bool Offer(Rng& rng) { return NextSuccessWithin(1, rng) == 0; }

  /// Runs the next n trials up to and including the first success among
  /// them and returns that success's offset in [0, n); returns n, having
  /// consumed all n trials, when none succeeds.  O(1): one compare and a
  /// subtraction, plus one Geometric draw per success.
  uint64_t NextSuccessWithin(uint64_t n, Rng& rng) {
    if (skip_ >= n) {
      skip_ -= n;
      return n;
    }
    const uint64_t offset = skip_;
    ScheduleNext(rng);
    return offset;
  }

  /// 2^-exponent; 1 for exponent <= 0 (which is also never negated, so
  /// any decoded exponent is safe here).
  double probability() const {
    return exponent_ <= 0 ? 1.0 : std::ldexp(1.0, -exponent_);
  }
  int exponent() const { return exponent_; }

  /// State: the exponent and the remaining skip, which is geometric with
  /// mean 2^k, i.e. O(log(1/p)) bits in expectation.
  int SpaceBits() const {
    return BitWidth(static_cast<uint64_t>(exponent_)) + CounterBits(skip_);
  }

  void Serialize(BitWriter& out) const {
    out.WriteCounter(static_cast<uint64_t>(exponent_));
    out.WriteCounter(skip_);
  }
  void Deserialize(BitReader& in) {
    SetExponent(static_cast<int>(in.ReadCounter()));
    skip_ = in.ReadCounter();
  }

 private:
  void SetExponent(int exponent) {
    exponent_ = exponent;
    log_q_ = std::log1p(-probability());
  }

  // Same draws as rng.Geometric(probability()), without recomputing the
  // logarithm per success; p = 1 draws nothing.
  void ScheduleNext(Rng& rng) {
    skip_ = exponent_ <= 0 ? 0 : rng.GeometricWithLogQ(log_q_);
  }

  int exponent_ = 0;
  double log_q_ = 0;  // log1p(-probability()), derived from exponent_
  uint64_t skip_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_SAMPLING_GEOMETRIC_SKIP_H_
