// Theorems 7–8: running the algorithms when the stream length m is NOT
// known in advance.
//
// The paper's scheme, generalized: pick a window factor W (the paper uses
// W = 1/eps).  A Morris counter (O(log log m + k) bits, correct within a
// constant factor at every power-of-two position whp) tracks the stream
// length.  Instance I_k is started when the estimate crosses W^k and is
// built for an assumed length of ~W^{k+2}; when the estimate crosses
// W^{k+1}, I_{k-1} is discarded.  At most two instances are ever live, the
// reporter is the older one, and the prefix it missed is at most a 1/W <=
// eps fraction of the stream.  Instances oversample by a factor W so they
// hold enough samples throughout their reporting window — this is exactly
// why the paper's Theorem 7 uses l = log(6/delta)/eps^3 per instance.
#ifndef L1HH_CORE_UNKNOWN_LENGTH_H_
#define L1HH_CORE_UNKNOWN_LENGTH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/bdw_simple.h"
#include "core/borda.h"
#include "core/epsilon_maximum.h"
#include "core/epsilon_minimum.h"
#include "core/maximin.h"
#include "count/morris_counter.h"

namespace l1hh {

template <typename Sketch>
class UnknownLengthWrapper {
 public:
  using Factory = std::function<Sketch(uint64_t assumed_length)>;

  /// `window_factor` W >= 2; the discarded prefix is a <= 1/W fraction.
  UnknownLengthWrapper(Factory factory, double window_factor, double delta,
                       uint64_t max_length_hint, uint64_t seed)
      : factory_(std::move(factory)),
        window_(window_factor < 2.0 ? 2.0 : window_factor),
        morris_(MorrisCounterEnsemble::ForStream(max_length_hint, delta,
                                                 Mix64(seed))) {
    // Safety factor 8 absorbs the Morris counter's constant-factor error.
    old_ = std::make_unique<Sketch>(factory_(Assumed(2)));
    next_boundary_ = window_;
    level_ = 1;
  }

  template <typename Arg>
  void Insert(const Arg& item) {
    ++true_length_;  // debug/testing only; not charged to the algorithm
    old_->Insert(item);
    if (fresh_) fresh_->Insert(item);
    if (morris_.Increment()) MaybeRotate();
  }

  /// The instance answering queries (the paper reports from the older of
  /// the two running instances).
  const Sketch& Reporter() const { return *old_; }

  double EstimatedLength() const { return morris_.Estimate(); }
  int level() const { return level_; }
  int live_instances() const { return fresh_ ? 2 : 1; }

  size_t SpaceBits() const {
    size_t bits = old_->SpaceBits() + morris_.SpaceBits();
    if (fresh_) bits += fresh_->SpaceBits();
    return bits;
  }

  /// Serializes the full state (both instances + the Morris counter); this
  /// is what Alice sends in the Greater-than game of Theorem 14, where the
  /// stream length is inherently unknown to her.
  void Serialize(BitWriter& out) const {
    out.WriteBits(static_cast<uint64_t>(level_), 32);
    morris_.Serialize(out);
    old_->Serialize(out);
    out.WriteBool(fresh_ != nullptr);
    if (fresh_) fresh_->Serialize(out);
  }

  /// Rebuilds a wrapper from a serialized message.  The receiving side must
  /// supply the same factory/window parameters (they are protocol
  /// constants, not part of the message); each instance is decoded
  /// against the options the factory gives for its level — the older one
  /// was built for level max(L, 2), the fresh one for L + 1 — so no
  /// message field sizes an instance.
  static UnknownLengthWrapper Deserialize(BitReader& in, Factory factory,
                                          double window_factor, double delta,
                                          uint64_t max_length_hint,
                                          uint64_t seed) {
    UnknownLengthWrapper w(std::move(factory), window_factor, delta,
                           max_length_hint, seed);
    // Levels past 64 are unreachable (the window is >= 2 and the length
    // fits 64 bits); the bound keeps level_ + 1 from overflowing.
    w.level_ = static_cast<int>(std::min<uint64_t>(in.ReadBits(32), 64));
    w.next_boundary_ = std::pow(w.window_, static_cast<double>(w.level_));
    w.morris_.Deserialize(in);
    *w.old_ = Sketch::Deserialize(
        in, w.factory_(w.Assumed(std::max(w.level_, 2))).options(),
        Mix64(seed ^ 0x01dULL));
    if (in.ReadBool()) {
      w.fresh_ = std::make_unique<Sketch>(Sketch::Deserialize(
          in, w.factory_(w.Assumed(w.level_ + 1)).options(),
          Mix64(seed ^ 0xf4e5ULL)));
    }
    return w;
  }

 private:
  uint64_t Assumed(int level) const {
    const double a = 8.0 * std::pow(window_, static_cast<double>(level));
    if (a > 9.0e18) return uint64_t{9000000000000000000ULL};
    return static_cast<uint64_t>(a);
  }

  void MaybeRotate() {
    while (morris_.Estimate() >= next_boundary_) {
      if (fresh_) old_ = std::move(fresh_);
      fresh_ = std::make_unique<Sketch>(factory_(Assumed(level_ + 2)));
      ++level_;
      next_boundary_ *= window_;
    }
  }

  Factory factory_;
  double window_;
  MorrisCounterEnsemble morris_;
  std::unique_ptr<Sketch> old_;
  std::unique_ptr<Sketch> fresh_;
  double next_boundary_ = 0;
  int level_ = 1;
  uint64_t true_length_ = 0;
};

/// Theorem 7 instantiations: list heavy hitters and eps-Maximum with
/// unknown m.  The factories oversample by the window factor, matching the
/// eps^-3 sample size of the paper's proof.
UnknownLengthWrapper<BdwSimple> MakeUnknownLengthListHeavyHitters(
    const BdwSimple::Options& base, uint64_t max_length_hint, uint64_t seed);

UnknownLengthWrapper<EpsilonMaximum> MakeUnknownLengthMaximum(
    const EpsilonMaximum::Options& base, uint64_t max_length_hint,
    uint64_t seed);

/// Theorem 8 instantiations.
UnknownLengthWrapper<EpsilonMinimum> MakeUnknownLengthMinimum(
    const EpsilonMinimum::Options& base, uint64_t max_length_hint,
    uint64_t seed);

UnknownLengthWrapper<StreamingBorda> MakeUnknownLengthBorda(
    const StreamingBorda::Options& base, uint64_t max_length_hint,
    uint64_t seed);

UnknownLengthWrapper<StreamingMaximin> MakeUnknownLengthMaximin(
    const StreamingMaximin::Options& base, uint64_t max_length_hint,
    uint64_t seed);

}  // namespace l1hh

#endif  // L1HH_CORE_UNKNOWN_LENGTH_H_
