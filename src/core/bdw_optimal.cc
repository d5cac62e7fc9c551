#include "core/bdw_optimal.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/bit_util.h"

namespace l1hh {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

uint64_t ExpectedSamples(const BdwOptimal::Options& opt) {
  const double l =
      opt.constants.opt_sample_factor / (opt.epsilon * opt.epsilon);
  return std::max<uint64_t>(64, static_cast<uint64_t>(std::ceil(l)));
}

// Runs one sample's n coin trials through `coin` and calls f(j) for each
// trial j that lands, in increasing order.
template <typename F>
void ForEachLanded(GeometricSkipSampler& coin, size_t n, Rng& rng, F&& f) {
  for (size_t j = coin.NextSuccessWithin(n, rng); j < n;
       j += 1 + coin.NextSuccessWithin(n - j - 1, rng)) {
    f(j);
  }
}

}  // namespace

BdwOptimal::BdwOptimal(const Options& opt, uint64_t seed)
    : opt_(opt),
      rng_(seed),
      t1_(static_cast<size_t>(std::ceil(opt.constants.opt_t1_factor /
                                        opt.phi)),
          UniverseBits(opt.universe_size)),
      epoch_scale_(opt.constants.opt_epoch_scale) {
  const uint64_t l = ExpectedSamples(opt_);
  const double p = std::min(
      1.0, static_cast<double>(l) /
               static_cast<double>(std::max<uint64_t>(opt_.stream_length, 1)));
  sampler_ = GeometricSkipSampler::FromProbability(p, rng_);

  rows_ = static_cast<size_t>(
      std::ceil(opt_.constants.opt_rows_factor / opt_.epsilon));
  rows_ = std::max<size_t>(rows_, 4);

  size_t reps = static_cast<size_t>(std::ceil(
      opt_.constants.opt_rep_factor * std::log2(12.0 / opt_.phi)));
  reps = std::max<size_t>(reps,
                          static_cast<size_t>(opt_.constants.opt_min_reps));
  reps_ = reps | 1;  // odd, so the median is well defined

  eps_exp_ = ProbabilityToPow2Exponent(opt_.epsilon);

  // Highest epoch the schedule can reach: the sample stays within ~10 l
  // whp (and within m when m < l), so cap the schedule value
  // eps * phi * s there.
  const double v_max = std::max(
      4.0 * epoch_scale_,
      10.0 * opt_.epsilon * opt_.phi * static_cast<double>(l));
  max_epoch_ = std::max(
      1, static_cast<int>(std::ceil(2.0 * std::log2(v_max / epoch_scale_))));

  t2_coin_ = GeometricSkipSampler::FromExponent(eps_exp_, rng_);
  t3_coin_ = GeometricSkipSampler::FromExponent(T3Exponent(0), rng_);
  next_epoch_sample_ = NextEpochSample();

  Rng hash_rng(Mix64(seed) ^ 0x5bd1e9955bd1e995ULL);
  hashes_.reserve(reps_);
  for (size_t j = 0; j < reps_; ++j) {
    hashes_.push_back(UniversalHash::Draw(hash_rng, rows_));
  }
  t2_.Reset(rows_ * reps_);
  t3_.Reset(rows_ * reps_ * static_cast<size_t>(max_epoch_ + 1));
}

int BdwOptimal::EpochAtSample(uint64_t s) const {
  // epoch(s) = floor(2 log2(eps phi s / scale)) — the epoch the paper's
  // per-cell rule would give an exactly phi-heavy cell after s samples —
  // clamped to [0, max_epoch_].  Epoch 0 opens immediately (its counting
  // probability, ~eps, is T2's subsampling rate), so unlike the per-cell
  // scheme there is no invisible pre-epoch prefix to bias-correct.
  const double v =
      opt_.epsilon * opt_.phi * static_cast<double>(s);
  if (v < epoch_scale_) return 0;  // below the scale the formula is negative
  const int t = static_cast<int>(std::floor(2.0 * std::log2(v / epoch_scale_)));
  return std::min(t, max_epoch_);
}

uint64_t BdwOptimal::NextEpochSample() const {
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  if (current_epoch_ >= max_epoch_) return kNever;
  // The schedule is monotone in s: bracket the first s past the current
  // epoch by doubling, then bisect.
  uint64_t lo = 0;
  uint64_t hi = 1;
  while (EpochAtSample(hi) <= current_epoch_) {
    if (hi > kNever / 2) return kNever;
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (EpochAtSample(mid) > current_epoch_ ? hi : lo) = mid;
  }
  return hi;
}

void BdwOptimal::EnterEpoch(int epoch) {
  current_epoch_ = epoch;
  t3_coin_ = GeometricSkipSampler::FromExponent(T3Exponent(epoch), rng_);
  next_epoch_sample_ = NextEpochSample();
}

void BdwOptimal::FastForwardToEpoch(int epoch) {
  epoch_floor_ = std::min(std::max(epoch, epoch_floor_), max_epoch_);
  if (current_epoch_ < epoch_floor_) EnterEpoch(epoch_floor_);
}

void BdwOptimal::Insert(ItemId item) {
  ++position_;
  if (!sampler_.Offer(rng_)) return;
  ++sampled_;
  if (sampled_ >= next_epoch_sample_) EnterEpoch(EpochAtSample(sampled_));
  t1_.Insert(item);
  // Repetition j's T2 coin lands w.p. 2^-eps_exp and its T3 coin w.p.
  // min(eps 2^t, 1); each skip jumps straight to the next landed coin, so
  // only those repetitions are hashed.
  ForEachLanded(t2_coin_, reps_, rng_, [&](size_t j) {
    t2_.Increment(T2Cell(static_cast<size_t>(hashes_[j](item)), j));
  });
  ForEachLanded(t3_coin_, reps_, rng_, [&](size_t j) {
    t3_.Increment(
        T3Cell(static_cast<size_t>(hashes_[j](item)), j, current_epoch_));
  });
}

bool BdwOptimal::Compatible(const BdwOptimal& a, const BdwOptimal& b) {
  return a.opt_.epsilon == b.opt_.epsilon && a.opt_.phi == b.opt_.phi &&
         a.opt_.delta == b.opt_.delta &&
         a.opt_.universe_size == b.opt_.universe_size &&
         a.opt_.stream_length == b.opt_.stream_length &&
         a.rows_ == b.rows_ && a.reps_ == b.reps_ &&
         a.t1_.k() == b.t1_.k() &&  // MG merge truncates to the left k
         a.eps_exp_ == b.eps_exp_ && a.max_epoch_ == b.max_epoch_ &&
         a.epoch_scale_ == b.epoch_scale_ &&
         a.sampler_.exponent() == b.sampler_.exponent() &&
         a.hashes_ == b.hashes_;  // same seed <=> same drawn functions
}

Status BdwOptimal::MergeFrom(const BdwOptimal& other) {
  if (!Compatible(*this, other)) {
    return Status::InvalidArgument(
        "BdwOptimal::MergeFrom requires sketches built with the same "
        "options and seed");
  }
  // Reconcile epochs BEFORE combining: both instances sit on the shared
  // schedule, so the common epoch is simply the maximum; fast-forward the
  // behind side (us).  `other.current_epoch_` already dominates
  // `other.epoch_floor_`, so floors propagate through merge chains.
  FastForwardToEpoch(other.current_epoch_);
  // T1: classic Misra–Gries merge — every item that is phi-heavy in the
  // combined sample survives the (k+1)-st-largest subtraction.
  t1_ = MisraGries::Merge(t1_, other.t1_);
  // T2/T3: cell-wise sums.  Sound for any position-disjoint split: T2 is
  // a plain subsampled count, and each T3[t] count is rescaled by its own
  // epoch's probability at estimate time.
  t2_.AddFrom(other.t2_);
  t3_.AddFrom(other.t3_);
  position_ += other.position_;
  sampled_ += other.sampled_;
  // The combined sample position may put the schedule past the common
  // epoch; catch up so post-merge inserts count at the scheduled rate.
  const int scheduled = EpochAtSample(sampled_);
  if (scheduled > current_epoch_) EnterEpoch(scheduled);
  return Status::Ok();
}

BdwOptimal::MedianScratch BdwOptimal::MakeMedianScratch() const {
  MedianScratch scratch;
  // T3 is only written at the current epoch and epochs never decrease, so
  // no cell above current_epoch_ is ever nonzero.
  for (int t = 0; t <= current_epoch_; ++t) {
    scratch.weight.push_back(std::ldexp(1.0, T3Exponent(t)));
  }
  scratch.block.resize(reps_);
  scratch.reps.resize(reps_);
  return scratch;
}

bool BdwOptimal::MedianEstimate(ItemId item, double scale, double threshold,
                                MedianScratch& scratch,
                                double* median) const {
  for (size_t j = 0; j < reps_; ++j) {
    scratch.block[j] = T3Cell(static_cast<size_t>(hashes_[j](item)), j, 0);
    // The first and last cell read: a block may straddle a cache line.
    t3_.Prefetch(scratch.block[j]);
    t3_.Prefetch(scratch.block[j] + scratch.weight.size() - 1);
  }
  const size_t decided_below = reps_ / 2 + 1;
  size_t below = 0;
  for (size_t j = 0; j < reps_; ++j) {
    double estimate = 0;
    for (size_t t = 0; t < scratch.weight.size(); ++t) {
      const uint64_t c = t3_.Get(scratch.block[j] + t);
      if (c != 0) estimate += static_cast<double>(c) * scratch.weight[t];
    }
    scratch.reps[j] = estimate;
    // x -> x * scale rounds monotonically, so the median clears the
    // threshold iff fewer than R/2 + 1 repetitions fall below it.
    if (estimate * scale < threshold && ++below == decided_below) {
      return false;
    }
  }
  const auto mid =
      scratch.reps.begin() + static_cast<std::ptrdiff_t>(reps_ / 2);
  std::nth_element(scratch.reps.begin(), mid, scratch.reps.end());
  *median = *mid * scale;
  return true;
}

std::vector<HeavyHitter> BdwOptimal::Report(double phi) const {
  std::vector<HeavyHitter> out;
  if (sampled_ == 0) return out;
  const double scale = Scale();
  const double threshold =
      (phi - opt_.epsilon / 2.0) * static_cast<double>(position_);
  MedianScratch scratch = MakeMedianScratch();
  for (const auto& entry : t1_.Entries()) {
    HeavyHitter hh;
    hh.item = entry.item;
    if (!MedianEstimate(entry.item, scale, threshold, scratch,
                        &hh.estimated_count)) {
      continue;
    }
    hh.estimated_fraction =
        hh.estimated_count / static_cast<double>(position_);
    out.push_back(hh);
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimated_count > b.estimated_count ||
                     (a.estimated_count == b.estimated_count &&
                      a.item < b.item);
            });
  return out;
}

std::vector<HeavyHitter> BdwOptimal::TopK(size_t k) const {
  std::vector<HeavyHitter> out;
  if (sampled_ == 0) return out;
  const double scale = Scale();
  MedianScratch scratch = MakeMedianScratch();
  for (const auto& entry : t1_.Entries()) {
    HeavyHitter hh;
    hh.item = entry.item;
    MedianEstimate(entry.item, scale, -kInfinity, scratch,
                   &hh.estimated_count);
    hh.estimated_fraction =
        hh.estimated_count / static_cast<double>(position_);
    out.push_back(hh);
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              return a.estimated_count > b.estimated_count;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

double BdwOptimal::EstimateCount(ItemId item) const {
  if (sampled_ == 0) return 0;
  MedianScratch scratch = MakeMedianScratch();
  double estimate = 0;
  MedianEstimate(item, Scale(), -kInfinity, scratch, &estimate);
  return estimate;
}

size_t BdwOptimal::SpaceBits() const {
  size_t bits = t1_.SpaceBits();
  bits += t2_.SpaceBits();
  // Sparse T3 accounting (the paper's Claim 3): a cell's epoch list only
  // exists up to the highest epoch it ever opened.
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < reps_; ++j) {
      int top = -1;
      for (int t = current_epoch_; t >= 0; --t) {
        if (t3_.Get(T3Cell(i, j, t)) != 0) {
          top = t;
          break;
        }
      }
      for (int t = 0; t <= top; ++t) {
        const uint64_t c = t3_.Get(T3Cell(i, j, t));
        bits += c == 0 ? 1 : static_cast<size_t>(CounterBits(c));
      }
    }
  }
  for (const auto& h : hashes_) bits += static_cast<size_t>(h.SeedBits());
  bits += static_cast<size_t>(sampler_.SpaceBits());
  bits += static_cast<size_t>(t2_coin_.SpaceBits());
  bits += static_cast<size_t>(t3_coin_.SpaceBits());
  bits += BitWidth(sampled_);
  return bits;
}

Status BdwOptimal::ValidateDecodedState() const {
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < reps_; ++j) {
      const size_t block_end = T3Cell(i, j, max_epoch_) + 1;
      if (!t3_.AllZero(T3Cell(i, j, current_epoch_) + 1, block_end)) {
        return Status::Corruption(
            "'bdw_optimal' T3 count above the recorded epoch");
      }
    }
  }
  if (t2_coin_.exponent() != eps_exp_ ||
      t3_coin_.exponent() != T3Exponent(current_epoch_)) {
    return Status::Corruption(
        "'bdw_optimal' coin skip probabilities disagree with the epoch");
  }
  return Status::Ok();
}

void BdwOptimal::Serialize(BitWriter& out) const {
  SerializeImpl(out, /*sparse_grids=*/false);
}

void BdwOptimal::SerializeSparse(BitWriter& out) const {
  SerializeImpl(out, /*sparse_grids=*/true);
}

void BdwOptimal::SerializeImpl(BitWriter& out, bool sparse_grids) const {
  out.WriteDouble(opt_.epsilon);
  out.WriteDouble(opt_.phi);
  out.WriteDouble(opt_.delta);
  out.WriteU64(opt_.universe_size);
  out.WriteU64(opt_.stream_length);
  out.WriteDouble(opt_.constants.opt_sample_factor);
  out.WriteDouble(opt_.constants.opt_t1_factor);
  out.WriteDouble(opt_.constants.opt_rep_factor);
  out.WriteBits(static_cast<uint64_t>(opt_.constants.opt_min_reps), 16);
  out.WriteDouble(opt_.constants.opt_rows_factor);
  out.WriteDouble(opt_.constants.opt_epoch_scale);
  out.WriteCounter(position_);
  out.WriteCounter(sampled_);
  out.WriteCounter(static_cast<uint64_t>(epoch_floor_));
  sampler_.Serialize(out);
  t2_coin_.Serialize(out);
  t3_coin_.Serialize(out);
  for (const auto& h : hashes_) h.Serialize(out);
  t1_.Serialize(out);
  if (sparse_grids) {
    t2_.SerializeSparse(out);
    t3_.SerializeSparse(out);
  } else {
    t2_.Serialize(out);
    t3_.Serialize(out);
  }
}

BdwOptimal BdwOptimal::Deserialize(BitReader& in, const Options& expected,
                                   uint64_t seed) {
  return DeserializeImpl(in, expected, seed, /*sparse_grids=*/false);
}

BdwOptimal BdwOptimal::DeserializeSparse(BitReader& in,
                                         const Options& expected,
                                         uint64_t seed) {
  return DeserializeImpl(in, expected, seed, /*sparse_grids=*/true);
}

BdwOptimal BdwOptimal::DeserializeImpl(BitReader& in, const Options& expected,
                                       uint64_t seed, bool sparse_grids) {
  // The echoed options and constants are compared, never used: hostile
  // values must not size T1 or the grids.
  const Constants& c = expected.constants;
  const bool echoed =
      in.ReadDouble() == expected.epsilon && in.ReadDouble() == expected.phi &&
      in.ReadDouble() == expected.delta &&
      in.ReadU64() == expected.universe_size &&
      in.ReadU64() == expected.stream_length &&
      in.ReadDouble() == c.opt_sample_factor &&
      in.ReadDouble() == c.opt_t1_factor &&
      in.ReadDouble() == c.opt_rep_factor &&
      static_cast<int>(in.ReadBits(16)) == c.opt_min_reps &&
      in.ReadDouble() == c.opt_rows_factor &&
      in.ReadDouble() == c.opt_epoch_scale;
  BdwOptimal out(expected, seed);
  if (!echoed) {
    (void)in.CheckedCount(~uint64_t{0});  // force overflow status
    return out;
  }
  out.position_ = in.ReadCounter();
  out.sampled_ = in.ReadCounter();
  out.epoch_floor_ = static_cast<int>(std::min<uint64_t>(
      in.ReadCounter(), static_cast<uint64_t>(out.max_epoch_)));
  out.current_epoch_ =
      std::max(out.epoch_floor_, out.EpochAtSample(out.sampled_));
  out.next_epoch_sample_ = out.NextEpochSample();
  out.sampler_.Deserialize(in);
  out.t2_coin_.Deserialize(in);
  out.t3_coin_.Deserialize(in);
  for (auto& h : out.hashes_) h = UniversalHash::Deserialize(in);
  out.t1_ = MisraGries::Deserialize(in, out.t1_.k());
  if (sparse_grids) {
    // Expected grid shapes come from the options `out` was sized by — the
    // sparse encoding's size field is validated against them, never
    // trusted for an allocation.
    out.t2_.DeserializeSparse(in, out.rows_ * out.reps_);
    out.t3_.DeserializeSparse(in, out.rows_ * out.reps_ *
                                      static_cast<size_t>(out.max_epoch_ +
                                                          1));
  } else {
    out.t2_.Deserialize(in);
    out.t3_.Deserialize(in);
  }
  return out;
}

void BdwOptimal::SerializeRngState(BitWriter& out) const {
  rng_.Serialize(out);
}

void BdwOptimal::DeserializeRngState(BitReader& in) { rng_.Deserialize(in); }

}  // namespace l1hh
