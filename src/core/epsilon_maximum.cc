#include "core/epsilon_maximum.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

namespace {

uint64_t ExpectedSamples(const EpsilonMaximum::Options& opt) {
  const double l = opt.constants.hh_sample_factor *
                   std::log(6.0 / opt.delta) /
                   (opt.epsilon * opt.epsilon);
  return std::max<uint64_t>(16, static_cast<uint64_t>(std::ceil(l)));
}

// Table length min(c/eps, n): a universe smaller than the table is
// tracked exactly (the min{1/eps, n} term of Theorem 3).
size_t TableCounters(const EpsilonMaximum::Options& opt) {
  const double c_over_eps = opt.constants.hh_mg_factor / opt.epsilon;
  return static_cast<size_t>(std::ceil(std::min(
      c_over_eps, static_cast<double>(opt.universe_size) + 1.0)));
}

HashedMisraGries MakeTable(const EpsilonMaximum::Options& opt,
                           uint64_t seed) {
  Rng hash_rng(Mix64(seed) ^ 0x7f4a7c159e3779b9ULL);
  const uint64_t l = ExpectedSamples(opt);
  const double range_d = opt.constants.hh_hash_range_factor *
                         static_cast<double>(l) * static_cast<double>(l) /
                         opt.delta;
  const uint64_t range = static_cast<uint64_t>(std::min(range_d, 9.0e18));
  return HashedMisraGries(TableCounters(opt), /*top_ids=*/0,
                          UniversalHash::Draw(hash_rng,
                                              std::max<uint64_t>(range, 2)),
                          UniverseBits(opt.universe_size));
}

}  // namespace

EpsilonMaximum::EpsilonMaximum(const Options& options, uint64_t seed)
    : EpsilonMaximum(options, seed, MakeTable(options, seed)) {}

EpsilonMaximum::EpsilonMaximum(const Options& options, uint64_t seed,
                               HashedMisraGries table)
    : opt_(options), rng_(seed), table_(std::move(table)) {
  const uint64_t l = ExpectedSamples(opt_);
  const double p = std::min(
      1.0, static_cast<double>(l) /
               static_cast<double>(std::max<uint64_t>(opt_.stream_length, 1)));
  sampler_ = GeometricSkipSampler::FromProbability(p, rng_);
}

void EpsilonMaximum::Insert(ItemId item) {
  ++position_;
  if (!sampler_.Offer(rng_)) return;
  ++sampled_;
  table_.Insert(item);
  const uint64_t count = table_.EstimateByHash(item);
  if (!has_max_ || count >= table_.EstimateByHash(max_item_)) {
    max_item_ = item;
    has_max_ = true;
  }
}

HeavyHitter EpsilonMaximum::Report() const {
  HeavyHitter hh;
  if (!has_max_ || sampled_ == 0) return hh;
  // Scale by the items actually processed, not the configured length, so
  // the estimate holds when the stream is shorter or longer than m.
  const double processed = static_cast<double>(position_);
  const double scale = processed / static_cast<double>(sampled_);
  hh.item = max_item_;
  hh.estimated_count =
      static_cast<double>(table_.EstimateByHash(max_item_)) * scale;
  hh.estimated_fraction = hh.estimated_count / processed;
  return hh;
}

size_t EpsilonMaximum::SpaceBits() const {
  return table_.SpaceBits() + static_cast<size_t>(sampler_.SpaceBits()) +
         BitWidth(sampled_) +
         static_cast<size_t>(UniverseBits(opt_.universe_size));  // max id
}

void EpsilonMaximum::Serialize(BitWriter& out) const {
  out.WriteDouble(opt_.epsilon);
  out.WriteDouble(opt_.delta);
  out.WriteU64(opt_.universe_size);
  out.WriteU64(opt_.stream_length);
  out.WriteCounter(position_);
  out.WriteCounter(sampled_);
  out.WriteBool(has_max_);
  out.WriteU64(max_item_);
  sampler_.Serialize(out);
  table_.Serialize(out);
}

EpsilonMaximum EpsilonMaximum::Deserialize(BitReader& in,
                                           const Options& expected,
                                           uint64_t seed) {
  const bool echoed = in.ReadDouble() == expected.epsilon &&
                      in.ReadDouble() == expected.delta &&
                      in.ReadU64() == expected.universe_size &&
                      in.ReadU64() == expected.stream_length;
  if (!echoed) {
    (void)in.CheckedCount(~uint64_t{0});  // force overflow status
    return EpsilonMaximum(expected, seed);
  }
  const uint64_t position = in.ReadCounter();
  const uint64_t sampled = in.ReadCounter();
  const bool has_max = in.ReadBool();
  const ItemId max_item = in.ReadU64();
  GeometricSkipSampler sampler;
  sampler.Deserialize(in);
  HashedMisraGries table =
      HashedMisraGries::Deserialize(in, TableCounters(expected));
  EpsilonMaximum out(expected, seed, std::move(table));
  out.position_ = position;
  out.sampled_ = sampled;
  out.has_max_ = has_max;
  out.max_item_ = max_item;
  out.sampler_ = sampler;
  return out;
}

}  // namespace l1hh
