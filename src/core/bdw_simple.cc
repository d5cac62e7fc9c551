#include "core/bdw_simple.h"

#include <algorithm>
#include <cmath>

#include "util/bit_util.h"

namespace l1hh {

namespace {

uint64_t ExpectedSamples(const BdwSimple::Options& opt) {
  const double l = opt.constants.hh_sample_factor *
                   std::log(6.0 / opt.delta) /
                   (opt.epsilon * opt.epsilon);
  return std::max<uint64_t>(16, static_cast<uint64_t>(std::ceil(l)));
}

size_t TableCounters(const BdwSimple::Options& opt) {
  return static_cast<size_t>(std::ceil(opt.constants.hh_mg_factor /
                                       opt.epsilon));
}

}  // namespace

HashedMisraGries BdwSimple::MakeTable(const Options& opt, uint64_t seed) {
  Rng hash_rng(Mix64(seed) ^ 0x9d8f3c1b2a4e5d6fULL);
  const uint64_t l = ExpectedSamples(opt);
  // Hash range ~ hh_hash_range_factor * l^2 / delta, capped to avoid
  // overflow for tiny eps; collisions on the sample stay o(delta)-likely.
  const double range_d = opt.constants.hh_hash_range_factor *
                         static_cast<double>(l) * static_cast<double>(l) /
                         opt.delta;
  const uint64_t range =
      static_cast<uint64_t>(std::min(range_d, 9.0e18));
  const size_t counters = TableCounters(opt);
  const auto top = static_cast<size_t>(
      std::ceil(opt.constants.hh_top_factor / opt.phi));
  return HashedMisraGries(counters, top,
                          UniversalHash::Draw(hash_rng, std::max<uint64_t>(
                                                            range, 2)),
                          UniverseBits(opt.universe_size));
}

BdwSimple::BdwSimple(const Options& options, uint64_t seed)
    : BdwSimple(options, seed, MakeTable(options, seed)) {}

BdwSimple::BdwSimple(const Options& options, uint64_t seed,
                     HashedMisraGries table)
    : opt_(options), rng_(seed), table_(std::move(table)) {
  const uint64_t l = ExpectedSamples(opt_);
  const double p = std::min(
      1.0, static_cast<double>(l) /
               static_cast<double>(std::max<uint64_t>(opt_.stream_length, 1)));
  sampler_ = GeometricSkipSampler::FromProbability(p, rng_);
}

void BdwSimple::Insert(ItemId item) {
  ++position_;
  if (!sampler_.Offer(rng_)) return;
  ++sampled_;
  table_.Insert(item);
}

std::vector<HeavyHitter> BdwSimple::Report() const {
  std::vector<HeavyHitter> out;
  if (sampled_ == 0) return out;
  const double scale = static_cast<double>(position_) /
                       static_cast<double>(sampled_);
  const double threshold = (opt_.phi - opt_.epsilon / 2.0) *
                           static_cast<double>(sampled_);
  for (const auto& entry : table_.TopEntries()) {
    if (static_cast<double>(entry.count) >= threshold) {
      HeavyHitter hh;
      hh.item = entry.item;
      hh.estimated_count = static_cast<double>(entry.count) * scale;
      hh.estimated_fraction =
          hh.estimated_count / static_cast<double>(position_);
      out.push_back(hh);
    }
  }
  return out;
}

std::vector<HeavyHitter> BdwSimple::TopK(size_t k) const {
  std::vector<HeavyHitter> out;
  if (sampled_ == 0) return out;
  const double scale = static_cast<double>(position_) /
                       static_cast<double>(sampled_);
  for (const auto& entry : table_.TopEntries()) {
    if (out.size() >= k) break;
    HeavyHitter hh;
    hh.item = entry.item;
    hh.estimated_count = static_cast<double>(entry.count) * scale;
    hh.estimated_fraction =
        hh.estimated_count / static_cast<double>(position_);
    out.push_back(hh);
  }
  return out;
}

double BdwSimple::EstimateCount(ItemId item) const {
  if (sampled_ == 0) return 0;
  const double scale = static_cast<double>(position_) /
                       static_cast<double>(sampled_);
  return static_cast<double>(table_.EstimateByHash(item)) * scale;
}

BdwSimple BdwSimple::Merge(const BdwSimple& a, const BdwSimple& b) {
  BdwSimple merged(a.opt_, /*seed=*/0,
                   HashedMisraGries::Merge(a.table_, b.table_));
  merged.position_ = a.position_ + b.position_;
  merged.sampled_ = a.sampled_ + b.sampled_;
  merged.sampler_ = a.sampler_;  // continue a's skip schedule if resumed
  return merged;
}

size_t BdwSimple::SpaceBits() const {
  return table_.SpaceBits() + static_cast<size_t>(sampler_.SpaceBits()) +
         BitWidth(sampled_);
}

void BdwSimple::Serialize(BitWriter& out) const {
  out.WriteDouble(opt_.epsilon);
  out.WriteDouble(opt_.phi);
  out.WriteDouble(opt_.delta);
  out.WriteU64(opt_.universe_size);
  out.WriteU64(opt_.stream_length);
  out.WriteCounter(position_);
  out.WriteCounter(sampled_);
  sampler_.Serialize(out);
  table_.Serialize(out);
}

BdwSimple BdwSimple::Deserialize(BitReader& in, const Options& expected,
                                 uint64_t seed) {
  // The echoed options are compared, never used: a hostile epsilon must
  // not size the table.
  const bool echoed = in.ReadDouble() == expected.epsilon &&
                      in.ReadDouble() == expected.phi &&
                      in.ReadDouble() == expected.delta &&
                      in.ReadU64() == expected.universe_size &&
                      in.ReadU64() == expected.stream_length;
  if (!echoed) {
    (void)in.CheckedCount(~uint64_t{0});  // force overflow status
    return BdwSimple(expected, seed);
  }
  const uint64_t position = in.ReadCounter();
  const uint64_t sampled = in.ReadCounter();
  GeometricSkipSampler sampler;
  sampler.Deserialize(in);
  HashedMisraGries table =
      HashedMisraGries::Deserialize(in, TableCounters(expected));
  BdwSimple out(expected, seed, std::move(table));
  out.position_ = position;
  out.sampled_ = sampled;
  out.sampler_ = sampler;
  return out;
}

void BdwSimple::SerializeRngState(BitWriter& out) const {
  rng_.Serialize(out);
}

void BdwSimple::DeserializeRngState(BitReader& in) { rng_.Deserialize(in); }

}  // namespace l1hh
