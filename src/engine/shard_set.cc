#include "engine/shard_set.h"

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "window/sliding_window_summary.h"

namespace l1hh {

Status CheckShardSet(ShardSpan shards, const std::string& algorithm,
                     uint64_t* rotations) {
  const auto refuse = [](size_t s, const std::string& why) {
    return Status::Corruption("shard " + std::to_string(s) + " " + why);
  };
  if (shards.empty()) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s] == nullptr) return refuse(s, "has no state");
    if (shards[s]->Name() != algorithm) {
      return refuse(s, "holds '" + std::string(shards[s]->Name()) +
                           "', expected '" + algorithm + "'");
    }
  }
  if (shards.size() > 1 && !shards[0]->SupportsMerge()) {
    return Status::FailedPrecondition(
        "'" + algorithm + "' does not support Merge, so it cannot be "
        "sharded (num_shards must be 1)");
  }
  // Windowed shards must also have crossed the same global bucket
  // boundaries, or the rings would not be bucket-wise mergeable.
  const auto* window0 =
      dynamic_cast<const SlidingWindowSummary*>(shards[0].get());
  const uint64_t common = window0 == nullptr ? 0 : window0->rotations();
  uint64_t total = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    // Same options and seed, or the first merged view would fail to
    // merge: a spliced-in foreign shard is refused here, as a Status.
    if (!(shards[s]->Options() == shards[0]->Options())) {
      return refuse(s, "was built with different options or seed than "
                       "shard 0; not shards of one stream");
    }
    // Every shard holds `algorithm`, so each is windowed iff shard 0 is.
    const uint64_t rotated =
        window0 == nullptr
            ? 0
            : static_cast<const SlidingWindowSummary&>(*shards[s]).rotations();
    if (rotated != common) {
      return refuse(s, "rotated " + std::to_string(rotated) +
                           " times, shard 0 " + std::to_string(common) +
                           "; not windows of one lockstep stream");
    }
    total += shards[s]->ItemsProcessed();
  }
  *rotations = common;
  if (window0 == nullptr) return Status::Ok();
  const uint64_t stride = window0->bucket_width();
  // The rotation protocol admits floor((total-1)/stride) rotations — and,
  // exactly AT a boundary, one more: a multi-producer capture can see the
  // boundary claimant's rotation before its boundary item is applied.
  // Derive by DIVISION: the count comes off disk or the wire, and
  // multiplying by it could wrap u64 past this check.
  const uint64_t lazy_rotations = total == 0 ? 0 : (total - 1) / stride;
  const bool at_boundary = total != 0 && total % stride == 0;
  // Bound it so the engine's clock arithmetic ((bucket + 1) * stride)
  // cannot wrap u64 and silently break rotation.
  if (lazy_rotations >= ~uint64_t{0} / stride - 1) {
    return Status::Corruption("implausible combined item count " +
                              std::to_string(total));
  }
  if (common != lazy_rotations &&
      !(at_boundary && common == total / stride)) {
    return Status::Corruption(
        "window rotation count " + std::to_string(common) +
        " disagrees with the combined item count " + std::to_string(total) +
        " (bucket width " + std::to_string(stride) + " implies " +
        std::to_string(lazy_rotations) +
        (at_boundary ? " or " + std::to_string(total / stride) : "") + ")");
  }
  return Status::Ok();
}

MergedViewCache::MergedViewCache(const std::string& metric_prefix)
    : rebuild_ns_(obs::GetHistogram(metric_prefix + "_rebuild_ns")),
      rebuilds_(obs::GetCounter(metric_prefix + "_rebuilds_total")),
      rebuild_seconds_(
          obs::GetFloatGauge(metric_prefix + "_rebuild_seconds")) {}

Status MergedViewCache::View(ShardSpan shards, uint64_t items,
                             uint64_t rotations, const Summary** view) {
  if (shards.size() == 1) {
    *view = shards[0].get();
    return Status::Ok();
  }
  if (merged_ != nullptr && items == items_ && rotations == rotations_) {
    *view = merged_.get();
    return Status::Ok();
  }
  obs::ScopedPhase phase("merge_rebuild");  // only the cache-miss branch
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  Status status;
  merged_ = MakeSummary(shards[0]->Name(), shards[0]->Options(), &status);
  if (merged_ == nullptr) return status;
  for (const auto& shard : shards) {
    status = merged_->Merge(*shard);
    if (!status.ok()) {
      merged_.reset();  // a partial merge must never be served
      return status;
    }
  }
  items_ = items;
  rotations_ = rotations;
  if (obs_on) {
    const uint64_t elapsed = obs::TraceRing::NowNs() - t0;
    rebuild_ns_->Observe(elapsed);
    rebuild_seconds_->Set(static_cast<double>(elapsed) * 1e-9);
    rebuilds_->Inc();
  }
  *view = merged_.get();
  return Status::Ok();
}

size_t MergedViewCache::MemoryUsageBytes() const {
  return merged_ == nullptr ? 0 : merged_->MemoryUsageBytes();
}

}  // namespace l1hh
