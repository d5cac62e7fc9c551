#include "engine/shard_set.h"

#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

uint64_t WindowRotations(const Summary& shard) {
  const auto* window = dynamic_cast<const SlidingWindowSummary*>(&shard);
  return window == nullptr ? 0 : window->rotations();
}

}  // namespace

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
  const uint64_t common = WindowRotations(*shards[0]);
  uint64_t total = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    // Same options and seed, or the first merged view would fail to
    // merge: a spliced-in foreign shard is refused here, as a Status.
    if (!(shards[s]->Options() == shards[0]->Options())) {
      return refuse(s, "was built with different options or seed than "
                       "shard 0; not shards of one stream");
    }
    const uint64_t rotated = WindowRotations(*shards[s]);
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

StagedShardSet::StagedShardSet(
    std::vector<std::unique_ptr<Summary>>* committed, std::mutex* mutex)
    : committed_(committed),
      mutex_(mutex),
      staged_(committed->size()),
      framed_(committed->size()) {}

std::unique_lock<std::mutex> StagedShardSet::Lock() const {
  return mutex_ == nullptr ? std::unique_lock<std::mutex>()
                           : std::unique_lock<std::mutex>(*mutex_);
}

Status StagedShardSet::Apply(const ShardFrame& frame) {
  if (refused_.ok()) refused_ = Stage(frame);
  return refused_;
}

Status StagedShardSet::Stage(const ShardFrame& frame) {
  if (frame.shard >= staged_.size()) {
    return Status::Corruption("frame for shard " +
                              std::to_string(frame.shard) + " of " +
                              std::to_string(staged_.size()));
  }
  std::unique_ptr<Summary>& shard = staged_[frame.shard];
  Status status;
  if (frame.delta && shard == nullptr) {
    // Copy the committed shard, so readers keep the original. The encode
    // holds the lock: a windowed summary's merged cache is `mutable`, so
    // even a const read of a committed shard would race a reader.
    std::vector<uint8_t> base;
    {
      const auto lock = Lock();
      const Summary* committed = (*committed_)[frame.shard].get();
      if (committed == nullptr) {
        return Status::FailedPrecondition("delta frame before a full frame");
      }
      status = SaveSummary(*committed, &base);
    }
    if (status.ok()) shard = LoadSummary(base, &status);
  }
  if (!frame.delta) {
    shard = LoadSummary(frame.bytes, &status);
  } else if (status.ok()) {
    status = ApplySummaryDelta(frame.bytes, shard.get());
  }
  if (status.ok()) framed_[frame.shard].Advance(frame);
  return status;
}

Status StagedShardSet::Commit(
    const std::string& algorithm, uint64_t total_items,
    const std::function<void(uint64_t rotations)>& on_commit) {
  if (!refused_.ok()) return refused_;
  const auto lock = Lock();
  // Unframed shards join the staged set for the checks, and go back if
  // it is refused.
  const auto carry = [this] {
    for (size_t s = 0; s < staged_.size(); ++s) {
      if (!framed_[s].valid) staged_[s].swap((*committed_)[s]);
    }
  };
  carry();
  uint64_t rotations = 0;
  refused_ = Check(algorithm, total_items, &rotations);
  if (!refused_.ok()) {
    carry();
    return refused_;
  }
  committed_->swap(staged_);
  if (on_commit != nullptr) on_commit(rotations);
  return Status::Ok();
}

Status StagedShardSet::Check(const std::string& algorithm,
                             uint64_t total_items, uint64_t* rotations) {
  uint64_t total = 0;
  for (size_t s = 0; s < staged_.size(); ++s) {
    if (staged_[s] == nullptr) continue;  // CheckShardSet refuses it
    total += staged_[s]->ItemsProcessed();
    if (framed_[s].valid &&
        (staged_[s]->ItemsProcessed() != framed_[s].applied ||
         WindowRotations(*staged_[s]) != framed_[s].rotations)) {
      return Status::Corruption(
          "shard " + std::to_string(s) + " disagrees with its frame's " +
          std::to_string(framed_[s].applied) + " items and " +
          std::to_string(framed_[s].rotations) + " rotations");
    }
  }
  const Status checked = CheckShardSet(staged_, algorithm, rotations);
  if (!checked.ok() || total == total_items) return checked;
  return Status::Corruption("shards hold " + std::to_string(total) +
                            " items, the round declares " +
                            std::to_string(total_items));
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
  *view = Cached(shards.size(), items, rotations);
  if (*view != nullptr) return Status::Ok();
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

const Summary* MergedViewCache::Cached(size_t num_shards, uint64_t items,
                                      uint64_t rotations) const {
  const bool hit = num_shards > 1 && merged_ != nullptr && items == items_ &&
                   rotations == rotations_;
  return hit ? merged_.get() : nullptr;
}

size_t MergedViewCache::MemoryUsageBytes() const {
  return merged_ == nullptr ? 0 : merged_->MemoryUsageBytes();
}

}  // namespace l1hh
