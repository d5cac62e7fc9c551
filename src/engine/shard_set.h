// The shard-set core shared by ShardedEngine and l1hh_replica. A set of K
// shard summaries — restored from a checkpoint or received as one
// replication round — reaches a committed set only through one
// StagedShardSet, is served as ONE stream only if it passes
// CheckShardSet, and is read through one MergedViewCache, so the engine
// and the replica apply, check and merge a shard set the same way.
#ifndef L1HH_ENGINE_SHARD_SET_H_
#define L1HH_ENGINE_SHARD_SET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {

namespace obs {
class Counter;
class FloatGauge;
class Histogram;
}  // namespace obs

/// The K shard summaries of one hash-partitioned stream, in shard order.
using ShardSpan = std::span<const std::unique_ptr<Summary>>;

/// One captured shard state: a full snapshot ("L1HHSNAP") or a delta
/// ("L1HHDELT") on the consumer's baseline, and the clocks it leads to.
struct ShardFrame {
  size_t shard = 0;
  bool delta = false;
  uint64_t applied = 0;    // shard items applied after this frame
  uint64_t rotations = 0;  // shard rotations after this frame
  std::vector<uint8_t> bytes;
};

/// What a frame consumer (a checkpoint manifest, a replica connection)
/// holds for one shard; CaptureFrames diffs it against the live clocks.
struct ShardBaseline {
  bool valid = false;      // false: nothing held; always emit a full frame
  uint64_t applied = 0;    // shard items applied at the baseline
  uint64_t rotations = 0;  // shard window rotations (0 when not windowed)
  uint32_t chain = 0;      // deltas already stacked on the baseline's base

  /// True when the consumer already holds a shard at these clocks.
  bool Holds(uint64_t live_applied, uint64_t live_rotations) const {
    return valid && applied == live_applied && rotations == live_rotations;
  }

  /// The state a consumer holds once it has applied `frame`.
  void Advance(const ShardFrame& frame) {
    *this = {true, frame.applied, frame.rotations,
             frame.delta ? chain + 1 : 0};
  }
};

/// Checks that `shards` can be served as the shards of one stream: K >= 1
/// (else InvalidArgument); every slot holds a summary named `algorithm`;
/// K > 1 needs SupportsMerge (else FailedPrecondition); all shards share
/// shard 0's options and seed; windowed shards rotated in lockstep, by a
/// count plausible for their combined item total. On success `*rotations`
/// gets that common count (0 when not windowed); any other refusal is
/// Corruption.
Status CheckShardSet(ShardSpan shards, const std::string& algorithm,
                     uint64_t* rotations);

/// The one route from frames to a committed shard set, for Restore and
/// the replica. Apply stages a round's frames in order: a full frame is
/// loaded, a delta advances the shard staged this round or else a copy of
/// the committed one. Commit carries unframed shards over and swaps the
/// set in only if framed shards match their last frame's clocks, the items
/// sum to the declared total and CheckShardSet passes. A refusal leaves
/// the committed set as it was and is returned by every later call.
class StagedShardSet {
 public:
  /// `committed`: the K committed shards (null before the first round).
  /// With `mutex`, held only to copy a delta base and to swap the commit
  /// in, so frames decode while readers query.
  explicit StagedShardSet(std::vector<std::unique_ptr<Summary>>* committed,
                          std::mutex* mutex = nullptr);

  Status Apply(const ShardFrame& frame);

  /// On success, runs `on_commit(rotations)` under the mutex, so readers
  /// see the caller's round state change with the shards.
  Status Commit(const std::string& algorithm, uint64_t total_items,
                const std::function<void(uint64_t rotations)>& on_commit =
                    nullptr);

 private:
  Status Stage(const ShardFrame& frame);
  Status Check(const std::string& algorithm, uint64_t total_items,
               uint64_t* rotations);
  std::unique_lock<std::mutex> Lock() const;

  std::vector<std::unique_ptr<Summary>>* const committed_;
  std::mutex* const mutex_;
  std::vector<std::unique_ptr<Summary>> staged_;  // null: no frame yet
  std::vector<ShardBaseline> framed_;  // clocks of each shard's last frame
  Status refused_;
};

/// The merge-epoch cache a shard set is queried through. A lone shard is
/// its own view (so K == 1 serves non-mergeable algorithms); otherwise a
/// fresh summary absorbs every shard, reused until the caller's
/// (items, rotations) clock moves. A rebuild runs in the `merge_rebuild`
/// query phase and, with telemetry on, feeds <prefix>_rebuild_ns,
/// <prefix>_rebuilds_total and <prefix>_rebuild_seconds. The owner
/// serializes calls.
class MergedViewCache {
 public:
  explicit MergedViewCache(const std::string& metric_prefix);

  /// Points `*view` at the merged view of `shards` at (items, rotations),
  /// valid until the next call or until `shards` changes. A failed merge
  /// drops the cache and returns its Status.
  Status View(ShardSpan shards, uint64_t items, uint64_t rotations,
              const Summary** view);

  /// The merge cached for `num_shards` shards at exactly (items,
  /// rotations), or null. It is an object of its own, so it can be read
  /// while the shards change; a lone shard is its own view and never
  /// cached.
  const Summary* Cached(size_t num_shards, uint64_t items,
                        uint64_t rotations) const;

  /// Bytes held by the cached merge (0 when none is cached).
  size_t MemoryUsageBytes() const;

 private:
  obs::Histogram* const rebuild_ns_;
  obs::Counter* const rebuilds_;
  obs::FloatGauge* const rebuild_seconds_;
  std::unique_ptr<Summary> merged_;  // null: nothing cached
  uint64_t items_ = 0;
  uint64_t rotations_ = 0;
};

}  // namespace l1hh

#endif  // L1HH_ENGINE_SHARD_SET_H_
