// The shard-set core shared by ShardedEngine and l1hh_replica. A set of K
// shard summaries — restored from a checkpoint or received as one
// replication round — is served as ONE stream only if it passes
// CheckShardSet, and is read through one MergedViewCache, so the engine
// and the replica check and merge a shard set the same way.
#ifndef L1HH_ENGINE_SHARD_SET_H_
#define L1HH_ENGINE_SHARD_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

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

/// Checks that `shards` can be served as the shards of one stream: K >= 1
/// (else InvalidArgument); every slot holds a summary named `algorithm`;
/// K > 1 needs SupportsMerge (else FailedPrecondition); all shards share
/// shard 0's options and seed; windowed shards rotated in lockstep, by a
/// count plausible for their combined item total. On success `*rotations`
/// gets that common count (0 when not windowed); any other refusal is
/// Corruption.
Status CheckShardSet(ShardSpan shards, const std::string& algorithm,
                     uint64_t* rotations);

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
