// The checkpoint directory format behind ShardedEngine::Checkpoint,
// CheckpointDelta and Restore (docs/SNAPSHOTS.md#engine-checkpoint--restore):
// chain files named by shard and generation, and a text MANIFEST.<gen>,
// written last, listing every shard's clocks and complete chain.
#ifndef L1HH_IO_CHECKPOINT_H_
#define L1HH_IO_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/shard_set.h"
#include "util/status.h"

namespace l1hh {

/// One MANIFEST.<gen>. It lists complete chains, so it is self-contained.
struct Manifest {
  std::string algorithm;
  uint64_t generation = 0;
  uint64_t items_processed = 0;  // the shards' items summed
  // Per shard: the clocks its chain replays to (invalid: no chain yet),
  // and the chain, full snapshot first, then deltas in apply order.
  std::vector<ShardBaseline> shards;
  std::vector<std::vector<std::string>> chains;
};

/// Creates `dir` if missing and sets `*next` to the manifest of the next
/// generation (one past the newest present) for `algorithm` over
/// `num_shards` shards. With `incremental`, it carries forward the newest
/// readable manifest of that shape, whose shards are then the capture
/// baselines; else no shard has a chain.
Status BeginCheckpoint(const std::string& dir, const std::string& algorithm,
                       size_t num_shards, bool incremental, Manifest* next);

/// Writes each frame as a chain file, advancing its shard's record, seals
/// the generation by writing the manifest last, then prunes old ones.
Status WriteCheckpointGeneration(const std::string& dir,
                                 const std::vector<ShardFrame>& frames,
                                 Manifest* manifest);

/// Hands `restore` each generation of `dir`, newest first, until one is
/// accepted: its manifest and every chain file as a frame carrying its
/// shard record's clocks. A generation that cannot be read, whose
/// `generation=` does not name its file, or that `restore` refuses falls
/// back to the next (l1hh_io_restore_fallbacks_total). Returns the
/// newest refusal when none is accepted.
Status RestoreNewestGeneration(
    const std::string& dir,
    const std::function<Status(const Manifest&,
                               const std::vector<ShardFrame>&)>& restore);

}  // namespace l1hh

#endif  // L1HH_IO_CHECKPOINT_H_
