// Crash-safety contract of the checkpoint path (ctest label: io):
//
//   * a simulated crash at EVERY write point of a checkpoint — before the
//     tmp file, mid-tmp (torn), after the tmp but before the rename — for
//     every file in the generation, leaves a directory from which Restore
//     lands on the newest COMPLETE generation, answering exactly as it
//     did when that generation was written;
//   * stray .tmp leftovers are invisible to Restore and collected by the
//     next successful checkpoint;
//   * a manifest whose referenced files are missing (a "stale" higher
//     generation), or whose items_processed= or generation= disagrees
//     with its chains or its name, falls back to the previous complete
//     generation;
//   * an incremental checkpoint after touching 1 of K shards writes O(one
//     shard) bytes, not O(K);
//   * a chain of delta checkpoints restores to exactly the live engine's
//     answers;
//   * I/O failures surface as Status::IOError (with errno text), distinct
//     from Corruption (bad bytes) and InvalidArgument (caller bug).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "io/durable_file.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "util/status.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

SummaryOptions Options() {
  SummaryOptions o;
  o.epsilon = 0.02;
  o.phi = 0.05;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = 40000;
  o.seed = 11;
  return o;
}

std::vector<uint64_t> TestStream() {
  return MakeZipfStream(Options().universe_size, 1.2,
                        Options().stream_length, /*seed=*/5);
}

std::vector<uint64_t> ProbeIds(const std::vector<uint64_t>& stream) {
  std::vector<uint64_t> probes(
      stream.begin(),
      stream.begin() + std::min<size_t>(stream.size(), 64));
  probes.push_back(0);
  probes.push_back(Options().universe_size - 1);
  return probes;
}

void ExpectSameEngineAnswers(ShardedEngine& a, ShardedEngine& b,
                             const std::vector<uint64_t>& probes) {
  EXPECT_EQ(a.ItemsProcessed(), b.ItemsProcessed());
  for (const uint64_t id : probes) {
    EXPECT_EQ(a.Estimate(id), b.Estimate(id)) << "item " << id;
  }
  const auto ha = a.HeavyHitters(Options().phi);
  const auto hb = b.HeavyHitters(Options().phi);
  ASSERT_EQ(ha.size(), hb.size());
  for (size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].item, hb[i].item);
    EXPECT_EQ(ha[i].estimate, hb[i].estimate);
  }
}

std::set<std::string> DirFiles(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

uint64_t FileBytes(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

// RAII disarm so a failed ASSERT cannot leave the injection armed for
// the next test.
struct FaultGuard {
  ~FaultGuard() { SetDurableWriteFailure(DurableFailMode::kNone, 0); }
};

// ---- The crash battery -------------------------------------------------

// Simulate a crash at every write point x every failure mode of a full
// checkpoint over a live directory.  After each crash, Restore must land
// on the last COMPLETE generation and answer exactly as it did then.
TEST(CheckpointFaultTest, CrashAtEveryWritePointRestoresLastGood) {
  FaultGuard guard;
  const auto stream = TestStream();
  const size_t half = stream.size() / 2;
  ShardedEngineOptions opt;
  opt.algorithm = "space_saving";
  opt.summary = Options();
  opt.num_shards = 3;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/fault_battery";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch({stream.data(), half});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // The reference: what generation 1 answers.
  auto reference = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(reference, nullptr) << status.ToString();
  const auto probes = ProbeIds(stream);

  // More ingest, so generation 2 would genuinely differ from 1.
  engine->UpdateBatch({stream.data() + half, stream.size() - half});

  // A full checkpoint writes num_shards shard files + 1 manifest.  Crash
  // at every one of those write points, in every mode.
  const int write_points = static_cast<int>(opt.num_shards) + 1;
  for (const DurableFailMode mode :
       {DurableFailMode::kBeforeTmp, DurableFailMode::kPartialTmp,
        DurableFailMode::kAfterTmp}) {
    for (int crash_at = 0; crash_at < write_points; ++crash_at) {
      SetDurableWriteFailure(mode, crash_at);
      const Status failed = engine->Checkpoint(dir);
      SetDurableWriteFailure(DurableFailMode::kNone, 0);
      ASSERT_FALSE(failed.ok())
          << "mode " << static_cast<int>(mode) << " point " << crash_at;
      EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

      // The directory must still restore — to generation 1's answers,
      // because no later manifest ever completed.
      auto recovered = ShardedEngine::Restore(dir, &status);
      ASSERT_NE(recovered, nullptr)
          << "mode " << static_cast<int>(mode) << " point " << crash_at
          << ": " << status.ToString();
      ExpectSameEngineAnswers(*reference, *recovered, probes);
    }
  }

  // With the injection disarmed the checkpoint completes, and Restore
  // now sees the full stream.
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto final_restore = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(final_restore, nullptr) << status.ToString();
  ExpectSameEngineAnswers(*engine, *final_restore, probes);
  std::filesystem::remove_all(dir);
}

// Same battery over the INCREMENTAL path of a windowed engine: deltas
// and the manifest each get their crash, and the survivor is always the
// previous complete generation.
TEST(CheckpointFaultTest, CrashDuringDeltaCheckpointRestoresLastGood) {
  FaultGuard guard;
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "windowed:space_saving";
  opt.summary = Options();
  opt.summary.window_size = 16384;
  opt.summary.window_buckets = 8;
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/fault_battery_delta";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch({stream.data(), 10000});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto reference = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(reference, nullptr) << status.ToString();
  const auto probes = ProbeIds(stream);

  engine->UpdateBatch({stream.data() + 10000, 3000});

  // Both shards are dirty (the window clock moved), so the delta
  // checkpoint writes 2 delta files + 1 manifest.
  const int write_points = static_cast<int>(opt.num_shards) + 1;
  for (const DurableFailMode mode :
       {DurableFailMode::kBeforeTmp, DurableFailMode::kPartialTmp,
        DurableFailMode::kAfterTmp}) {
    for (int crash_at = 0; crash_at < write_points; ++crash_at) {
      SetDurableWriteFailure(mode, crash_at);
      const Status failed = engine->CheckpointDelta(dir);
      SetDurableWriteFailure(DurableFailMode::kNone, 0);
      ASSERT_FALSE(failed.ok())
          << "mode " << static_cast<int>(mode) << " point " << crash_at;
      EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

      auto recovered = ShardedEngine::Restore(dir, &status);
      ASSERT_NE(recovered, nullptr)
          << "mode " << static_cast<int>(mode) << " point " << crash_at
          << ": " << status.ToString();
      ExpectSameEngineAnswers(*reference, *recovered, probes);
    }
  }

  ASSERT_TRUE(engine->CheckpointDelta(dir).ok());
  auto final_restore = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(final_restore, nullptr) << status.ToString();
  ExpectSameEngineAnswers(*engine, *final_restore, probes);
  std::filesystem::remove_all(dir);
}

// ---- Torn tmp files and stale manifests --------------------------------

TEST(CheckpointFaultTest, TornTmpLeftoversAreIgnoredAndCollected) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "misra_gries";
  opt.summary = Options();
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/torn_tmp";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch(stream);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // Plant the wreckage an interrupted writer leaves: torn tmp files for
  // a would-be next generation.
  for (const char* name :
       {"MANIFEST.000002.tmp", "shard-0000.g000002.l1hh.tmp",
        "shard-0001.g000002.delta.tmp"}) {
    std::ofstream torn(dir + "/" + name, std::ios::binary);
    torn << "torn partial write";
  }

  // Restore never looks at them...
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), stream.size());

  // ...and the next checkpoint's retention sweeps them out.
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const auto files = DirFiles(dir);
  for (const std::string& name : files) {
    EXPECT_FALSE(name.ends_with(".tmp")) << "stray tmp survived: " << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, ManifestOverMissingFilesFallsBackToPreviousGen) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "windowed:space_saving";
  opt.summary = Options();
  opt.summary.window_size = 16384;
  opt.summary.window_buckets = 8;
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/stale_manifest";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch({stream.data(), 10000});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const uint64_t gen1_items = engine->ItemsProcessed();

  engine->UpdateBatch({stream.data() + 10000, 3000});
  ASSERT_TRUE(engine->CheckpointDelta(dir).ok());

  // Lose generation 2's delta files (disk trouble after the manifest
  // landed).  The gen-2 manifest is now stale: it references files that
  // do not exist.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".delta")) std::filesystem::remove(entry.path());
  }

  // Restore must fall back to generation 1, not fail and not lie.
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), gen1_items);

  // A hand-planted far-future manifest over nonexistent files must not
  // shadow the real generations either.
  {
    std::ofstream stale(dir + "/MANIFEST.000042");
    stale << "l1hh-checkpoint v2\n"
          << "algorithm=windowed:space_saving\n"
          << "num_shards=2\n"
          << "generation=42\n"
          << "shard=0 1 0 shard-0000.g000042.l1hh\n"
          << "shard=1 1 0 shard-0001.g000042.l1hh\n";
  }
  restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), gen1_items);
  std::filesystem::remove_all(dir);
}

// ---- Incrementality ----------------------------------------------------

// Touching 1 of K shards and delta-checkpointing writes bytes for that
// one shard plus a manifest — the clean shards' files are not rewritten.
// A newest manifest whose declared totals were edited is not a
// checkpoint we wrote: items_processed= must equal what its chains
// replay to, and generation= must name its own file.
TEST(CheckpointFaultTest, ManifestWithEditedTotalsFallsBackToPreviousGen) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "count_min";
  opt.summary = Options();
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/edited_manifest";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch({stream.data(), 10000});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const uint64_t gen1_items = engine->ItemsProcessed();
  engine->UpdateBatch({stream.data() + 10000, 3000});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const uint64_t gen2_items = engine->ItemsProcessed();

  const std::string manifest_path = dir + "/MANIFEST.000002";
  std::string original;
  {
    std::ifstream in(manifest_path);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  EXPECT_EQ(restored->ItemsProcessed(), gen2_items);

  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"items_processed=" + std::to_string(gen2_items),
            "items_processed=" + std::to_string(gen2_items + 1)},
           {"generation=2", "generation=7"}}) {
    SCOPED_TRACE(to);
    std::string edited = original;
    const size_t at = edited.find(from + "\n");
    ASSERT_NE(at, std::string::npos) << edited;
    edited.replace(at, from.size(), to);
    std::ofstream(manifest_path, std::ios::trunc) << edited;
    restored = ShardedEngine::Restore(dir, &status);
    ASSERT_NE(restored, nullptr) << status.ToString();
    EXPECT_EQ(restored->ItemsProcessed(), gen1_items);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, DeltaCheckpointWritesOneDirtyShardOnly) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "windowed:space_saving";
  opt.summary = Options();
  opt.summary.window_size = 40960;  // bucket width 5120: no rotation below
  opt.summary.window_buckets = 8;
  opt.num_shards = 4;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/delta_bytes";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch({stream.data(), 12000});
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const auto gen1_files = DirFiles(dir);
  uint64_t full_shard_bytes = ~uint64_t{0};
  for (const std::string& name : gen1_files) {
    if (name.ends_with(".l1hh")) {
      full_shard_bytes =
          std::min(full_shard_bytes, FileBytes(dir + "/" + name));
    }
  }

  // Touch ONE shard, few enough items that no bucket boundary is crossed
  // (so the other shards' clocks do not move).
  std::vector<uint64_t> shard0_items;
  for (uint64_t id = 0; shard0_items.size() < 100; ++id) {
    if (engine->ShardOf(id) == 0) shard0_items.push_back(id);
  }
  engine->UpdateBatch(shard0_items);
  ASSERT_TRUE(engine->CheckpointDelta(dir).ok());

  // Exactly two new files: shard 0's delta and the new manifest.
  const auto gen2_files = DirFiles(dir);
  std::vector<std::string> added;
  for (const std::string& name : gen2_files) {
    if (gen1_files.count(name) == 0) added.push_back(name);
  }
  ASSERT_EQ(added.size(), 2u) << "delta checkpoint rewrote clean shards";
  uint64_t delta_bytes = 0;
  bool saw_delta = false;
  for (const std::string& name : added) {
    if (name.ends_with(".delta")) {
      saw_delta = true;
      EXPECT_EQ(name.rfind("shard-0000.", 0), 0u) << name;
      delta_bytes = FileBytes(dir + "/" + name);
    } else {
      EXPECT_EQ(name.rfind("MANIFEST.", 0), 0u) << name;
    }
  }
  ASSERT_TRUE(saw_delta);
  // The one-bucket delta is strictly smaller than even the smallest full
  // shard snapshot (which carries all 8 buckets).
  EXPECT_LT(delta_bytes, full_shard_bytes);

  // And the chain restores to exactly the live answers.
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  ExpectSameEngineAnswers(*engine, *restored, ProbeIds(stream));
  std::filesystem::remove_all(dir);
}

// A plain (non-windowed) structure cannot delta, but incrementality
// still holds at file granularity: only the dirty shard is rewritten.
TEST(CheckpointFaultTest, PlainDeltaCheckpointRewritesOnlyDirtyShard) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "space_saving";
  opt.summary = Options();
  opt.num_shards = 4;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/plain_delta";
  std::filesystem::remove_all(dir);
  engine->UpdateBatch(stream);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  const auto gen1_files = DirFiles(dir);

  std::vector<uint64_t> shard2_items;
  for (uint64_t id = 0; shard2_items.size() < 50; ++id) {
    if (engine->ShardOf(id) == 2) shard2_items.push_back(id);
  }
  engine->UpdateBatch(shard2_items);
  ASSERT_TRUE(engine->CheckpointDelta(dir).ok());

  std::vector<std::string> added;
  for (const std::string& name : DirFiles(dir)) {
    if (gen1_files.count(name) == 0) added.push_back(name);
  }
  ASSERT_EQ(added.size(), 2u);
  for (const std::string& name : added) {
    EXPECT_TRUE(name.rfind("shard-0002.", 0) == 0 ||
                name.rfind("MANIFEST.", 0) == 0)
        << name;
  }
  auto restored = ShardedEngine::Restore(dir, &status);
  ASSERT_NE(restored, nullptr) << status.ToString();
  ExpectSameEngineAnswers(*engine, *restored, ProbeIds(stream));
  std::filesystem::remove_all(dir);
}

// A chain of delta checkpoints across rotations restores exactly, round
// after round — including when the chain cap forces a full rewrite.
TEST(CheckpointFaultTest, DeltaChainRestoresExactlyAcrossRounds) {
  const auto stream = TestStream();
  ShardedEngineOptions opt;
  opt.algorithm = "windowed:misra_gries";
  opt.summary = Options();
  opt.summary.window_size = 4096;  // bucket width 512: chunks rotate
  opt.summary.window_buckets = 8;
  opt.num_shards = 2;
  Status status;
  auto engine = ShardedEngine::Create(opt, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  const std::string dir = testing::TempDir() + "/delta_chain";
  std::filesystem::remove_all(dir);
  const auto probes = ProbeIds(stream);
  size_t pos = 0;
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  for (int round = 0; round < 6 && pos + 1500 <= stream.size(); ++round) {
    engine->UpdateBatch({stream.data() + pos, 1500});
    pos += 1500;
    ASSERT_TRUE(engine->CheckpointDelta(dir).ok()) << "round " << round;
    auto restored = ShardedEngine::Restore(dir, &status);
    ASSERT_NE(restored, nullptr)
        << "round " << round << ": " << status.ToString();
    ExpectSameEngineAnswers(*engine, *restored, probes);
  }
  // At least one generation actually used the delta path.
  bool saw_delta = false;
  for (const std::string& name : DirFiles(dir)) {
    if (name.ends_with(".delta")) saw_delta = true;
  }
  EXPECT_TRUE(saw_delta);
  std::filesystem::remove_all(dir);
}

// ---- Status taxonomy ---------------------------------------------------

TEST(CheckpointFaultTest, IOErrorIsDistinctFromCorruptionAndCallerBugs) {
  // Unwritable target: IOError with the errno text, not InvalidArgument.
  auto summary = MakeSummary("space_saving", Options());
  ASSERT_NE(summary, nullptr);
  const Status unwritable = SaveSummaryToFile(
      *summary, testing::TempDir() + "/no_such_dir_xyz/file.l1hh");
  EXPECT_TRUE(unwritable.IsIOError()) << unwritable.ToString();
  EXPECT_NE(unwritable.ToString().find("file.l1hh"), std::string::npos);

  // Unreadable source: IOError.
  Status status;
  EXPECT_EQ(LoadSummaryFromFile(testing::TempDir() + "/absent.l1hh", &status),
            nullptr);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();

  // Bad bytes under a readable path: Corruption, NOT IOError.
  const std::string garbage_path = testing::TempDir() + "/garbage.l1hh";
  {
    std::ofstream garbage(garbage_path, std::ios::binary);
    garbage << "not a snapshot at all";
  }
  EXPECT_EQ(LoadSummaryFromFile(garbage_path, &status), nullptr);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  std::filesystem::remove(garbage_path);

  // An injected crash reports IOError too (it models a dying write).
  FaultGuard guard;
  SetDurableWriteFailure(DurableFailMode::kBeforeTmp, 0);
  const Status injected =
      SaveSummaryToFile(*summary, testing::TempDir() + "/injected.l1hh");
  SetDurableWriteFailure(DurableFailMode::kNone, 0);
  EXPECT_TRUE(injected.IsIOError()) << injected.ToString();
}

// ---- Delta container unit surface --------------------------------------

TEST(CheckpointFaultTest, DeltaContainerRoundTripsAndRefusesWrongBase) {
  SummaryOptions opt = Options();
  opt.window_size = 4096;
  opt.window_buckets = 8;
  const auto stream = TestStream();

  auto live = MakeSummary("windowed:space_saving", opt);
  ASSERT_NE(live, nullptr);
  live->UpdateColumn(stream.data(), 3000);

  // Clone the base via a full snapshot.
  std::vector<uint8_t> base_bytes;
  ASSERT_TRUE(SaveSummary(*live, &base_bytes).ok());
  Status status;
  auto follower = LoadSummary(base_bytes, &status);
  ASSERT_NE(follower, nullptr) << status.ToString();
  const auto* base_window =
      dynamic_cast<const SlidingWindowSummary*>(follower.get());
  ASSERT_NE(base_window, nullptr);
  const uint64_t base_rotations = base_window->rotations();
  const uint64_t base_items = follower->ItemsProcessed();

  // Advance the live side across a couple of rotations and delta.
  live->UpdateColumn(stream.data() + 3000, 1200);
  std::vector<uint8_t> delta_bytes;
  ASSERT_TRUE(
      SaveSummaryDelta(*live, base_rotations, base_items, &delta_bytes).ok());
  EXPECT_LT(delta_bytes.size(), base_bytes.size());

  // Applying to the exact base catches the follower up bit-exactly.
  ASSERT_TRUE(ApplySummaryDelta(delta_bytes, follower.get()).ok());
  EXPECT_EQ(follower->ItemsProcessed(), live->ItemsProcessed());
  for (const uint64_t id : ProbeIds(stream)) {
    EXPECT_EQ(follower->Estimate(id), live->Estimate(id)) << "item " << id;
  }

  // Applying the same delta AGAIN is a wrong-base Corruption, not a
  // silent double-count.
  const Status reapplied = ApplySummaryDelta(delta_bytes, follower.get());
  EXPECT_TRUE(reapplied.IsCorruption()) << reapplied.ToString();

  // A non-windowed structure cannot source or sink deltas.
  auto plain = MakeSummary("space_saving", Options());
  ASSERT_NE(plain, nullptr);
  std::vector<uint8_t> unused;
  EXPECT_TRUE(SaveSummaryDelta(*plain, 0, 0, &unused).IsFailedPrecondition());
  EXPECT_FALSE(ApplySummaryDelta(delta_bytes, plain.get()).ok());

  // A tail spanning the whole ring is "write a full snapshot instead".
  auto wrapped = MakeSummary("windowed:space_saving", opt);
  ASSERT_NE(wrapped, nullptr);
  wrapped->UpdateColumn(stream.data(), 8000);  // > 8 rotations past base 0
  EXPECT_TRUE(SaveSummaryDelta(*wrapped, 0, 0, &unused).IsInvalidArgument());

  // Flipping a payload bit is a CRC Corruption before anything mutates.
  std::vector<uint8_t> corrupt = delta_bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  auto pristine = LoadSummary(base_bytes, &status);
  ASSERT_NE(pristine, nullptr);
  const Status refused = ApplySummaryDelta(corrupt, pristine.get());
  EXPECT_TRUE(refused.IsCorruption()) << refused.ToString();
  EXPECT_EQ(pristine->ItemsProcessed(), base_items);
}

}  // namespace
}  // namespace l1hh
