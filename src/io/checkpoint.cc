#include "io/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "io/durable_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace l1hh {
namespace {

constexpr const char* kManifestPrefix = "MANIFEST.";
constexpr const char* kManifestHeader = "l1hh-checkpoint v2";

// Chain files name shard and generation, so a chain spanning generations
// never collides with its own base and retention can prune by name.
std::string ChainFileName(size_t shard, uint64_t gen, bool delta) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04zu.g%06llu.%s", shard,
                static_cast<unsigned long long>(gen),
                delta ? "delta" : "l1hh");
  return name;
}

std::string ManifestFileName(uint64_t gen) {
  char name[32];
  std::snprintf(name, sizeof(name), "MANIFEST.%06llu",
                static_cast<unsigned long long>(gen));
  return name;
}

std::string InDir(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

// A whole-field decimal count: no sign, no spaces, no trailing bytes.
bool ParseCount(const std::string& value, uint64_t* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  return !value.empty() && ec == std::errc() && ptr == end;
}

/// Manifest generations in `dir`, newest first (a pre-v2 "MANIFEST" is none).
std::vector<uint64_t> ListManifestGenerations(const std::string& dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t gen = 0;
    if (name.starts_with(kManifestPrefix) &&
        ParseCount(name.substr(std::strlen(kManifestPrefix)), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
  return gens;
}

// Checkpoint writes chain files in one name shape; anything else in a
// manifest (path separators, a delta in base position, a foreign name)
// is tampering, not a checkpoint we wrote.
bool PlausibleChainFileName(const std::string& file, size_t shard,
                            bool is_full) {
  unsigned long long gen = 0;
  return std::sscanf(file.c_str(), "shard-%*u.g%llu", &gen) == 1 &&
         file == ChainFileName(shard, gen, !is_full);
}

// Parses MANIFEST.<generation>; its `generation=` must name its own file.
Status ReadManifest(const std::string& dir, uint64_t generation,
                    Manifest* manifest) {
  const std::string path = InDir(dir, ManifestFileName(generation));
  const auto corrupt = [&path](const std::string& what) {
    return Status::Corruption(what + " in '" + path + "'");
  };
  std::vector<uint8_t> raw;
  const Status read = ReadFileBytes(path, &raw);
  if (!read.ok()) return read;
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return corrupt("unrecognized manifest header");
  }
  *manifest = Manifest{};
  uint64_t num_shards = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(std::min(eq + 1, line.size()));
    bool parsed = eq != std::string::npos;
    if (key == "algorithm") {
      manifest->algorithm = value;
    } else if (key == "num_shards") {
      parsed = ParseCount(value, &num_shards);
    } else if (key == "generation") {
      parsed = ParseCount(value, &manifest->generation);
    } else if (key == "items_processed") {
      parsed = ParseCount(value, &manifest->items_processed);
    } else if (key == "shard" && parsed) {
      // "shard=IDX APPLIED ROTATIONS FILE[+FILE...]", in index order.
      std::istringstream fields(value);
      uint64_t index = 0;
      ShardBaseline clocks;
      std::string joined;
      if (!(fields >> index >> clocks.applied >> clocks.rotations >>
            joined) ||
          index != manifest->shards.size()) {
        return corrupt("malformed shard record '" + value + "'");
      }
      std::istringstream files(joined);
      std::vector<std::string> chain;
      for (std::string file; std::getline(files, file, '+');) {
        if (!PlausibleChainFileName(file, index, chain.empty())) {
          return corrupt("unexpected shard file name '" + file + "'");
        }
        chain.push_back(std::move(file));
      }
      clocks.valid = true;
      clocks.chain = static_cast<uint32_t>(chain.size() - 1);
      manifest->shards.push_back(clocks);
      manifest->chains.push_back(std::move(chain));
    } else if (parsed) {
      // Unknown keys are rejected, not skipped: a v2 reader must not
      // half-understand a future manifest.
      return Status::InvalidArgument("unknown manifest key '" + key +
                                     "' in '" + path + "'");
    }
    if (!parsed) return corrupt("malformed manifest line '" + line + "'");
  }
  if (manifest->algorithm.empty() || num_shards == 0 ||
      manifest->shards.size() != num_shards ||
      manifest->generation != generation) {
    return corrupt("incomplete or misnumbered manifest (algorithm='" +
                   manifest->algorithm + "', generation=" +
                   std::to_string(manifest->generation) + ", num_shards=" +
                   std::to_string(num_shards) + ", " +
                   std::to_string(manifest->shards.size()) + " records)");
  }
  return Status::Ok();
}

/// Keeps the newest two readable manifests and the chain files they name;
/// removes other manifests, orphaned chain files and stray .tmp leftovers.
/// Best-effort: retention never outranks the checkpoint that completed.
void PruneCheckpoints(const std::string& dir) {
  std::error_code ec;
  std::set<std::string> keep;
  size_t kept = 0;
  for (const uint64_t gen : ListManifestGenerations(dir)) {
    Manifest manifest;
    const std::string name = ManifestFileName(gen);
    if (kept < 2 && ReadManifest(dir, gen, &manifest).ok()) {
      ++kept;
      keep.insert(name);
      for (const auto& chain : manifest.chains) {
        keep.insert(chain.begin(), chain.end());
      }
    } else {
      std::filesystem::remove(InDir(dir, name), ec);
    }
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool chain_file =
        name.starts_with("shard-") &&
        (name.ends_with(".l1hh") || name.ends_with(".delta"));
    if (keep.count(name) == 0 &&
        (chain_file || name.ends_with(kDurableTmpSuffix))) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace

Status BeginCheckpoint(const std::string& dir, const std::string& algorithm,
                       size_t num_shards, bool incremental, Manifest* next) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory '" + dir +
                           "': " + ec.message());
  }
  const std::vector<uint64_t> gens = ListManifestGenerations(dir);
  *next = Manifest{};
  for (const uint64_t gen : incremental ? gens : std::vector<uint64_t>{}) {
    Manifest base;
    if (ReadManifest(dir, gen, &base).ok() && base.algorithm == algorithm &&
        base.shards.size() == num_shards) {
      *next = std::move(base);
      break;
    }
  }
  next->algorithm = algorithm;
  next->generation = (gens.empty() ? 0 : gens.front()) + 1;
  next->shards.resize(num_shards);
  next->chains.resize(num_shards);
  return Status::Ok();
}

Status WriteCheckpointGeneration(const std::string& dir,
                                 const std::vector<ShardFrame>& frames,
                                 Manifest* manifest) {
  for (const ShardFrame& frame : frames) {
    std::vector<std::string>& chain = manifest->chains[frame.shard];
    manifest->shards[frame.shard].Advance(frame);
    if (!frame.delta) chain.clear();
    chain.push_back(
        ChainFileName(frame.shard, manifest->generation, frame.delta));
    const Status written = DurableWriteFile(
        InDir(dir, chain.back()), std::span<const uint8_t>(frame.bytes));
    if (!written.ok()) return written;
  }
  std::ostringstream text;
  text << kManifestHeader << "\n"
       << "algorithm=" << manifest->algorithm << "\n"
       << "num_shards=" << manifest->shards.size() << "\n"
       << "generation=" << manifest->generation << "\n"
       << "items_processed=" << manifest->items_processed << "\n";
  for (size_t s = 0; s < manifest->shards.size(); ++s) {
    text << "shard=" << s << ' ' << manifest->shards[s].applied << ' '
         << manifest->shards[s].rotations << ' ';
    const char* separator = "";
    for (const std::string& file : manifest->chains[s]) {
      text << separator << file;
      separator = "+";
    }
    text << "\n";
  }
  // The manifest goes last: until its durable rename lands, Restore still
  // resolves to the previous generation.
  const Status sealed = DurableWriteFile(
      InDir(dir, ManifestFileName(manifest->generation)), text.str());
  if (sealed.ok()) PruneCheckpoints(dir);
  return sealed;
}

Status RestoreNewestGeneration(
    const std::string& dir,
    const std::function<Status(const Manifest&,
                               const std::vector<ShardFrame>&)>& restore) {
  const std::vector<uint64_t> gens = ListManifestGenerations(dir);
  if (gens.empty()) {
    return Status::InvalidArgument(
        "'" + dir + "' is not a checkpoint directory (no " +
        kManifestPrefix + "<gen>)");
  }
  // Newest complete generation wins, so a crash mid-checkpoint costs at
  // most the work since the previous checkpoint, never the directory.
  Status newest_error;
  for (const uint64_t gen : gens) {
    Manifest manifest;
    std::vector<ShardFrame> frames;
    Status attempt = ReadManifest(dir, gen, &manifest);
    for (size_t s = 0; s < manifest.chains.size() && attempt.ok(); ++s) {
      for (size_t f = 0; f < manifest.chains[s].size() && attempt.ok(); ++f) {
        frames.push_back({s, f != 0, manifest.shards[s].applied,
                          manifest.shards[s].rotations, {}});
        attempt = ReadFileBytes(InDir(dir, manifest.chains[s][f]),
                                &frames.back().bytes);
      }
    }
    if (attempt.ok()) attempt = restore(manifest, frames);
    if (attempt.ok()) return attempt;
    // Counted so operators can see silent data-loss near-misses.
    obs::GetCounter("l1hh_io_restore_fallbacks_total")->Inc();
    obs::Trace(obs::Severity::kWarn, "checkpoint.fallback",
               static_cast<int64_t>(gen));
    if (newest_error.ok()) newest_error = std::move(attempt);
  }
  return newest_error;
}

}  // namespace l1hh
