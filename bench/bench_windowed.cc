// Sliding-window cost model: what rotation and the merged-view query cost
// as the bucket count B varies, for a representative set of mergeable
// structures.
//
//   ./bench_windowed [m] [window]     (defaults: 2^20 items, 2^18 window)
//
// Three measurements per (algorithm, B):
//   * ingest ns/item — includes every rotation (one bucket construction
//     + eviction per W/B items), vs the unwindowed baseline column, so
//     the amortized rotation overhead is directly visible;
//   * rotate us     — mean wall-clock of one Rotate() in isolation
//     (evict + fresh bucket construction), the latency spike a boundary
//     inserts into an ingestion pipeline;
//   * query us      — HeavyHitters(phi) on a COLD merged-view cache
//     (the worst case: B-1 bucket merges + the report), which is the
//     number the invalidate-on-rotate cache protects repeated queries
//     from; a warm query is a cache hit and costs the report alone.
//
// Expectation, confirmed by the table: ingest cost is flat in B (rotation
// amortizes away), rotation cost is flat (one bucket construction), and
// cold-query cost grows roughly linearly in B (B bucket merges) — which
// is the B tradeoff: finer buckets = smaller eps + 1/B slack but costlier
// cold queries.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "window/sliding_window_summary.h"

namespace {

using namespace l1hh;

constexpr double kPhi = 0.05;

double NsPerItem(const std::chrono::steady_clock::time_point& start,
                 const std::chrono::steady_clock::time_point& end,
                 size_t items) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                  start)
                 .count()) /
         static_cast<double>(items == 0 ? 1 : items);
}

SummaryOptions MakeOptions(uint64_t m, uint64_t window, uint64_t buckets) {
  SummaryOptions options;
  options.epsilon = 0.01;
  options.phi = kPhi;
  options.universe_size = uint64_t{1} << 24;
  options.stream_length = m;
  options.seed = 3;
  options.window_size = window;
  options.window_buckets = buckets;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t m = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : uint64_t{1} << 20;
  const uint64_t window = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                   : uint64_t{1} << 18;
  const auto stream =
      MakeZipfStream(uint64_t{1} << 24, 1.1, m, /*seed=*/3);
  std::printf("windowed ingestion/rotation/query cost vs bucket count\n"
              "m=%llu window=%llu zipf(1.1) eps=0.01 phi=%.2f\n",
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(window), kPhi);

  const std::vector<std::string> algorithms = {
      "misra_gries", "space_saving", "count_min", "bdw_optimal"};
  const std::vector<uint64_t> bucket_counts = {4, 8, 16, 32, 64};

  for (const auto& name : algorithms) {
    bench::PrintHeader("windowed:" + name,
                       {"buckets", "base ns/it", "ingest ns/it",
                        "rotate us", "query us", "reported"});
    // Unwindowed baseline: the same structure over the same stream.
    const SummaryOptions base_options = MakeOptions(m, window, 8);
    double base_ns = 0;
    {
      auto baseline = MakeSummary(name, base_options);
      const auto start = std::chrono::steady_clock::now();
      baseline->UpdateColumn(stream.data(), stream.size());
      base_ns = NsPerItem(start, std::chrono::steady_clock::now(),
                          stream.size());
    }
    for (const uint64_t buckets : bucket_counts) {
      const SummaryOptions options = MakeOptions(m, window, buckets);
      auto summary = MakeSummary("windowed:" + name, options);
      if (summary == nullptr) continue;
      const auto ingest_start = std::chrono::steady_clock::now();
      summary->UpdateColumn(stream.data(), stream.size());
      const double ingest_ns = NsPerItem(
          ingest_start, std::chrono::steady_clock::now(), stream.size());

      auto* ring = dynamic_cast<SlidingWindowSummary*>(summary.get());
      // Isolated rotation latency: rotate a few times on a warm ring.
      constexpr int kRotations = 8;
      const auto rotate_start = std::chrono::steady_clock::now();
      for (int i = 0; i < kRotations; ++i) ring->Rotate();
      const double rotate_us =
          NsPerItem(rotate_start, std::chrono::steady_clock::now(),
                    kRotations) /
          1000.0;

      // Cold query: one Update invalidates the merged-view cache, so the
      // HeavyHitters call pays the full B-bucket merge.
      summary->Update(stream[0]);
      const auto query_start = std::chrono::steady_clock::now();
      const auto report = summary->HeavyHitters(kPhi);
      const double query_us =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - query_start)
                  .count()) /
          1000.0;

      bench::PrintRow({static_cast<double>(buckets), base_ns, ingest_ns,
                       rotate_us, query_us,
                       static_cast<double>(report.size())});
    }
  }
  bench::PrintNote(
      "base = unwindowed structure over the same stream; ingest includes "
      "all rotations.");
  bench::PrintNote(
      "query is a COLD merged-view cache (B bucket merges); warm queries "
      "are cache hits.");
  return 0;
}
