// Columnar ingest throughput: the scalar vs batch (UpdateColumn) routes
// per algorithm, and the grouped (per-key) scalar vs columnar routes.
//
//   ./bench_columnar [m] [alpha]       (defaults: 2^20 items, 1.1)
//
// Columns are ns/item (min of 3 alternating reps).  What each section
// claims:
//
//   * summaries — `column` must at least match `scalar`; algorithms with
//     a native UpdateColumn (count_min's tiled hash pre-pass) should beat
//     it by more than the saved virtual call.
//   * grouped — GroupedSummary::UpdateColumn's run detection on a
//     group-clustered column vs the scalar Update(group, item) loop.
//
// docs/GROUPED.md quotes this bench's numbers; re-run after touching the
// hot paths.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "group/grouped_summary.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

namespace {

using namespace l1hh;

using Clock = std::chrono::steady_clock;

double NsPerItem(const Clock::time_point& start, const Clock::time_point& end,
                 size_t items) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(items == 0 ? 1 : items);
}

template <typename Body>
double TimeOnce(size_t items, Body&& body) {
  const auto start = Clock::now();
  body();
  return NsPerItem(start, Clock::now(), items);
}

template <typename Body>
double MinOf3(size_t items, Body&& body) {
  double best = TimeOnce(items, body);
  for (int rep = 1; rep < 3; ++rep) best = std::min(best, TimeOnce(items, body));
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t m = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : uint64_t{1} << 20;
  const double alpha = argc > 2 ? std::atof(argv[2]) : 1.1;
  const uint64_t n = uint64_t{1} << 22;

  SummaryOptions options;
  options.epsilon = 0.005;
  options.phi = 0.02;
  options.delta = 0.05;
  options.universe_size = n;
  options.stream_length = m;
  options.seed = 42;

  const auto stream = MakeZipfStream(n, alpha, m, /*seed=*/3);
  std::printf("columnar ingest: zipf(%.2f), n=2^22, m=%llu\n", alpha,
              static_cast<unsigned long long>(m));
  std::printf("(all columns ns/item, min of 3 alternating reps)\n\n");

  // ---- Single-thread routes per algorithm ------------------------------
  std::printf("%-20s %10s %10s %9s\n", "algorithm", "scalar", "column",
              "speedup");
  for (const auto& name : RegisteredSummaryNames()) {
    const double scalar_ns = MinOf3(stream.size(), [&] {
      auto s = MakeSummary(name, options);
      for (const uint64_t x : stream) s->Update(x);
    });
    const double column_ns = MinOf3(stream.size(), [&] {
      auto s = MakeSummary(name, options);
      s->UpdateColumn(stream.data(), stream.size());
    });
    std::printf("%-20s %10.1f %10.1f %8.2fx\n", name.c_str(), scalar_ns,
                column_ns, scalar_ns / column_ns);
  }

  // ---- Grouped routes --------------------------------------------------
  // A group-clustered column (each tenant's rows arrive in runs of 64, the
  // shape a columnar scan of a sorted/partitioned table produces): run
  // detection pays one table lookup per run instead of per row.
  constexpr uint64_t kTenants = 32;
  std::vector<uint64_t> groups(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    groups[i] = (i / 64) % kTenants;
  }
  std::printf("\ngrouped (%llu tenants, runs of 64): scalar Update vs "
              "columnar run detection\n",
              static_cast<unsigned long long>(kTenants));
  std::printf("%-20s %10s %10s %9s\n", "algorithm", "scalar", "column",
              "speedup");
  for (const char* name : {"space_saving", "count_min"}) {
    GroupedSummaryOptions grouped_options;
    grouped_options.algorithm = name;
    grouped_options.summary = options;
    const double scalar_ns = MinOf3(stream.size(), [&] {
      auto g = GroupedSummary::Create(grouped_options);
      for (size_t i = 0; i < stream.size(); ++i) {
        g->Update(groups[i], stream[i]);
      }
    });
    const double column_ns = MinOf3(stream.size(), [&] {
      auto g = GroupedSummary::Create(grouped_options);
      g->UpdateColumn(groups.data(), stream.data(), stream.size());
    });
    std::printf("%-20s %10.1f %10.1f %8.2fx\n", name, scalar_ns, column_ns,
                scalar_ns / column_ns);
  }
  return 0;
}
