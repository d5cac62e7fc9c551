// Quickstart: find the l1-heavy hitters of a skewed stream in a few lines.
//
// Scenario: the smallest possible end-to-end use of the library — generate
// a Zipf-skewed stream, pick an algorithm from the Summary factory by
// name, feed the stream, and list everything above a 5% frequency.
// Swap the name string ("bdw_optimal", "misra_gries", "space_saving",
// "count_min", ... — see `l1hh_cli list`) to compare algorithms without
// touching any other line.
//
// Expected output: a header line, then 3-4 heavy hitters (the head of the
// Zipf(1.2) distribution) with estimated counts within eps*m = ~10k of the
// truth, descending, followed by the sketch's memory footprint of a few
// KB — thousands of times smaller than the exact 2^20-entry table.
//
// Build & run:
//   cmake -B build -S . && cmake --build build --target quickstart
//   ./build/examples/quickstart
#include <cstdio>

#include "stream/stream_generator.h"
#include "summary/summary.h"

int main() {
  using namespace l1hh;

  // A million draws from a Zipf(1.2) distribution over 2^24 items.
  const uint64_t m = 1 << 20;
  const auto stream = MakeZipfStream(/*n=*/1 << 24, /*alpha=*/1.2, m,
                                     /*seed=*/2024);

  // Ask for every item above 5% of the stream, with 1% slack: items above
  // 5% are guaranteed in, items below 4% are guaranteed out, and every
  // reported count is within 1% of m of the truth.
  SummaryOptions opt;
  opt.epsilon = 0.01;
  opt.phi = 0.05;
  opt.universe_size = uint64_t{1} << 24;
  opt.stream_length = m;
  opt.seed = 1;

  // Any name from RegisteredSummaryNames() works here.
  auto sketch = MakeSummary("bdw_optimal", opt);
  if (sketch == nullptr) {
    std::fprintf(stderr, "unknown algorithm name; try `l1hh_cli list`\n");
    return 1;
  }
  sketch->UpdateColumn(stream.data(), stream.size());  // O(1) per item

  std::printf("heavy hitters (phi=5%%, eps=1%%):\n");
  std::printf("%12s %14s %10s\n", "item", "est. count", "est. %");
  for (const ItemEstimate& hh : sketch->HeavyHitters(opt.phi)) {
    std::printf("%12llu %14.0f %9.2f%%\n",
                static_cast<unsigned long long>(hh.item), hh.estimate,
                100.0 * hh.estimate / static_cast<double>(m));
  }
  std::printf("\nsketch state: %zu bytes (stream was %llu items)\n",
              sketch->MemoryUsageBytes(),
              static_cast<unsigned long long>(m));
  return 0;
}
