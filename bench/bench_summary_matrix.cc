// The unified comparison matrix: every algorithm registered in the
// Summary factory, driven over identical Zipf streams through the single
// RunRegisteredSummary harness in bench_util.h.
//
// One row per (algorithm, workload) cell: recall / precision against the
// Definition 1 contract, worst estimate error in eps*m units, memory, and
// mean per-update latency.  This is the bench the Summary interface
// exists for — adding an algorithm to the registry adds its rows here
// with zero bench code.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "io/snapshot.h"
#include "stream/stream_generator.h"
#include "summary/summary.h"

int main() {
  using namespace l1hh;
  using namespace l1hh::bench;

  const double eps = 0.01;
  const double phi = 0.05;
  const uint64_t n = uint64_t{1} << 24;

  std::printf("Summary matrix: all registered algorithms, eps=%.3f "
              "phi=%.3f n=2^24\n",
              eps, phi);

  for (const double alpha : {1.05, 1.3}) {
    for (const uint64_t m : {uint64_t{1} << 17, uint64_t{1} << 20}) {
      const auto stream = MakeZipfStream(n, alpha, m, /*seed=*/42);
      char title[128];
      std::snprintf(title, sizeof(title), "zipf(%.2f), m=%llu", alpha,
                    static_cast<unsigned long long>(m));
      PrintHeader(title, {"algorithm", "recall", "precision", "max_err",
                          "KB", "ns/update"});
      for (const std::string& name : RegisteredSummaryNames()) {
        SummaryOptions opt;
        opt.epsilon = eps;
        opt.phi = phi;
        opt.universe_size = n;
        opt.stream_length = m;
        opt.seed = 7;
        const auto r = RunRegisteredSummary(name, opt, stream, phi);
        std::printf("%16s", name.c_str());
        PrintRow({r.recall, r.precision,
                  r.max_abs_err / (eps * static_cast<double>(m)),
                  static_cast<double>(r.memory_bytes) / 1024.0,
                  r.update_ns});
      }
      PrintNote("max_err in eps*m units; recall vs f > phi*m, precision "
                "vs f >= (phi-eps)*m");
    }
  }

  // ---- Snapshot sizes at the paper's headline operating point ----------
  // What the space-optimality claim looks like ON THE WIRE: the actual
  // persisted bit-size (src/io/snapshot.h) next to the in-memory
  // paper-style accounting (SpaceBits) and the Theorem 2 shape
  // eps^-1 log2(1/phi) + phi^-1 log2(n) + log2 log2 m evaluated with unit
  // constants.  docs/SNAPSHOTS.md quotes this table.
  {
    const uint64_t m = uint64_t{1} << 20;
    const auto stream = MakeZipfStream(n, 1.1, m, /*seed=*/42);
    const double theory_bits = (1.0 / eps) * std::log2(1.0 / phi) +
                               (1.0 / phi) * std::log2(static_cast<double>(n)) +
                               std::log2(std::log2(static_cast<double>(m)));
    PrintHeader("snapshot bytes vs memory vs Theorem 2 shape "
                "(eps=0.01 phi=0.05, zipf(1.1), m=2^20)",
                {"algorithm", "payload_B", "file_B", "memory_B",
                 "theory_B", "payld/mem"});
    for (const std::string& name : RegisteredSummaryNames()) {
      SummaryOptions opt;
      opt.epsilon = eps;
      opt.phi = phi;
      opt.universe_size = n;
      opt.stream_length = m;
      opt.seed = 7;
      auto summary = MakeSummary(name, opt);
      summary->UpdateColumn(stream.data(), stream.size());
      std::vector<uint8_t> bytes;
      if (!SaveSummary(*summary, &bytes).ok()) continue;
      SnapshotInfo info;
      if (!ReadSnapshotInfo(bytes, &info).ok()) continue;
      const double payload_bytes =
          static_cast<double>(info.payload_bits) / 8.0;
      const double memory_bytes =
          static_cast<double>(summary->MemoryUsageBytes());
      std::printf("%16s", name.c_str());
      PrintRow({payload_bytes, static_cast<double>(bytes.size()),
                memory_bytes, theory_bits / 8.0,
                payload_bytes / memory_bytes});
    }
    PrintNote("payload_B = SaveTo bit payload / 8; file_B adds the "
              "container (header + CRC); memory_B = SpaceBits-derived "
              "MemoryUsageBytes; theory_B = Theorem 2 shape, unit "
              "constants (exact is unbounded by design)");
  }
  return 0;
}
