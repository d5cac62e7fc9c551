// Distributed heavy hitters: four edge routers each sketch their own
// traffic; the collector merges the four sketches into one fleet-wide
// view.  Because Bernoulli samples of disjoint streams concatenate, the
// merged sketch carries the same (eps, phi) guarantee as a single sketch
// over all traffic — no raw packets ever leave a router.
//
// Expected output: the total bits shipped to the collector (a few KB for
// 4 x 256k packets), then the fleet-wide heavy-hitter list containing the
// planted elephant flow 0xbeef at ~11-12% of total traffic — a flow no
// single router sees above the reporting threshold.
#include <cstdio>
#include <vector>

#include "core/bdw_simple.h"
#include "stream/stream_generator.h"
#include "util/bit_stream.h"

int main() {
  using namespace l1hh;

  constexpr int kRouters = 4;
  const uint64_t per_router = 1 << 18;
  const uint64_t total = kRouters * per_router;

  BdwSimple::Options opt;
  opt.epsilon = 0.01;
  opt.phi = 0.05;
  opt.universe_size = uint64_t{1} << 32;
  opt.stream_length = total;  // fleet-wide length, part of the config

  // One cross-router elephant (a DDoS target) plus per-router noise.
  const uint64_t elephant = 0xdead0000beefULL % (uint64_t{1} << 32);

  std::vector<BitWriter> wires(kRouters);
  size_t message_bits = 0;
  for (int r = 0; r < kRouters; ++r) {
    BdwSimple sketch(opt, /*seed=*/42);  // same seed fleet-wide
    Rng rng(1000 + r);
    for (uint64_t i = 0; i < per_router; ++i) {
      // 12% of each router's packets hit the elephant.
      const uint64_t flow = rng.UniformU64(100) < 12
                                ? elephant
                                : rng.UniformU64(uint64_t{1} << 32);
      sketch.Insert(flow);
    }
    sketch.Serialize(wires[r]);
    message_bits += wires[r].size_bits();
  }

  // Collector: deserialize and fold.
  BitReader r0(wires[0]);
  BdwSimple fleet = BdwSimple::Deserialize(r0, opt, 1);
  for (int r = 1; r < kRouters; ++r) {
    BitReader rr(wires[r]);
    fleet = BdwSimple::Merge(fleet, BdwSimple::Deserialize(rr, opt, 1));
  }

  std::printf("%d routers x %llu packets; %zu bits total on the wire "
              "(%.1f KB)\n\n",
              kRouters, static_cast<unsigned long long>(per_router),
              message_bits, message_bits / 8192.0);
  std::printf("fleet-wide heavy hitters (>5%% of ALL traffic):\n");
  for (const HeavyHitter& hh : fleet.Report()) {
    std::printf("  flow %12llx  ~%.1f%% of fleet traffic%s\n",
                static_cast<unsigned long long>(hh.item),
                100.0 * hh.estimated_fraction,
                hh.item == elephant ? "   <- the planted elephant" : "");
  }
  return 0;
}
