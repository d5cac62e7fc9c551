// Elephant-flow detection on a router, the paper's flagship application
// ([EV03]: "focusing on the elephants, ignoring the mice").
//
// A synthetic packet trace over (src, dst) flow ids: a handful of planted
// elephants (bulk transfers) drown in a sea of mice.  The router keeps one
// small sketch per interface; a collector later merges the picture by
// deserializing each sketch — exactly the handoff the serialization layer
// exists for.  No real trace is needed: the guarantees are
// distribution-free (DESIGN.md substitution #2).
//
// Expected output: the router->collector message size (~2 KB for a 1M
// packet trace), then the three planted elephant flows listed with
// estimated traffic shares (~25%, ~12%, ~8%) — and none of the mice.
#include <cstdio>

#include "core/bdw_simple.h"
#include "stream/stream_generator.h"
#include "util/bit_stream.h"

namespace {

uint64_t FlowId(uint32_t src, uint32_t dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

void PrintIp(uint32_t ip) {
  std::printf("%u.%u.%u.%u", ip >> 24, (ip >> 16) & 0xff, (ip >> 8) & 0xff,
              ip & 0xff);
}

}  // namespace

int main() {
  using namespace l1hh;

  const uint64_t packets = 1 << 20;
  Rng rng(7);

  // Three bulk flows own ~45% of traffic; 100k mouse flows split the rest.
  const uint64_t elephants[3] = {FlowId(0x0a000001, 0xc0a80101),
                                 FlowId(0x0a000002, 0xc0a80102),
                                 FlowId(0xac100003, 0x08080808)};
  const double shares[3] = {0.25, 0.12, 0.08};

  BdwSimple::Options opt;
  opt.epsilon = 0.01;
  opt.phi = 0.05;
  opt.universe_size = UINT64_MAX;  // 64-bit flow id space
  opt.stream_length = packets;
  BdwSimple router_sketch(opt, 99);

  for (uint64_t i = 0; i < packets; ++i) {
    const double u = rng.UniformDouble();
    uint64_t flow;
    if (u < shares[0]) {
      flow = elephants[0];
    } else if (u < shares[0] + shares[1]) {
      flow = elephants[1];
    } else if (u < shares[0] + shares[1] + shares[2]) {
      flow = elephants[2];
    } else {
      flow = FlowId(static_cast<uint32_t>(rng.NextU64()),
                    static_cast<uint32_t>(rng.UniformU64(100000)));
    }
    router_sketch.Insert(flow);
  }

  // Ship the sketch to the collector (this is the whole point: the trace
  // is gone, only these bits travel).
  BitWriter wire;
  router_sketch.Serialize(wire);
  std::printf("router -> collector message: %zu bits (%.1f KB); trace was "
              "%llu packets\n\n",
              wire.size_bits(), wire.size_bits() / 8192.0,
              static_cast<unsigned long long>(packets));

  BitReader reader(wire);
  const BdwSimple collector = BdwSimple::Deserialize(reader, opt, 100);

  std::printf("elephant flows (>5%% of packets):\n");
  for (const HeavyHitter& hh : collector.Report()) {
    std::printf("  ");
    PrintIp(static_cast<uint32_t>(hh.item >> 32));
    std::printf(" -> ");
    PrintIp(static_cast<uint32_t>(hh.item & 0xffffffff));
    std::printf("  ~%.1f%% of traffic (est. %.0f packets)\n",
                100.0 * hh.estimated_fraction, hh.estimated_count);
  }
  return 0;
}
