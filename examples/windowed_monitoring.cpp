// Continuous monitoring with a sliding window: "heavy in the last W
// items", not "heavy since boot".
//
// A synthetic service-traffic stream drifts: a content push makes a new
// set of hot keys every "hour" (phase), and yesterday's hot keys go
// quiet.  Two monitors watch the same stream —
//   * a whole-stream summary (the classic deployment), which averages
//     over all history, and
//   * a windowed:space_saving ring (src/window/, docs/WINDOWS.md) sized
//     to one hour, which answers for the last W items only —
// and the report after the last switch shows the difference: the
// windowed monitor lists exactly the CURRENT hot set, while the
// whole-stream monitor still ranks expired keys near the top.
//
// Expected output: three phases; after the final one the windowed report
// contains the phase-3 keys (shares ~16%/~12% of the window) and none of
// the phase-1/2 keys (evicted within one window of going quiet), while
// the whole-stream report still carries earlier-phase keys at ~4-5%
// lifetime share.  Exit code 0 iff the windowed monitor got the current
// set exactly right.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "stream/stream_generator.h"
#include "summary/summary.h"
#include "window/sliding_window_summary.h"

int main() {
  using namespace l1hh;

  // One "hour" of traffic per phase; the window spans one hour in 32
  // two-minute buckets (query slack eps + 1/32).
  const uint64_t phase_length = 1 << 18;
  const size_t phases = 3;

  DriftSpec spec;
  spec.planted_fractions = {0.16, 0.12};
  spec.phases = phases;
  spec.universe_size = uint64_t{1} << 24;
  spec.stream_length = phases * phase_length;
  const DriftStream traffic = MakePlantedDriftStream(spec, /*seed=*/41);

  SummaryOptions options;
  options.epsilon = 0.01;
  options.phi = 0.08;
  options.universe_size = spec.universe_size;
  options.stream_length = spec.stream_length;
  options.seed = 41;
  options.window_size = phase_length;  // one hour
  options.window_buckets = 32;

  auto whole = MakeSummary("space_saving", options);
  auto windowed = MakeSummary("windowed:space_saving", options);
  whole->UpdateColumn(traffic.items.data(), traffic.items.size());
  windowed->UpdateColumn(traffic.items.data(), traffic.items.size());

  const auto* ring =
      dynamic_cast<const SlidingWindowSummary*>(windowed.get());
  std::printf("traffic: %zu items in %zu phases; window = last %llu items "
              "(%zu buckets)\n",
              traffic.items.size(), phases,
              static_cast<unsigned long long>(ring->window_size()),
              ring->num_buckets());

  const auto current = windowed->HeavyHitters(options.phi);
  std::printf("\nwindowed monitor (last hour), phi=%.0f%%:\n",
              100.0 * options.phi);
  const double covered = static_cast<double>(ring->window_items());
  for (const auto& hh : current) {
    std::printf("  key %-12llu ~%5.1f%% of the window\n",
                static_cast<unsigned long long>(hh.item),
                100.0 * hh.estimate / covered);
  }

  // The whole-stream monitor, queried at the LIFETIME share the same keys
  // would need: each phase's heavies own ~16%/12% of one third of the
  // stream, i.e. ~4-5% lifetime — stale keys keep qualifying forever.
  const auto lifetime = whole->HeavyHitters(0.04);
  std::printf("\nwhole-stream monitor, phi=4%%:\n");
  size_t stale = 0;
  for (const auto& hh : lifetime) {
    bool expired = false;
    for (size_t p = 0; p + 1 < phases; ++p) {
      expired |= std::count(traffic.planted_ids[p].begin(),
                            traffic.planted_ids[p].end(), hh.item) > 0;
    }
    stale += expired ? 1 : 0;
    std::printf("  key %-12llu ~%5.1f%% lifetime%s\n",
                static_cast<unsigned long long>(hh.item),
                100.0 * hh.estimate /
                    static_cast<double>(traffic.items.size()),
                expired ? "   <- expired an hour ago" : "");
  }
  std::printf("\nwhole-stream report carries %zu expired key(s); the "
              "windowed report carries none.\n",
              stale);

  // Self-check: the windowed report is exactly the current heavy set.
  const auto& fresh = traffic.planted_ids[phases - 1];
  bool ok = current.size() == fresh.size();
  for (const uint64_t key : fresh) {
    ok = ok && std::any_of(current.begin(), current.end(),
                           [key](const ItemEstimate& e) {
                             return e.item == key;
                           });
  }
  std::printf("windowed monitor %s the current hot set.\n",
              ok ? "matches" : "MISSED");
  return ok ? 0 : 1;
}
