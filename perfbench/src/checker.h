// Exact-count reference checker for the paper's Definition 1.
//
// A served (eps, phi)-List heavy-hitter answer over a reference stream of
// length m must (1) report every item whose exact count reaches the recall
// threshold, (2) report nothing at or below the rejection threshold, and
// (3) give estimates within the tolerance of the exact count.  Plain
// summaries use recall above phi*m, rejection at (phi-eps)*m and tolerance
// eps*m.  A sliding window is checked against the trailing W items with the
// eps' = eps + 1/B slack of docs/WINDOWS.md: recall at (phi + 1/B)*W,
// rejection at (phi - eps')*W, tolerance eps'*W.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "summary/summary.h"

namespace perfbench {

using ExactCounts = std::unordered_map<uint64_t, uint64_t>;

/// Exact counts of `items`.
ExactCounts CountExact(std::span<const uint64_t> items);

/// Adds `times` copies of `counts` into `*into`.
void AddCounts(const ExactCounts& counts, uint64_t times, ExactCounts* into);

/// The three Definition-1 thresholds, in items.
struct Bounds {
  double recall_at = 0;     // every item with count >= this must be reported
  double reject_at = 0;     // no reported item may have count <= this
  double tolerance = 0;     // |estimate - count| <= this
};

/// Plain (eps, phi) bounds over a stream of m items.
Bounds PlainBounds(double phi, double eps, uint64_t m);

/// Window bounds over the trailing `window` items with `buckets` buckets.
Bounds WindowBounds(double phi, double eps, uint64_t window, uint64_t buckets);

/// Exact counts with their bounds and the items that must be reported,
/// computed once and checked against many answers.
struct Reference {
  ExactCounts counts;
  Bounds bounds;
  std::vector<uint64_t> must_report;
};

Reference MakeReference(ExactCounts counts, const Bounds& bounds);

struct CheckResult {
  uint64_t checks = 0;
  uint64_t violations = 0;
  std::vector<std::string> notes;  // one line per violation (first few)
};

/// Checks a heavy-hitter report (none when `report` is null) and a set of
/// (item, estimate) point answers against exact counts.  Every condition
/// tested counts once in `checks`.
CheckResult CheckDefinition1(const Reference& reference,
                             const std::vector<l1hh::ItemEstimate>* report,
                             const std::vector<std::pair<uint64_t, double>>&
                                 estimates);

/// Feeds the checker a correct report, then one with a heavy hitter removed
/// and one with an estimate shifted past the tolerance.  True when the
/// checker accepts the first and rejects both corruptions.
bool CheckerSelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
