#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

ExactCounts CountExact(std::span<const uint64_t> items) {
  ExactCounts counts;
  counts.reserve(items.size() / 4 + 16);
  for (const uint64_t x : items) ++counts[x];
  return counts;
}

void AddCounts(const ExactCounts& counts, uint64_t times, ExactCounts* into) {
  if (times == 0) return;
  for (const auto& [item, count] : counts) (*into)[item] += count * times;
}

Bounds PlainBounds(double phi, double eps, uint64_t m) {
  const double md = static_cast<double>(m);
  // Definition 1 demands reports for counts strictly above phi*m.
  return Bounds{std::floor(phi * md) + 1, (phi - eps) * md, eps * md};
}

Bounds WindowBounds(double phi, double eps, uint64_t window, uint64_t buckets) {
  const double w = static_cast<double>(window);
  const double slack = 1.0 / static_cast<double>(buckets);
  const double eps_w = eps + slack;
  return Bounds{(phi + slack) * w, (phi - eps_w) * w, eps_w * w};
}

namespace {

uint64_t CountOf(const ExactCounts& exact, uint64_t item) {
  const auto it = exact.find(item);
  return it == exact.end() ? 0 : it->second;
}

void Violation(CheckResult* result, const char* what, uint64_t item,
               double value, double limit) {
  ++result->violations;
  if (result->notes.size() < 8) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s: item %llu value %.1f limit %.1f",
                  what, static_cast<unsigned long long>(item), value, limit);
    result->notes.emplace_back(line);
  }
}

}  // namespace

Reference MakeReference(ExactCounts counts, const Bounds& bounds) {
  Reference reference;
  reference.counts = std::move(counts);
  reference.bounds = bounds;
  for (const auto& [item, count] : reference.counts) {
    if (static_cast<double>(count) >= bounds.recall_at) {
      reference.must_report.push_back(item);
    }
  }
  std::sort(reference.must_report.begin(), reference.must_report.end());
  return reference;
}

CheckResult CheckDefinition1(
    const Reference& reference, const std::vector<l1hh::ItemEstimate>* report,
    const std::vector<std::pair<uint64_t, double>>& estimates) {
  const ExactCounts& exact = reference.counts;
  const Bounds& bounds = reference.bounds;
  CheckResult result;
  std::unordered_map<uint64_t, double> reported;
  if (report != nullptr) {
    for (const l1hh::ItemEstimate& hh : *report) reported[hh.item] = hh.estimate;
  }
  for (const uint64_t item : reference.must_report) {
    if (report == nullptr) break;
    ++result.checks;
    if (reported.count(item) == 0) {
      Violation(&result, "heavy hitter missing", item,
                static_cast<double>(CountOf(exact, item)), bounds.recall_at);
    }
  }
  for (const auto& [item, estimate] : reported) {
    const double count = static_cast<double>(CountOf(exact, item));
    ++result.checks;
    if (count <= bounds.reject_at) {
      Violation(&result, "light item reported", item, count, bounds.reject_at);
    }
    ++result.checks;
    if (std::fabs(estimate - count) > bounds.tolerance) {
      Violation(&result, "reported estimate off", item, estimate - count,
                bounds.tolerance);
    }
  }
  for (const auto& [item, estimate] : estimates) {
    const double count = static_cast<double>(CountOf(exact, item));
    ++result.checks;
    if (std::fabs(estimate - count) > bounds.tolerance) {
      Violation(&result, "point estimate off", item, estimate - count,
                bounds.tolerance);
    }
  }
  return result;
}

bool CheckerSelfTest(std::string* why) {
  // 1000 items: item 1 holds 300, item 2 holds 150, 550 singletons.
  ExactCounts exact{{1, 300}, {2, 150}};
  for (uint64_t x = 100; x < 650; ++x) exact[x] = 1;
  const Bounds bounds = PlainBounds(/*phi=*/0.1, /*eps=*/0.01, 1000);
  const Reference reference = MakeReference(std::move(exact), bounds);
  const std::vector<l1hh::ItemEstimate> good = {{1, 302}, {2, 149}};
  const std::vector<std::pair<uint64_t, double>> good_points = {{1, 302},
                                                                {7, 0}};
  if (CheckDefinition1(reference, &good, good_points).violations != 0) {
    *why = "checker rejected a correct report";
    return false;
  }
  const std::vector<l1hh::ItemEstimate> missing = {{1, 302}};
  if (CheckDefinition1(reference, &missing, good_points).violations == 0) {
    *why = "checker accepted a report with a heavy hitter removed";
    return false;
  }
  const std::vector<std::pair<uint64_t, double>> shifted = {
      {1, 300 + bounds.tolerance + 1}, {7, 0}};
  if (CheckDefinition1(reference, &good, shifted).violations == 0) {
    *why = "checker accepted an estimate shifted past eps*m";
    return false;
  }
  return true;
}

}  // namespace perfbench
