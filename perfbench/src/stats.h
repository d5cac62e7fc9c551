// Order statistics and client-side spans for the benchmark.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net.h"

namespace perfbench {

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// One client-side span: a socket verb, a rep, or an in-process layer call.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory while enabled; the traced run writes them out at
/// the end.  Disabled, a span costs one branch.
class Tracer {
 public:
  void SetEnabled(bool on) { enabled_ = on; }

  /// Records a finished span; a no-op returning 0 while disabled.
  uint32_t Record(uint32_t parent, const char* name, int64_t start_ns,
                  int64_t end_ns) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  /// Reserves an id for a span whose end is not known yet (a rep).
  uint32_t Open(uint32_t parent, const char* name) {
    return Record(parent, name, NowNs(), 0);
  }
  void Close(uint32_t id) {
    if (id == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = NowNs();
  }

  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (span.name == name && span.end_ns != 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return out;
  }

  std::vector<SpanRecord> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
