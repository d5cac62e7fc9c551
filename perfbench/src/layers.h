// The traced run's per-layer replay: times calls into each layer's public
// functions (hash, sampling, summary, engine, window, io) on a workload's
// stream and parameters, and times the serve and replica verbs on an idle
// server pair.  Every measurement is recorded as a span of its own.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// Ordered (metric name, value) pairs.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Appends the layer metrics for `inputs` to `out`, and the idle server
/// pair's `metrics` scrape (roles layer_primary / layer_replica) to
/// `scrape`.
void MeasureLayers(const RunConfig& config, const LayerInputs& inputs,
                   Tracer& tracer, Ops& ops, MetricList* out,
                   std::vector<std::string>* scrape);

/// Derives the server.* metrics from a scrape: mean query-phase time per
/// phase, mean engine merge-rebuild / park-wait / flush-wait time, the
/// ring high-water mark and the replica view-rebuild time.  Roles are
/// tried in order; the first role exposing a metric wins.
void ScrapeMetrics(const std::vector<std::string>& scrape, MetricList* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
