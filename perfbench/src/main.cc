// perfbench_loadgen — the layered end-to-end benchmark's load generator.
//
//   perfbench_loadgen --workload <ingest_paper|query_window|fanin_replica>
//       --seed <n> --seconds <s> --trace <0|1>
//       --serve <l1hh_serve> --replica <l1hh_replica> --work-dir <dir>
//
// Starts the real servers, drives them over Unix sockets, checks their
// answers against exact counts, and prints one line per metric followed
// by a final JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the run's spans, layer numbers and server
// scrapes are also written to <work-dir>/trace-<workload>-<seed>.json.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <fstream>
#include <string>
#include <vector>

#include "checker.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  RunConfig config;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args->config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->config.trace = value == "1";
    } else if (key == "--serve") {
      args->config.serve_bin = value;
    } else if (key == "--replica") {
      args->config.replica_bin = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || args->config.seconds <= 0 ||
      args->config.serve_bin.empty() || args->config.replica_bin.empty() ||
      args->work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 --serve BIN --replica BIN --work-dir DIR\n");
    return false;
  }
  return true;
}

std::string Absolute(const std::string& path) {
  char resolved[PATH_MAX];
  return ::realpath(path.c_str(), resolved) != nullptr ? resolved : "";
}

// Every metric name carries its unit as the suffix of one dot-separated
// segment (summary.update_ns.count_min, peak_rss_mb, io.bytes.misra_gries).
const char* UnitOf(const std::string& name) {
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {"_pct", "%"}, {"_per_s", "1/s"}, {"_ns", "ns"}, {"_us", "us"},
      {"_ms", "ms"}, {"_mb", "MB"},     {"_s", "s"},   {"bytes", "bytes"}};
  size_t start = 0;
  while (start <= name.size()) {
    const size_t dot = std::min(name.find('.', start), name.size());
    const std::string segment = name.substr(start, dot - start);
    for (const auto& [suffix, unit] : kSuffixes) {
      const size_t len = std::strlen(suffix);
      if (segment.size() >= len &&
          segment.compare(segment.size() - len, len, suffix) == 0) {
        return unit;
      }
    }
    start = dot + 1;
  }
  return "count";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;  // median over reps of the per-rep figure
  size_t reps = 0;
  size_t samples = 0;
};

// The tails are printed but left out of the JSON result: their
// run-to-run spread on a shared 4-vCPU machine exceeds any regression
// bound BENCHMARK.json may set (README.md, "Metrics left out of the gate").
bool InResult(const std::string& name) {
  return name != "heavy_p90_ms" && name != "estimate_p90_ms" &&
         name != "ingest_lag_p99_ms";
}

// One end-to-end metric: `figure` maps a rep to its value (a rate, a
// set-up time, or a percentile of that rep's samples).  Reps are separate
// server processes; the median over them keeps a stall that hits a few
// reps from moving the run's figure.
template <typename Figure>
Metric OverReps(const std::string& name, const WorkloadResult& result,
                bool traced, Figure&& figure) {
  Metric metric{name, UnitOf(name)};
  std::vector<double> values;
  for (const RepSamples& rep : result.reps) {
    if (rep.traced != traced) continue;
    size_t samples = 0;
    const double value = figure(rep, &samples);
    if (value <= 0) continue;  // a rep that failed before measuring
    values.push_back(value);
    metric.samples += samples;
  }
  metric.value = Median(values);
  metric.reps = values.size();
  return metric;
}

// The end-to-end metrics over the reps with the given tracing state.
// `setup_s` also counts the run's extra set-up cycles when asked.
std::vector<Metric> EndToEnd(const WorkloadResult& result, bool traced,
                             bool include_probes) {
  auto scalar = [](double RepSamples::*field) {
    return [field](const RepSamples& rep, size_t* samples) {
      *samples = 1;
      return rep.*field;
    };
  };
  auto percentile = [](std::vector<double> RepSamples::*field, double q) {
    return [field, q](const RepSamples& rep, size_t* samples) {
      *samples = (rep.*field).size();
      return Quantile(rep.*field, q);
    };
  };
  std::vector<Metric> metrics = {
      OverReps("setup_s", result, traced, scalar(&RepSamples::setup_s)),
      OverReps("ingest_items_per_s", result, traced,
               scalar(&RepSamples::ingest_items_per_s)),
      OverReps("heavy_p50_ms", result, traced,
               percentile(&RepSamples::heavy_ms, 0.5)),
      OverReps("heavy_p90_ms", result, traced,
               percentile(&RepSamples::heavy_ms, 0.9)),
      OverReps("estimate_p50_ms", result, traced,
               percentile(&RepSamples::estimate_ms, 0.5)),
      OverReps("estimate_p90_ms", result, traced,
               percentile(&RepSamples::estimate_ms, 0.9)),
      OverReps("ingest_lag_p99_ms", result, traced,
               percentile(&RepSamples::lag_ms, 0.99)),
      OverReps("peak_rss_mb", result, traced,
               scalar(&RepSamples::peak_rss_mb)),
  };
  if (include_probes) {
    metrics[0].value = Median(result.setup_s);
    metrics[0].samples = result.setup_s.size();
  }
  return metrics;
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-22s %14.6g %-5s reps=%zu samples=%zu\n",
              m.name.c_str(), m.value, m.unit.c_str(), m.reps, m.samples);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void WriteTraceFile(const std::string& path, const Tracer& tracer,
                    const MetricList& layers,
                    const std::vector<std::string>& scrape) {
  std::ofstream out(path);
  out << "{\"layers\": {";
  for (size_t i = 0; i < layers.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", layers[i].second);
    out << (i ? ", " : "") << "\"" << layers[i].first << "\": " << value;
  }
  out << "},\n\"scrape\": [";
  for (size_t i = 0; i < scrape.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "\"" << JsonEscape(scrape[i]) << "\"";
  }
  out << "],\n\"spans\": [";
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "]}\n";
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::string why;
  if (!CheckerSelfTest(&why)) {
    std::fprintf(stderr, "checker self-test failed: %s\n", why.c_str());
    return 1;
  }
  RunConfig& config = args.config;
  config.serve_bin = Absolute(config.serve_bin);
  config.replica_bin = Absolute(config.replica_bin);
  if (config.serve_bin.empty() || config.replica_bin.empty()) {
    std::fprintf(stderr, "server binaries not found\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  if (::chdir(args.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter %s\n", args.work_dir.c_str());
    return 2;
  }

  Tracer tracer;
  Ops ops;
  WorkloadResult result;
  if (!RunWorkload(config, tracer, ops, &result)) {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu reps %zu trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), result.reps.size(),
              config.trace ? 1 : 0);

  MetricList metrics;
  if (!config.trace) {
    for (const Metric& m : EndToEnd(result, false, true)) {
      PrintMetric(m);
      if (InResult(m.name)) metrics.emplace_back(m.name, m.value);
    }
    for (size_t i = 0; i < result.reps.size(); ++i) {
      const RepSamples& r = result.reps[i];
      std::printf(
          "rep %zu: setup_s=%.4g items_per_s=%.4g heavy_ms p50=%.4g "
          "p90=%.4g estimate_ms p50=%.4g p90=%.4g lag_ms p99=%.4g "
          "rss_mb=%.4g\n",
          i, r.setup_s, r.ingest_items_per_s, Quantile(r.heavy_ms, 0.5),
          Quantile(r.heavy_ms, 0.9), Quantile(r.estimate_ms, 0.5),
          Quantile(r.estimate_ms, 0.9), Quantile(r.lag_ms, 0.99),
          r.peak_rss_mb);
    }
  } else {
    // Client-side spans around every socket verb of the traced reps.
    for (const auto& [span, name, scale] :
         {std::tuple{"bin", "client.bin_us", 1.0},
          std::tuple{"flush", "client.flush_ms", 1e-3},
          std::tuple{"heavy", "client.heavy_ms", 1e-3},
          std::tuple{"estimate", "client.estimate_ms", 1e-3}}) {
      metrics.emplace_back(name, Median(tracer.DurationsUs(span)) * scale);
    }
    // Tracing overhead: traced reps against untraced reps of this run.
    const std::vector<Metric> off = EndToEnd(result, false, false);
    const std::vector<Metric> on = EndToEnd(result, true, false);
    for (size_t i = 0; i < off.size(); ++i) {
      const double base = off[i].value;
      metrics.emplace_back("overhead." + off[i].name + "_pct",
                           base != 0 ? 100.0 * (on[i].value - base) / base : 0);
    }
    tracer.SetEnabled(true);
    MeasureLayers(config, result.layer_inputs, tracer, ops, &metrics,
                  &result.scrape);
    ScrapeMetrics(result.scrape, &metrics);
    const std::string trace_path = args.work_dir + "/trace-" +
                                   config.workload + "-" +
                                   std::to_string(config.seed) + ".json";
    WriteTraceFile(trace_path, tracer, metrics, result.scrape);
    for (const auto& [name, value] : metrics) {
      std::printf("layer %-44s %.6g\n", name.c_str(), value);
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  const uint64_t attempted = std::max<uint64_t>(ops.attempted(), 1);
  const uint64_t failed = ops.failed();
  std::printf("metric %-22s %14.6g %-5s attempted=%llu\n", "error_rate",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio", static_cast<unsigned long long>(attempted));
  for (const std::string& note : ops.notes()) {
    std::printf("failure %s\n", note.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].first.c_str(), metrics[i].second,
                UnitOf(metrics[i].first));
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
