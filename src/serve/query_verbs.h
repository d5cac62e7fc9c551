// The query side of the wire protocol, shared by l1hh_serve and
// l1hh_replica: one table of verbs (heavy, estimate, stats, metrics,
// trace, slow, quit, shutdown), their reply framing, and the HTTP
// /metrics and /healthz endpoints. The table answers through a
// QueryBackend, which the engine and the replica each implement once.
//
// Verb table and reply framing:
// docs/ENGINE.md#the-socket-front-end-toolsl1hh_servecc.
#ifndef L1HH_SERVE_QUERY_VERBS_H_
#define L1HH_SERVE_QUERY_VERBS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "summary/summary.h"
#include "util/status.h"

namespace l1hh {
namespace serve {

// What a serving binary answers queries from. Methods are called from
// many connection threads at once. A non-OK status is answered as
// "err <message>".
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  virtual Status HeavyHitters(double phi, std::vector<ItemEstimate>* out) = 0;
  virtual Status Estimate(uint64_t item, double* out) = 0;
  // The whole `stats` reply line.
  virtual std::string StatsLine() = 0;
  // Runs before every metrics exposition (the `metrics` verb and
  // GET /metrics): publish point-in-time gauges, run an audit pass.
  virtual void BeforeScrape() = 0;
};

class QueryVerbs {
 public:
  // `stop` runs on the `shutdown` verb; `queries`, when not null, counts
  // every query verb received.
  QueryVerbs(QueryBackend* backend, double default_phi,
             std::function<void()> stop, obs::Counter* queries = nullptr);

  // Answers one request line on `fd` (an empty line is ignored, an
  // unknown one gets "err unknown request"). False when the connection
  // should close: `quit` or `shutdown`.
  bool Answer(int fd, const std::string& line) const;

  // Answers request lines on `fd` until EOF, `quit` or `shutdown`.
  void ServeConnection(int fd) const;

 private:
  bool Heavy(int fd, const std::string& line, std::string_view args) const;
  bool Estimate(int fd, const std::string& line, std::string_view args) const;
  bool Stats(int fd, const std::string& line, std::string_view args) const;
  bool Metrics(int fd, const std::string& line, std::string_view args) const;
  bool Trace(int fd, const std::string& line, std::string_view args) const;
  bool Slow(int fd, const std::string& line, std::string_view args) const;
  bool Quit(int fd, const std::string& line, std::string_view args) const;
  bool Shutdown(int fd, const std::string& line, std::string_view args) const;

  QueryBackend* const backend_;
  const double default_phi_;
  const std::function<void()> stop_;
  obs::Counter* const queries_;
};

// GET /metrics (BeforeScrape, then the registry's text exposition) and
// GET /healthz. Each binary adds its own /readyz.
std::map<std::string, obs::HttpExporter::Handler> HttpHandlers(
    QueryBackend* backend);

}  // namespace serve
}  // namespace l1hh

#endif  // L1HH_SERVE_QUERY_VERBS_H_
