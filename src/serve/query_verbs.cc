#include "serve/query_verbs.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/span.h"
#include "obs/trace.h"
#include "serve/socket.h"

namespace l1hh {
namespace serve {

namespace {

// "<head> <N>" then the N lines, as one write.
void WriteBlock(int fd, const char* head,
                const std::vector<std::string>& lines) {
  std::string reply = head;
  reply += ' ';
  reply += std::to_string(lines.size());
  for (const std::string& line : lines) {
    reply += '\n';
    reply += line;
  }
  WriteLine(fd, reply);
}

bool Refuse(int fd, const Status& status) {
  WriteLine(fd, "err " + status.message());
  return true;
}

// Ends a query span's work: the reply write is its last phase.
void WriteReply(int fd, const std::string& reply) {
  obs::ScopedPhase write_phase("reply_write");
  WriteLine(fd, reply);
}

}  // namespace

QueryVerbs::QueryVerbs(QueryBackend* backend, double default_phi,
                       std::function<void()> stop, obs::Counter* queries)
    : backend_(backend),
      default_phi_(default_phi),
      stop_(std::move(stop)),
      queries_(queries) {}

bool QueryVerbs::Answer(int fd, const std::string& line) const {
  using Handler = bool (QueryVerbs::*)(int, const std::string&,
                                       std::string_view) const;
  struct Verb {
    std::string_view name;
    bool takes_args;
    bool query;  // counted in `queries`
    Handler answer;
  };
  static constexpr Verb kVerbs[] = {
      {"heavy", true, true, &QueryVerbs::Heavy},
      {"estimate", true, true, &QueryVerbs::Estimate},
      {"stats", false, true, &QueryVerbs::Stats},
      {"metrics", false, true, &QueryVerbs::Metrics},
      {"trace", true, true, &QueryVerbs::Trace},
      {"slow", false, true, &QueryVerbs::Slow},
      {"quit", false, false, &QueryVerbs::Quit},
      {"shutdown", false, false, &QueryVerbs::Shutdown},
  };
  if (line.empty()) return true;
  const size_t space = line.find(' ');
  const std::string_view verb = std::string_view(line).substr(0, space);
  const bool has_args = space != std::string::npos;
  const std::string_view args =
      has_args ? std::string_view(line).substr(space + 1) : std::string_view();
  for (const Verb& entry : kVerbs) {
    if (entry.name != verb || (has_args && !entry.takes_args)) continue;
    if (entry.query && queries_ != nullptr) queries_->Inc();
    return (this->*entry.answer)(fd, line, args);
  }
  WriteLine(fd, "err unknown request '" + line + "'");
  return true;
}

void QueryVerbs::ServeConnection(int fd) const {
  LineReader reader(fd);
  std::string line;
  while (reader.ReadLine(&line) && Answer(fd, line)) {
  }
}

bool QueryVerbs::Heavy(int fd, const std::string&,
                       std::string_view args) const {
  double phi = default_phi_;
  if (!args.empty() &&
      (!ParseFiniteDouble(args, &phi) || phi <= 0 || phi > 1)) {
    WriteLine(fd, "err phi must be a number in (0, 1]");
    return true;
  }
  // The span owns the whole verb: the backend's park-wait /
  // merge-rebuild / report phases land on it, reply_write is ours.
  obs::QuerySpan span("heavy");
  std::vector<ItemEstimate> report;
  const Status status = backend_->HeavyHitters(phi, &report);
  if (!status.ok()) return Refuse(fd, status);
  std::string reply = "hh " + std::to_string(report.size());
  char entry[64];
  for (const ItemEstimate& hh : report) {
    std::snprintf(entry, sizeof(entry), "\n%llu %.17g",
                  static_cast<unsigned long long>(hh.item), hh.estimate);
    reply += entry;
  }
  WriteReply(fd, reply);
  return true;
}

bool QueryVerbs::Estimate(int fd, const std::string& line,
                          std::string_view args) const {
  uint64_t item = 0;
  if (!ParseU64(args, &item)) {
    WriteLine(fd, "err malformed item id in '" + line + "'");
    return true;
  }
  obs::QuerySpan span("estimate");
  double estimate = 0.0;
  const Status status = backend_->Estimate(item, &estimate);
  if (!status.ok()) return Refuse(fd, status);
  char reply[64];
  std::snprintf(reply, sizeof(reply), "est %llu %.17g",
                static_cast<unsigned long long>(item), estimate);
  WriteReply(fd, reply);
  return true;
}

bool QueryVerbs::Stats(int fd, const std::string&, std::string_view) const {
  obs::QuerySpan span("stats");
  WriteReply(fd, backend_->StatsLine());
  return true;
}

bool QueryVerbs::Metrics(int fd, const std::string&, std::string_view) const {
  backend_->BeforeScrape();
  WriteBlock(fd, "metrics", obs::Registry::Get().ExpositionLines());
  return true;
}

bool QueryVerbs::Trace(int fd, const std::string&,
                       std::string_view args) const {
  uint64_t max_events = 0;  // 0 = everything in the ring
  obs::Severity min_sev = obs::Severity::kDebug;
  std::istringstream in{std::string(args)};
  std::string count_text, sev_text, extra;
  in >> count_text >> sev_text >> extra;
  if ((!count_text.empty() && !ParseU64(count_text, &max_events)) ||
      (!sev_text.empty() && !obs::ParseSeverity(sev_text, &min_sev)) ||
      !extra.empty()) {
    WriteLine(fd, "err usage: trace [N [debug|info|warn]]");
    return true;
  }
  WriteBlock(fd, "trace",
             obs::TraceRing::Get().DrainText(static_cast<size_t>(max_events),
                                             min_sev));
  return true;
}

bool QueryVerbs::Slow(int fd, const std::string&, std::string_view) const {
  WriteBlock(fd, "slow", obs::SlowQueryRing::Get().DrainText());
  return true;
}

bool QueryVerbs::Quit(int, const std::string&, std::string_view) const {
  return false;
}

bool QueryVerbs::Shutdown(int fd, const std::string&,
                          std::string_view) const {
  WriteLine(fd, "ok");
  stop_();
  return false;
}

std::map<std::string, obs::HttpExporter::Handler> HttpHandlers(
    QueryBackend* backend) {
  std::map<std::string, obs::HttpExporter::Handler> handlers;
  handlers["/metrics"] = [backend] {
    backend->BeforeScrape();
    return obs::HttpResponse{200, "text/plain; version=0.0.4",
                             obs::Registry::Get().Exposition()};
  };
  handlers["/healthz"] = [] {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  };
  return handlers;
}

}  // namespace serve
}  // namespace l1hh
