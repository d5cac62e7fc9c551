// Process and socket plumbing for the benchmark's load generator: spawning
// the real l1hh_serve / l1hh_replica binaries, waiting for their readiness
// lines, and speaking their line protocol over Unix-domain sockets.
#ifndef PERFBENCH_NET_H_
#define PERFBENCH_NET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "summary/summary.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Sleeps until the monotonic clock reads `deadline_ns`.
void SleepUntilNs(int64_t deadline_ns);

/// A child server process.  The destructor terminates and reaps it, so no
/// process outlives the benchmark; the child also dies with its parent.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `argv[0]` with `argv`, stdout on a pipe and stderr appended to
  /// `log_path`.  False when the fork or exec fails.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path);

  /// Reads stdout lines until one starts with `prefix`; false on EOF or
  /// after `timeout_ms`.
  bool WaitForLine(const std::string& prefix, int timeout_ms);

  /// Peak resident set size (VmHWM) in bytes, 0 when unreadable.
  uint64_t PeakRssBytes() const;

  /// Sends SIGKILL and reaps the process.
  void Kill();

  /// SIGTERM, then SIGKILL after a grace period; reaps the process.
  void Stop();

 private:
  void Reap(int grace_ms);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;
};

/// A blocking Unix-socket client for the serve/replica line protocol.
/// Every read has a timeout; a timed-out or malformed exchange returns
/// false and the caller counts it as a failed operation.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& path, int timeout_ms);

  /// Caps the bytes this side may have in flight (SO_SNDBUF), so a write
  /// blocks soon after the server stops reading.
  void SetSendBuffer(int bytes);

  /// Writes raw bytes (a pre-encoded `bin` batch, a request line).
  bool Send(const char* data, size_t n);
  bool SendLine(const std::string& line);

  /// Reads one reply line (without the newline).
  bool ReadLine(std::string* line);
  /// Reads exactly n bytes (a replication frame).
  bool ReadExact(char* out, size_t n);

  /// `flush` -> the server's applied-item count.
  bool Flush(uint64_t* applied);
  /// `heavy` -> the report; `phi` <= 0 asks for the server default.
  bool Heavy(double phi, std::vector<l1hh::ItemEstimate>* report);
  /// `estimate <item>` -> the estimate.
  bool Estimate(uint64_t item, double* estimate);
  /// A one-line request such as `stats`.
  bool Request(const std::string& line, std::string* reply);
  /// `metrics` -> the exposition lines.
  bool Metrics(std::vector<std::string>* lines);

  /// Bytes read from the socket since construction.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  bool Fill();

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
  uint64_t bytes_read_ = 0;
};

/// Appends the wire encoding of one binary batch ("bin N\n" + N
/// little-endian u64 ids) to `out`.
void AppendBinBatch(const uint64_t* items, size_t n, std::string* out);

/// Encodes `items` as consecutive binary batches of at most `batch` ids.
std::vector<std::string> EncodeBatches(const uint64_t* items, size_t n,
                                       size_t batch);

/// Field `key=value` of a space-separated reply line, or "" when absent.
std::string Field(const std::string& line, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_NET_H_
