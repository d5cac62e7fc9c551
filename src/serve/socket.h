// The socket layer shared by the serving binaries (l1hh_serve and
// l1hh_replica): line framing over a stream socket, the one strict number
// parser every wire argument goes through, the protocol's size bounds,
// and a Unix listener that runs the accept loop and tears its
// connections down in order.
//
// Wire protocol and verb table:
// docs/ENGINE.md#the-socket-front-end-toolsl1hh_servecc.
#ifndef L1HH_SERVE_SOCKET_H_
#define L1HH_SERVE_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include <sys/un.h>

#include "util/status.h"

namespace l1hh {
namespace serve {

// A `bin <N>` ingest header above this is a protocol error, not a
// workload: it guards a garbage length from allocating the machine away.
inline constexpr uint64_t kMaxBinaryBatch = uint64_t{1} << 26;
// The same guard for one replication frame's byte count.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 28;
// The longest path a sockaddr_un can hold (sun_path keeps a NUL).
inline constexpr size_t kMaxUnixPathBytes = sizeof(sockaddr_un::sun_path) - 1;

// Writes all n bytes, retrying short writes and EINTR; false on error.
bool WriteAll(int fd, const char* data, size_t n);
// Writes `line` plus its terminating newline.
bool WriteLine(int fd, const std::string& line);

// Parses an unsigned decimal: one or more ASCII digits, optionally
// followed by spaces. A sign, any other character, or a value above
// 2^64 - 1 is refused.
bool ParseU64(std::string_view text, uint64_t* out);
// Parses a decimal or scientific double; refuses trailing characters, a
// leading '+', and anything that is not finite.
bool ParseFiniteDouble(std::string_view text, double* out);
// Parses the count of a `bin <N>` ingest header (the text after "bin "):
// ParseU64, and no more than kMaxBinaryBatch.
bool ParseBinCount(std::string_view text, uint64_t* count);

// Buffered reader that supports both newline framing (text requests)
// and exact-length reads (a binary batch or a replication frame).
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Strips the trailing newline; false on EOF or error.
  bool ReadLine(std::string* line);
  // Reads exactly n bytes, buffered ones first; false on EOF or error.
  bool ReadExact(char* out, size_t n);

 private:
  bool Fill();
  void Compact();

  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

// Connects a stream socket to the Unix socket at `path`; -1 with *status
// on failure.
int ConnectUnix(const std::string& path, Status* status);

// A listening Unix socket and the accept loop on it: one thread per
// connection, reaped (joined and closed) once its handler returns; on
// RequestStop() every live connection is shut down, joined and closed.
// The listening fd is closed exactly once, by the destructor, which also
// unlinks the path.
class UnixListener {
 public:
  // Binds `path` (replacing a stale socket file) and listens. nullptr
  // with *status when the path is too long or bind/listen fails.
  static std::unique_ptr<UnixListener> Bind(const std::string& path,
                                            Status* status);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  // Ignores SIGPIPE (a vanished client is a failed write, not a dead
  // server) and routes SIGINT/SIGTERM to RequestStop(). One listener per
  // process may own the signals.
  void StopOnSignals();

  // Wakes the accept loop for an orderly stop. Async-signal-safe: it
  // only sets a flag and shuts the listening socket down, so the fd
  // number cannot be reused under a racing accept.
  void RequestStop();
  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  // Accepts until RequestStop(), running `handle(fd)` on a thread per
  // connection. Finished handlers are joined and their fds closed from
  // the accept loop, at the next accept. On return every connection has
  // been shut down, its handler joined and its fd closed.
  void Run(const std::function<void(int fd)>& handle);

 private:
  UnixListener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  const int fd_;
  const std::string path_;
  std::atomic<bool> stop_{false};
};

}  // namespace serve
}  // namespace l1hh

#endif  // L1HH_SERVE_SOCKET_H_
