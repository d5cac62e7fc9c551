#include "serve/socket.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <list>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

namespace l1hh {
namespace serve {

bool WriteAll(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(wrote);
  }
  return true;
}

bool WriteLine(int fd, const std::string& line) {
  return WriteAll(fd, (line + "\n").c_str(), line.size() + 1);
}

bool ParseU64(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  size_t i = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    const uint64_t digit = static_cast<uint64_t>(text[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (i == 0) return false;
  for (; i < text.size(); ++i) {
    if (text[i] != ' ') return false;
  }
  *out = value;
  return true;
}

bool ParseFiniteDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseBinCount(std::string_view text, uint64_t* count) {
  return ParseU64(text, count) && *count <= kMaxBinaryBatch;
}

bool LineReader::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      Compact();
      return true;
    }
    if (!Fill()) return false;
  }
}

bool LineReader::ReadExact(char* out, size_t n) {
  size_t got = 0;
  const size_t buffered = std::min(n, buffer_.size() - pos_);
  std::memcpy(out, buffer_.data() + pos_, buffered);
  pos_ += buffered;
  got += buffered;
  Compact();
  while (got < n) {
    const ssize_t r = ::read(fd_, out + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

bool LineReader::Fill() {
  Compact();
  char chunk[4096];
  const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
  if (n < 0 && errno == EINTR) return true;
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

void LineReader::Compact() {
  if (pos_ == 0) return;
  buffer_.erase(0, pos_);
  pos_ = 0;
}

namespace {

bool UnixAddress(const std::string& path, sockaddr_un* addr, Status* status) {
  if (path.size() > kMaxUnixPathBytes) {
    *status = Status::InvalidArgument(
        "unix socket path too long (max " +
        std::to_string(kMaxUnixPathBytes) + " bytes): " + path);
    return false;
  }
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

std::atomic<UnixListener*> g_signal_listener{nullptr};

void OnStopSignal(int) {
  UnixListener* listener = g_signal_listener.load();
  if (listener != nullptr) listener->RequestStop();
}

}  // namespace

int ConnectUnix(const std::string& path, Status* status) {
  sockaddr_un addr{};
  if (!UnixAddress(path, &addr, status)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = ErrnoStatus("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *status = ErrnoStatus("connect " + path);
    ::close(fd);
    return -1;
  }
  return fd;
}

std::unique_ptr<UnixListener> UnixListener::Bind(const std::string& path,
                                                 Status* status) {
  sockaddr_un addr{};
  if (!UnixAddress(path, &addr, status)) return nullptr;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *status = ErrnoStatus("socket");
    return nullptr;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *status = ErrnoStatus("bind " + path);
    ::close(fd);
    return nullptr;
  }
  if (::listen(fd, 64) != 0) {
    *status = ErrnoStatus("listen " + path);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<UnixListener>(new UnixListener(fd, path));
}

UnixListener::~UnixListener() {
  UnixListener* self = this;
  g_signal_listener.compare_exchange_strong(self, nullptr);
  ::close(fd_);
  ::unlink(path_.c_str());
}

void UnixListener::StopOnSignals() {
  g_signal_listener.store(this);
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
}

void UnixListener::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  ::shutdown(fd_, SHUT_RDWR);
}

namespace {

// One accepted connection: its fd, the thread running its handler, and
// the flag the handler raises on return so the accept loop can reap it.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  const int fd;
  std::thread thread;
  std::atomic<bool> done{false};
};

}  // namespace

void UnixListener::Run(const std::function<void(int fd)>& handle) {
  std::list<Connection> connections;  // stable addresses for the handlers
  // Joins and closes every connection whose handler has returned, so a
  // long-running server holds fds and threads only for live clients.
  const auto reap_finished = [&connections] {
    connections.remove_if([](Connection& c) {
      if (!c.done.load(std::memory_order_acquire)) return false;
      c.thread.join();
      ::close(c.fd);
      return true;
    });
  };
  while (!stopping()) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // RequestStop() shut the listener down
    }
    reap_finished();
    Connection& c = connections.emplace_back(fd);
    c.thread = std::thread([&handle, &c] {
      handle(c.fd);
      c.done.store(true, std::memory_order_release);
    });
  }
  stop_.store(true, std::memory_order_relaxed);
  // Every fd still listed is open (reaping closes and unlists together).
  // Kick each off its read, join the handlers, and only then close the
  // fds, so no handler ever touches a reused number.
  for (Connection& c : connections) ::shutdown(c.fd, SHUT_RDWR);
  for (Connection& c : connections) c.thread.join();
  for (Connection& c : connections) ::close(c.fd);
}

}  // namespace serve
}  // namespace l1hh
