#include "net.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1000000000;
  ts.tv_nsec = deadline_ns % 1000000000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// ---- ServerProcess ----------------------------------------------------

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(pipe_fds[0]);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  return true;
}

bool ServerProcess::WaitForLine(const std::string& prefix, int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (true) {
    size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return true;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0 || stdout_fd_ < 0) return false;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[512];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(chunk, static_cast<size_t>(n));
  }
}

uint64_t ServerProcess::PeakRssBytes() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

void ServerProcess::Reap(int grace_ms) {
  const int64_t deadline = NowNs() + int64_t{grace_ms} * 1000000;
  while (true) {
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) break;
    if (NowNs() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  Reap(10000);
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  Reap(5000);
}

// ---- Client -----------------------------------------------------------

namespace {
constexpr int kReplyTimeoutMs = 20000;
}  // namespace

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Connect(const std::string& path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(fd_);
    fd_ = -1;
    if (NowNs() >= deadline) return false;
    ::usleep(2000);
  }
  timeval tv{};
  tv.tv_sec = kReplyTimeoutMs / 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return true;
}

void Client::SetSendBuffer(int bytes) {
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

bool Client::Send(const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::send(fd_, data + done, n - done, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(wrote);
  }
  return true;
}

bool Client::SendLine(const std::string& line) {
  const std::string framed = line + "\n";
  return Send(framed.data(), framed.size());
}

bool Client::Fill() {
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    bytes_read_ += static_cast<uint64_t>(n);
    return true;
  }
}

bool Client::ReadLine(std::string* line) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    if (!Fill()) return false;
  }
}

bool Client::ReadExact(char* out, size_t n) {
  while (buffer_.size() - pos_ < n) {
    if (!Fill()) return false;
  }
  std::memcpy(out, buffer_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool Client::Flush(uint64_t* applied) {
  std::string reply;
  if (!Request("flush", &reply) || reply.rfind("ok ", 0) != 0) return false;
  *applied = std::strtoull(reply.c_str() + 3, nullptr, 10);
  return true;
}

bool Client::Heavy(double phi, std::vector<l1hh::ItemEstimate>* report) {
  char request[64] = "heavy";
  if (phi > 0) std::snprintf(request, sizeof(request), "heavy %.17g", phi);
  std::string reply;
  if (!Request(request, &reply) || reply.rfind("hh ", 0) != 0) return false;
  const uint64_t count = std::strtoull(reply.c_str() + 3, nullptr, 10);
  report->clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::string entry;
    if (!ReadLine(&entry)) return false;
    char* end = nullptr;
    l1hh::ItemEstimate hh;
    hh.item = std::strtoull(entry.c_str(), &end, 10);
    if (end == entry.c_str() || *end != ' ') return false;
    hh.estimate = std::strtod(end + 1, nullptr);
    report->push_back(hh);
  }
  return true;
}

bool Client::Estimate(uint64_t item, double* estimate) {
  std::string reply;
  if (!Request("estimate " + std::to_string(item), &reply)) return false;
  unsigned long long echoed = 0;
  if (std::sscanf(reply.c_str(), "est %llu %lf", &echoed, estimate) != 2) {
    return false;
  }
  return echoed == item;
}

bool Client::Request(const std::string& line, std::string* reply) {
  return SendLine(line) && ReadLine(reply) && reply->rfind("err", 0) != 0;
}

bool Client::Metrics(std::vector<std::string>* lines) {
  std::string reply;
  if (!Request("metrics", &reply) || reply.rfind("metrics ", 0) != 0) {
    return false;
  }
  const uint64_t count = std::strtoull(reply.c_str() + 8, nullptr, 10);
  lines->clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::string line;
    if (!ReadLine(&line)) return false;
    lines->push_back(std::move(line));
  }
  return true;
}

void AppendBinBatch(const uint64_t* items, size_t n, std::string* out) {
  static_assert(std::endian::native == std::endian::little,
                "the bin wire format is little-endian u64");
  *out += "bin " + std::to_string(n) + "\n";
  out->append(reinterpret_cast<const char*>(items), n * sizeof(uint64_t));
}

std::vector<std::string> EncodeBatches(const uint64_t* items, size_t n,
                                       size_t batch) {
  std::vector<std::string> wire;
  for (size_t at = 0; at < n; at += batch) {
    const size_t count = std::min(batch, n - at);
    std::string encoded;
    encoded.reserve(count * sizeof(uint64_t) + 16);
    AppendBinBatch(items + at, count, &encoded);
    wire.push_back(std::move(encoded));
  }
  return wire;
}

std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return line.substr(start, line.find(' ', start) - start);
}

}  // namespace perfbench
