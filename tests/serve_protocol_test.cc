// In-process test of the shared query-verb table (src/serve/, ctest
// label: engine): drives QueryVerbs over a socketpair() against a fake
// QueryBackend, with no forked binary. Pins the reply framing of every
// verb, the error text for every malformed argument, connection
// handling (empty lines, quit, shutdown), the listener's reaping of
// finished connections, and the binaries' strict flag parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "serve/flags.h"
#include "serve/query_verbs.h"
#include "serve/socket.h"

namespace l1hh {
namespace serve {
namespace {

class FakeBackend : public QueryBackend {
 public:
  Status HeavyHitters(double phi, std::vector<ItemEstimate>* out) override {
    last_phi = phi;
    if (!synced) return Status::FailedPrecondition("fake is not synced");
    *out = {{7, 70.0}, {9, 30.5}};
    return Status::Ok();
  }
  Status Estimate(uint64_t item, double* out) override {
    if (!synced) return Status::FailedPrecondition("fake is not synced");
    *out = static_cast<double>(item) * 2.0;
    return Status::Ok();
  }
  std::string StatsLine() override { return "stats fake=1"; }
  void BeforeScrape() override {
    scrapes.fetch_add(1);
    obs::GetCounter("fake_scrapes_total")->Inc();
  }

  std::atomic<bool> synced{true};
  std::atomic<double> last_phi{0.0};
  std::atomic<int> scrapes{0};
};

class ServeProtocolTest : public ::testing::Test {
 protected:
  static constexpr double kDefaultPhi = 0.05;

  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Get().ResetForTest();
    obs::TraceRing::Get().ResetForTest();
    obs::SlowQueryRing::Get().ResetForTest();
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    // A broken table must fail the test, not hang it.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fds_[0], SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    reader_ = LineReader(fds_[0]);
    // The server side closes its end when the table returns, so the
    // client reads EOF exactly when the connection ended.
    server_ = std::thread([this] {
      verbs_.ServeConnection(fds_[1]);
      ::close(fds_[1]);
    });
  }

  void TearDown() override {
    ::shutdown(fds_[0], SHUT_WR);
    server_.join();
    ::close(fds_[0]);
    obs::SetSlowQueryThresholdNs(0);
  }

  void Send(const std::string& line) {
    ASSERT_TRUE(WriteLine(fds_[0], line));
  }

  std::string ReadReply() {
    std::string line;
    EXPECT_TRUE(reader_.ReadLine(&line)) << "connection ended mid-reply";
    return line;
  }

  std::string Request(const std::string& line) {
    Send(line);
    return ReadReply();
  }

  // Reads a "<head> <N>" block and returns its N body lines.
  std::vector<std::string> RequestBlock(const std::string& line,
                                        const std::string& head) {
    const std::string header = Request(line);
    std::vector<std::string> body;
    uint64_t count = 0;
    const std::string_view count_text = std::string_view(header).substr(
        std::min(header.size(), head.size() + 1));
    if (header.rfind(head + " ", 0) != 0 || !ParseU64(count_text, &count)) {
      ADD_FAILURE() << "bad '" << head << "' header: '" << header << "'";
      return body;
    }
    for (uint64_t i = 0; i < count; ++i) body.push_back(ReadReply());
    return body;
  }

  bool ConnectionEnded() {
    std::string line;
    return !reader_.ReadLine(&line);
  }

  FakeBackend backend_;
  std::atomic<bool> stopped_{false};
  const QueryVerbs verbs_{&backend_, kDefaultPhi,
                          [this] { stopped_.store(true); }};
  int fds_[2] = {-1, -1};
  LineReader reader_{-1};
  std::thread server_;
};

TEST_F(ServeProtocolTest, ReplyFramingForEveryVerb) {
  EXPECT_EQ(RequestBlock("heavy", "hh"),
            (std::vector<std::string>{"7 70", "9 30.5"}));
  EXPECT_EQ(backend_.last_phi.load(), kDefaultPhi);
  EXPECT_EQ(RequestBlock("heavy 0.25", "hh").size(), 2u);
  EXPECT_EQ(backend_.last_phi.load(), 0.25);
  // A client's "heavy %.17g" round-trips the exact double; 1 is allowed.
  char request[64];
  std::snprintf(request, sizeof(request), "heavy %.17g", 0.02);
  EXPECT_EQ(RequestBlock(request, "hh").size(), 2u);
  EXPECT_EQ(backend_.last_phi.load(), 0.02);
  EXPECT_EQ(RequestBlock("heavy 1", "hh").size(), 2u);
  EXPECT_EQ(backend_.last_phi.load(), 1.0);

  EXPECT_EQ(Request("estimate 21"), "est 21 42");
  EXPECT_EQ(Request("estimate 18446744073709551615"),
            "est 18446744073709551615 3.6893488147419103e+19");
  EXPECT_EQ(Request("stats"), "stats fake=1");

  const std::vector<std::string> metrics =
      RequestBlock("metrics", "metrics");
  EXPECT_EQ(backend_.scrapes.load(), 1);
  bool saw_scrape_counter = false;
  for (const std::string& line : metrics) {
    saw_scrape_counter |= line == "fake_scrapes_total 1";
  }
  EXPECT_TRUE(saw_scrape_counter) << "metrics body lacks the pre-scrape hook";

  obs::Trace(obs::Severity::kDebug, "test.debug", 1);
  obs::Trace(obs::Severity::kWarn, "test.warn", 2);
  obs::Trace(obs::Severity::kInfo, "test.info", 3);
  EXPECT_EQ(RequestBlock("trace", "trace").size(), 3u);
  const std::vector<std::string> newest = RequestBlock("trace 1", "trace");
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_NE(newest[0].find("test.info"), std::string::npos) << newest[0];
  const std::vector<std::string> warns =
      RequestBlock("trace 0 warn", "trace");
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_NE(warns[0].find("test.warn"), std::string::npos) << warns[0];

  EXPECT_TRUE(RequestBlock("slow", "slow").empty());
  obs::SetSlowQueryThresholdNs(1);  // every span is now slow
  EXPECT_EQ(Request("estimate 1"), "est 1 2");
  const std::vector<std::string> slow = RequestBlock("slow", "slow");
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_NE(slow[0].find(" estimate "), std::string::npos) << slow[0];
}

TEST_F(ServeProtocolTest, MalformedArgumentsGetErrors) {
  for (const char* request : {"heavy 0", "heavy -1", "heavy 0.5x", "heavy nan",
                              "heavy inf", "heavy 1e999", "heavy 2"}) {
    EXPECT_EQ(Request(request), "err phi must be a number in (0, 1]")
        << request;
  }
  for (const char* request :
       {"estimate abc", "estimate 5x", "estimate -1", "estimate +5",
        "estimate 99999999999999999999", "estimate", "estimate "}) {
    EXPECT_EQ(Request(request),
              std::string("err malformed item id in '") + request + "'");
  }
  for (const char* request :
       {"trace x", "trace -1", "trace 5 bogus", "trace 1 info extra"}) {
    EXPECT_EQ(Request(request), "err usage: trace [N [debug|info|warn]]")
        << request;
  }
  for (const char* request : {"frobnicate", "stats now", "quit now", "bin 4",
                              "flush", "replicate"}) {
    EXPECT_EQ(Request(request),
              std::string("err unknown request '") + request + "'");
  }
  backend_.synced.store(false);
  EXPECT_EQ(Request("heavy"), "err fake is not synced");
  EXPECT_EQ(Request("estimate 3"), "err fake is not synced");
}

TEST_F(ServeProtocolTest, EmptyLinesAreIgnoredAndQuitEndsTheConnection) {
  Send("");
  Send("");
  EXPECT_EQ(Request("stats"), "stats fake=1");
  // Nothing after quit is answered, and the stop hook never fires. One
  // write, so the client never writes into an already-closed peer.
  Send("quit\nstats");
  EXPECT_TRUE(ConnectionEnded());
  EXPECT_FALSE(stopped_.load());
}

TEST_F(ServeProtocolTest, ShutdownRepliesOkAndSignalsStop) {
  Send("shutdown");
  EXPECT_EQ(ReadReply(), "ok");
  EXPECT_TRUE(ConnectionEnded());
  EXPECT_TRUE(stopped_.load());
}

TEST(ServeCodecTest, ParseU64AcceptsDigitsOnly) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseU64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseU64("42  ", &value));
  EXPECT_EQ(value, 42u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  for (const char* bad : {"", " 1", "+1", "-1", "1x", "1 2", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(ParseU64(bad, &value)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseU64(std::string_view("1\0" "2", 3), &value));
}

TEST(ServeCodecTest, BinHeaderCountIsBounded) {
  uint64_t count = 0;
  EXPECT_TRUE(ParseBinCount(std::to_string(kMaxBinaryBatch), &count));
  EXPECT_EQ(count, kMaxBinaryBatch);
  EXPECT_FALSE(ParseBinCount(std::to_string(kMaxBinaryBatch + 1), &count));
  EXPECT_FALSE(ParseBinCount("-1", &count));
  EXPECT_FALSE(ParseBinCount("18446744073709551615", &count));
}

TEST(ServeCodecTest, ParseFiniteDoubleRefusesGarbageAndNonFinite) {
  double value = 0.0;
  EXPECT_TRUE(ParseFiniteDouble("0.05", &value));
  EXPECT_EQ(value, 0.05);
  EXPECT_TRUE(ParseFiniteDouble("1e-3", &value));
  EXPECT_EQ(value, 1e-3);
  for (const char* bad :
       {"", "abc", "0.05x", "+1", " 1", "1 ", "nan", "inf", "1e999"}) {
    value = 7.0;
    EXPECT_FALSE(ParseFiniteDouble(bad, &value)) << "'" << bad << "'";
    EXPECT_EQ(value, 7.0) << "a refused value must not be written";
  }
}

// The serving binaries' command-line parser, driven in-process.
struct ParsedFlags {
  std::string socket;
  uint64_t shards = 4;
  double phi = 0.05;
  uint64_t port = 0;
  bool port_seen = false;
};

Status ParseArgs(const std::vector<std::string>& args, ParsedFlags* out) {
  FlagSet flags;
  flags.Add("--socket", &out->socket);
  flags.Add("--path", &out->socket);
  flags.Add("--shards", &out->shards);
  flags.Add("--phi", &out->phi);
  flags.Add("--http", &out->port, &out->port_seen);
  std::vector<const char*> argv = {"binary"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ServeFlagsTest, AcceptsBothSpellingsAndAliases) {
  ParsedFlags parsed;
  const Status status = ParseArgs(
      {"--socket=/tmp/a.sock", "--shards", "8", "--phi=0.1"}, &parsed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(parsed.socket, "/tmp/a.sock");
  EXPECT_EQ(parsed.shards, 8u);
  EXPECT_EQ(parsed.phi, 0.1);
  EXPECT_FALSE(parsed.port_seen);
  ASSERT_TRUE(ParseArgs({"--path", "/tmp/b.sock", "--http=0"}, &parsed).ok());
  EXPECT_EQ(parsed.socket, "/tmp/b.sock");
  EXPECT_TRUE(parsed.port_seen);  // port 0 (ephemeral) was asked for
  EXPECT_EQ(parsed.port, 0u);
}

TEST(ServeFlagsTest, RefusesMalformedNumbers) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--shards=4x"},
                                             {"--shards=abc"},
                                             {"--shards=-1"},
                                             {"--shards", "+4"},
                                             {"--shards=99999999999999999999"},
                                             {"--phi=abc"},
                                             {"--phi=0.05x"},
                                             {"--phi=nan"},
                                             {"--http=80x"}}) {
    ParsedFlags parsed;
    const Status status = ParseArgs(args, &parsed);
    EXPECT_FALSE(status.ok()) << args[0];
    EXPECT_NE(status.message().find("malformed value"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(parsed.shards, 4u) << "a refused value must not be written";
    EXPECT_EQ(parsed.phi, 0.05);
    EXPECT_FALSE(parsed.port_seen);
  }
}

TEST(ServeFlagsTest, RefusesMissingEmptyAndUnknownFlags) {
  ParsedFlags parsed;
  Status status = ParseArgs({"--shards"}, &parsed);
  EXPECT_EQ(status.message(), "flag --shards needs a value");
  status = ParseArgs({"--socket="}, &parsed);
  EXPECT_EQ(status.message(), "flag --socket needs a non-empty value");
  status = ParseArgs({"--bogus=1"}, &parsed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown flag: --bogus"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("--socket --path --shards --phi --http"),
            std::string::npos)
      << status.ToString();
}

TEST(ServeCodecTest, LineReaderMixesLinesAndExactReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string wire = std::string("bin 2\n") + "abcdefgh" + "tail\n";
  ASSERT_TRUE(WriteAll(fds[0], wire.data(), wire.size()));
  ::close(fds[0]);
  LineReader reader(fds[1]);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "bin 2");
  char payload[8];
  ASSERT_TRUE(reader.ReadExact(payload, sizeof(payload)));
  EXPECT_EQ(std::string(payload, sizeof(payload)), "abcdefgh");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "tail");
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_FALSE(reader.ReadExact(payload, 1));
  ::close(fds[1]);
}

TEST(ServeCodecTest, UnixPathsBeyondSunPathAreRefused) {
  const std::string too_long(kMaxUnixPathBytes + 1, 'x');
  Status status;
  EXPECT_EQ(UnixListener::Bind(too_long, &status), nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  status = Status::Ok();
  EXPECT_EQ(ConnectUnix(too_long, &status), -1);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

size_t OpenFdCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator()));
}

// A long-running server must not hold an fd and an unjoined thread for
// every client it has ever served: the accept loop reaps connections
// whose handler has returned.
TEST(ServeListenerTest, FinishedConnectionsAreReaped) {
  std::string dir = testing::TempDir() + "/l1hh_listener_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr) << std::strerror(errno);
  const std::string path = dir + "/listener.sock";
  Status status;
  auto listener = UnixListener::Bind(path, &status);
  ASSERT_NE(listener, nullptr) << status.ToString();
  std::thread accept_loop([&listener] {
    listener->Run([](int fd) {
      LineReader reader(fd);
      std::string line;
      while (reader.ReadLine(&line)) WriteLine(fd, "ok " + line);
    });
  });

  const size_t before = OpenFdCount();
  int served = 0;
  for (; served < 300; ++served) {
    const int fd = ConnectUnix(path, &status);
    if (fd < 0) break;
    // A round trip proves the handler ran before the client hangs up.
    LineReader reader(fd);
    std::string reply;
    const bool echoed = WriteLine(fd, "ping") && reader.ReadLine(&reply) &&
                        reply == "ok ping";
    ::close(fd);
    if (!echoed) break;
  }
  const size_t after = OpenFdCount();
  listener->RequestStop();
  accept_loop.join();
  listener.reset();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(served, 300) << status.ToString();
  // Only the last few connections may still await their reap.
  EXPECT_LE(after, before + 8)
      << "open fds grew from " << before << " to " << after << " over "
      << served << " sequential connections";
}

}  // namespace
}  // namespace serve
}  // namespace l1hh
