// Server transport tests: dispatch via handle_line, the scripted stdio
// session, the TCP loopback path, and the BUSY / DEADLINE shed paths.
#include "qwm/service/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace qwm::service {
namespace {

std::string chain_deck(int n) {
  std::string deck = "inverter chain\nvdd vdd 0 3.3\nvin in 0 0\n";
  std::string prev = "in";
  for (int i = 0; i < n; ++i) {
    const std::string out = i + 1 == n ? "out" : "s" + std::to_string(i + 1);
    const std::string tag = std::to_string(i);
    deck += "mn" + tag + " " + out + " " + prev + " 0 0 nmos W=1.5u L=0.35u\n";
    deck += "mp" + tag + " " + out + " " + prev +
            " vdd vdd pmos W=3u L=0.35u\n";
    prev = out;
  }
  deck += "cl out 0 20f\n.end\n";
  return deck;
}

/// Writes the deck to a temp file and returns its path.
std::string write_deck(const std::string& name, int stages) {
  const std::string path = testing::TempDir() + name;
  std::ofstream f(path);
  f << chain_deck(stages);
  EXPECT_TRUE(f.good());
  return path;
}

/// Minimal blocking line client for the loopback tests.
struct TestClient {
  int fd = -1;
  std::string buf;

  bool connect_to(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  std::string round_trip(const std::string& req) {
    std::string msg = req + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n =
          ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  ~TestClient() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(Server, HandleLineDispatch) {
  Server server;
  EXPECT_TRUE(is_err(server.handle_line("ARRIVAL out"), "NODESIGN"));
  EXPECT_TRUE(is_err(server.handle_line("FROBNICATE"), "BADCMD"));
  EXPECT_TRUE(is_err(server.handle_line("SLACK out"), "ARG"));
  EXPECT_EQ(server.handle_line(""), "");          // ignorable
  EXPECT_EQ(server.handle_line("# comment"), ""); // ignorable
  EXPECT_EQ(server.stats().malformed, 2u);

  const std::string path = write_deck("server_dispatch.sp", 3);
  const std::string load = server.handle_line("LOAD " + path);
  ASSERT_TRUE(is_ok(load)) << load;
  EXPECT_EQ(response_field(load, "stages"), "3");
  EXPECT_EQ(response_field(load, "epoch"), "1");

  const std::string arr = server.handle_line("ARRIVAL out");
  ASSERT_TRUE(is_ok(arr)) << arr;
  EXPECT_EQ(response_field(arr, "rise_valid"), "1");
  EXPECT_EQ(response_field(arr, "fall_valid"), "1");

  // Per-verb accounting: 1 LOAD + 1 ARRIVAL ok, 1 ARRIVAL error.
  const ServerStats st = server.stats();
  EXPECT_EQ(st.verb[static_cast<int>(Verb::kLoad)].requests, 1u);
  EXPECT_EQ(st.verb[static_cast<int>(Verb::kArrival)].requests, 2u);
  EXPECT_EQ(st.verb[static_cast<int>(Verb::kArrival)].errors, 1u);
}

TEST(Server, VerbCountersAreExactUnderConcurrentRequests) {
  // The per-verb counters are relaxed atomics: four readers and a
  // RESIZE/UPDATE writer hammer handle_line, and STATS must still count
  // every request and every error exactly (and stay race-free under TSan).
  Server server;
  const std::string path = write_deck("server_counters.sp", 3);
  ASSERT_TRUE(is_ok(server.handle_line("LOAD " + path)));
  constexpr int kReaders = 4;
  constexpr int kRounds = 40;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t)
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(is_ok(server.handle_line("ARRIVAL out")));
        EXPECT_TRUE(is_err(server.handle_line("ARRIVAL nosuch"), "NOTFOUND"));
        EXPECT_TRUE(is_ok(server.handle_line("SLACK out 2n")));
        EXPECT_TRUE(is_err(server.handle_line("SLACK nosuch 2n"), "NOTFOUND"));
        EXPECT_TRUE(is_ok(server.handle_line("CRITPATH")));
        EXPECT_TRUE(is_err(server.handle_line("FROBNICATE"), "BADCMD"));
        EXPECT_TRUE(is_err(server.handle_line("ARRIVAL"), "ARG"));
      }
    });
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < kRounds; ++i) {
      const std::string width = i % 2 ? "2u" : "1.5u";
      EXPECT_TRUE(is_ok(server.handle_line("RESIZE 0 0 " + width)));
      EXPECT_TRUE(is_err(server.handle_line("RESIZE 99 0 1u"), "ARG"));
      EXPECT_TRUE(is_ok(server.handle_line("UPDATE")));
    }
  });
  go = true;
  for (auto& th : threads) th.join();

  const std::string stats = server.handle_line("STATS");
  const auto expect_count = [&](const std::string& key, int want) {
    EXPECT_EQ(response_field(stats, key), std::to_string(want)) << key;
  };
  const int reads = kReaders * kRounds;
  expect_count("arrival.count", 2 * reads);
  expect_count("arrival.err", reads);
  expect_count("slack.count", 2 * reads);
  expect_count("slack.err", reads);
  expect_count("critpath.count", reads);
  expect_count("critpath.err", 0);
  expect_count("resize.count", 2 * kRounds);
  expect_count("resize.err", kRounds);
  expect_count("update.count", kRounds);
  expect_count("update.err", 0);
  expect_count("load.count", 1);
  expect_count("load.err", 0);
  expect_count("malformed", 2 * reads);
  expect_count("requests", 5 * reads + 3 * kRounds + 1);
  // STATS counts itself only once its reply is built.
  EXPECT_EQ(response_field(stats, "stats.count"), "");
  const ServerStats st = server.stats();
  const VerbStats& arrival = st.verb[static_cast<int>(Verb::kArrival)];
  EXPECT_GT(arrival.total_ms, 0.0);
  EXPECT_GE(arrival.total_ms, arrival.max_ms);
  EXPECT_EQ(st.verb[static_cast<int>(Verb::kStats)].requests, 1u);
}

TEST(Server, ServeStreamScriptedSession) {
  const std::string path = write_deck("server_stream.sp", 3);
  std::istringstream in("LOAD " + path +
                        "\n"
                        "# comment\n"
                        "ARRIVAL out\n"
                        "RESIZE 0 0 2.5u\n"
                        "UPDATE\n"
                        "STATS\n"
                        "SHUTDOWN\n");
  std::ostringstream out;
  Server server;
  EXPECT_EQ(server.serve_stream(in, out), 0);

  std::vector<std::string> lines;
  std::istringstream resp(out.str());
  for (std::string l; std::getline(resp, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 6u) << out.str();  // comment produced no line
  EXPECT_TRUE(is_ok(lines[0])) << lines[0];  // LOAD
  EXPECT_TRUE(is_ok(lines[1])) << lines[1];  // ARRIVAL
  EXPECT_TRUE(is_ok(lines[2])) << lines[2];  // RESIZE
  EXPECT_TRUE(is_ok(lines[3])) << lines[3];  // UPDATE
  EXPECT_TRUE(is_ok(lines[4])) << lines[4];  // STATS
  EXPECT_EQ(lines[5], "OK bye");             // SHUTDOWN
  EXPECT_EQ(response_field(lines[3], "epoch"), "3");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(Server, ServeStreamStopsAtEof) {
  std::istringstream in("STATS\n");  // no SHUTDOWN: EOF ends the session
  std::ostringstream out;
  Server server;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  EXPECT_TRUE(is_ok(out.str()));
}

TEST(Server, TcpLoopbackSession) {
  const std::string path = write_deck("server_tcp.sp", 4);
  Server server;
  ASSERT_TRUE(server.listen(0));
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { server.serve(); });

  {
    TestClient c;
    ASSERT_TRUE(c.connect_to(server.port()));
    const std::string load = c.round_trip("LOAD " + path);
    ASSERT_TRUE(is_ok(load)) << load;

    // A second concurrent connection sees the same session.
    TestClient c2;
    ASSERT_TRUE(c2.connect_to(server.port()));
    const std::string arr = c2.round_trip("ARRIVAL out");
    ASSERT_TRUE(is_ok(arr)) << arr;
    EXPECT_EQ(response_field(arr, "epoch"), "1");

    EXPECT_TRUE(is_err(c.round_trip("NONSENSE"), "BADCMD"));
    EXPECT_EQ(c.round_trip("SHUTDOWN"), "OK bye");
  }
  serving.join();
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(Server, ZeroCapacityQueueShedsBusy) {
  ServerOptions opt;
  opt.queue_capacity = 0;  // every admission is over capacity
  Server server(opt);
  std::istringstream in("STATS\nSTATS\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);

  std::vector<std::string> lines;
  std::istringstream resp(out.str());
  for (std::string l; std::getline(resp, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 2u) << out.str();
  EXPECT_TRUE(is_err(lines[0], "BUSY")) << lines[0];
  EXPECT_TRUE(is_err(lines[1], "BUSY")) << lines[1];
  EXPECT_EQ(server.stats().busy_rejections, 2u);
}

TEST(Server, TinyDeadlineExpiresInQueue) {
  ServerOptions opt;
  opt.deadline_ms = 1e-9;  // any nonzero queue wait exceeds this
  Server server(opt);
  std::istringstream in("STATS\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  EXPECT_TRUE(is_err(out.str(), "DEADLINE")) << out.str();
  EXPECT_EQ(server.stats().deadline_expirations, 1u);
}

TEST(Server, RequestsAfterShutdownAreRefused) {
  Server server;
  server.request_shutdown();
  std::istringstream in("STATS\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  // The session refuses immediately: either no response (reader saw the
  // stop flag first) or an explicit ERR SHUTDOWN.
  if (!out.str().empty()) {
    EXPECT_TRUE(is_err(out.str(), "SHUTDOWN"));
  }
}

}  // namespace
}  // namespace qwm::service
