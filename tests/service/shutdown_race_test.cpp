// Shutdown while queries are in flight: N clients hammer the TCP
// server while one sends SHUTDOWN mid-run. The contract under test
// (and under TSan, where this suite also runs): every request that
// gets a reply gets exactly one well-formed line — never a torn frame,
// never a second line — and serve() returns promptly. A connection
// closing with no reply is the one acceptable outcome for requests
// overtaken by the shutdown.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "qwm/service/protocol.h"
#include "qwm/service/server.h"

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

struct RaceClient {
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

  bool send_line(const std::string& line) {
    std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n =
          ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// False on clean close / error; true fills one complete line.
  bool recv_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        *line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  ~RaceClient() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(ShutdownRace, InflightQueriesGetOneWellFormedLineEach) {
  const std::string deck_path = testing::TempDir() + "shutdown_race.sp";
  {
    std::ofstream f(deck_path);
    f << chain_deck(4);
    ASSERT_TRUE(f.good());
  }

  ServerOptions opt;
  opt.threads = 3;
  opt.db.sta.threads = 1;
  Server server(opt);
  ASSERT_TRUE(is_ok(server.handle_line("LOAD " + deck_path)));
  ASSERT_TRUE(server.listen(0));
  const int port = server.port();
  std::thread serve_thread([&] { server.serve(); });

  constexpr int kClients = 4;
  std::atomic<std::uint64_t> malformed{0}, answered{0};
  std::atomic<int> active{kClients};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      struct Leave {
        std::atomic<int>* n;
        ~Leave() { --*n; }
      } leave{&active};
      RaceClient cl;
      if (!cl.connect_to(port)) return;
      const std::string req =
          c % 2 == 0 ? std::string("ARRIVAL out") : std::string("STATS");
      while (!stop.load(std::memory_order_acquire)) {
        if (!cl.send_line(req)) return;  // shutdown closed the socket
        std::string line;
        if (!cl.recv_line(&line)) return;  // close instead of reply: fine
        ++answered;
        if (!(is_ok(line) || line.rfind("ERR ", 0) == 0)) ++malformed;
        // Exactly one line per request: the buffer must hold no second
        // (partial or complete) reply before the next request is sent.
        if (!cl.buf.empty()) ++malformed;
      }
    });
  }

  // Let the clients land some traffic, then shut down mid-flight.
  while (answered.load() < 200 && active.load() > 0) std::this_thread::yield();
  {
    RaceClient killer;
    ASSERT_TRUE(killer.connect_to(port));
    ASSERT_TRUE(killer.send_line("SHUTDOWN"));
    std::string line;
    if (killer.recv_line(&line)) {
      EXPECT_TRUE(is_ok(line)) << line;
    }
  }
  serve_thread.join();  // serve() must return after SHUTDOWN
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_GE(answered.load(), 200u);
}

}  // namespace
}  // namespace qwm::service
