// The poll-driven NDJSON TCP front-end: framing across partial reads,
// pipelined requests with in-order responses, oversize-line rejection,
// idle-timeout closes, no lost wakeups on the batched reply path, no Nagle
// stall between reply batches, graceful drain — plus the socket_util
// regression tests for the accept-loop bugs (FD_CLOEXEC on accepted
// sockets, EINTR retry in poll) the exposition server used to have.

#include "net/ndjson_server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/socket_util.h"

namespace pa::net {
namespace {

using Clock = std::chrono::steady_clock;

// Blocking line read from a client socket (test side only). Empty string on
// EOF or after `timeout`.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    std::string error;
    fd_ = ConnectTcp(port, &error);
    EXPECT_GE(fd_, 0) << error;
  }
  ~LineClient() { Close(); }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& data) { return SendAll(fd_, data.data(), data.size()); }

  std::string ReadLine(int timeout_ms = 5000) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) return "";
      pollfd pfd{fd_, POLLIN, 0};
      if (PollRetry(&pfd, 1, static_cast<int>(remaining.count())) <= 0) {
        return "";
      }
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return "";  // EOF / error: no complete line.
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

  /// True once the peer closes (EOF observed within the timeout).
  bool WaitForClose(int timeout_ms = 5000) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (PollRetry(&pfd, 1, static_cast<int>(remaining.count())) <= 0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return true;  // RST counts as closed too.
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

NdjsonServerConfig FastConfig() {
  NdjsonServerConfig config;
  config.poll_interval_ms = 10;
  return config;
}

TEST(NdjsonServerTest, EchoesOneLine) {
  NdjsonServer server;
  ASSERT_TRUE(server.Start(FastConfig(),
                           [&server](uint64_t conn, uint64_t seq,
                                     std::string line) {
                             server.Reply(conn, seq, "echo:" + line);
                           }));
  ASSERT_GT(server.port(), 0);
  LineClient client(server.port());
  ASSERT_TRUE(client.Send("hello\n"));
  EXPECT_EQ(client.ReadLine(), "echo:hello");
  server.Stop();
}

TEST(NdjsonServerTest, FramesAcrossPartialReads) {
  NdjsonServer server;
  ASSERT_TRUE(server.Start(FastConfig(),
                           [&server](uint64_t conn, uint64_t seq,
                                     std::string line) {
                             server.Reply(conn, seq, "got:" + line);
                           }));
  LineClient client(server.port());
  // Dribble one request byte-group by byte-group; the server must buffer
  // until the newline, then answer exactly once.
  for (const char* part : {"par", "tial", " li"}) {
    ASSERT_TRUE(client.Send(part));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(client.Send("ne\r\n"));  // CRLF must be stripped too.
  EXPECT_EQ(client.ReadLine(), "got:partial line");
  server.Stop();
}

TEST(NdjsonServerTest, PipelinedResponsesKeepRequestOrder) {
  // The handler completes request 0 LAST (from another thread), yet the
  // client must still receive responses in request order: the reorder
  // buffer holds 1..4 until 0 is done.
  std::mutex mu;
  uint64_t held_conn = 0, held_seq = 0;
  bool have_held = false;
  std::atomic<int> handled{0};

  NdjsonServer server;
  ASSERT_TRUE(server.Start(
      FastConfig(), [&](uint64_t conn, uint64_t seq, std::string line) {
        if (seq == 0) {
          std::lock_guard<std::mutex> lock(mu);
          held_conn = conn;
          held_seq = seq;
          have_held = true;
        } else {
          server.Reply(conn, seq, "r" + std::to_string(seq));
        }
        handled.fetch_add(1);
      }));
  LineClient client(server.port());
  ASSERT_TRUE(client.Send("a\nb\nc\nd\ne\n"));
  // Wait until all five lines were dispatched, then release request 0.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (handled.load() < 5 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(handled.load(), 5);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(have_held);
    server.Reply(held_conn, held_seq, "r0");
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.ReadLine(), "r" + std::to_string(i));
  }
  server.Stop();
}

TEST(NdjsonServerTest, OversizeLineIsRejectedAndConnectionClosed) {
  NdjsonServerConfig config = FastConfig();
  config.max_line_bytes = 64;
  NdjsonServer server;
  std::atomic<int> handled{0};
  ASSERT_TRUE(server.Start(config,
                           [&](uint64_t conn, uint64_t seq, std::string) {
                             handled.fetch_add(1);
                             server.Reply(conn, seq, "ok");
                           }));
  LineClient client(server.port());
  ASSERT_TRUE(client.Send(std::string(200, 'x') + "\n"));
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"bad_request\""), std::string::npos) << reply;
  EXPECT_TRUE(client.WaitForClose());
  EXPECT_EQ(handled.load(), 0) << "oversize line must never reach the handler";
  server.Stop();
}

TEST(NdjsonServerTest, OversizePartialLineWithoutNewlineIsRejected) {
  NdjsonServerConfig config = FastConfig();
  config.max_line_bytes = 64;
  NdjsonServer server;
  ASSERT_TRUE(server.Start(config,
                           [&server](uint64_t conn, uint64_t seq,
                                     std::string) {
                             server.Reply(conn, seq, "ok");
                           }));
  LineClient client(server.port());
  // No newline at all: an attacker streaming an unbounded "line" must be
  // cut off by the buffer cap, not accumulated forever.
  ASSERT_TRUE(client.Send(std::string(300, 'y')));
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"code\":\"bad_request\""), std::string::npos) << reply;
  EXPECT_TRUE(client.WaitForClose());
  server.Stop();
}

TEST(NdjsonServerTest, IdleConnectionIsClosed) {
  NdjsonServerConfig config = FastConfig();
  config.idle_timeout_ms = 100;
  NdjsonServer server;
  ASSERT_TRUE(server.Start(config,
                           [&server](uint64_t conn, uint64_t seq,
                                     std::string) {
                             server.Reply(conn, seq, "ok");
                           }));
  LineClient client(server.port());
  // An active request resets the clock...
  ASSERT_TRUE(client.Send("ping\n"));
  EXPECT_EQ(client.ReadLine(), "ok");
  // ...then pure silence gets the connection reaped.
  EXPECT_TRUE(client.WaitForClose(5000));
  EXPECT_EQ(server.connection_count(), 0u);
  server.Stop();
}

TEST(NdjsonServerTest, GracefulDrainFlushesAdmittedRequests) {
  // The handler answers asynchronously with a delay; shutdown lands while
  // the request is still in flight. Drain semantics: the response must
  // still reach the client before the server exits.
  NdjsonServer server;
  std::thread replier;
  ASSERT_TRUE(server.Start(FastConfig(),
                           [&](uint64_t conn, uint64_t seq, std::string) {
                             replier = std::thread([&server, conn, seq] {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(150));
                               server.Reply(conn, seq, "late-but-delivered");
                             });
                           }));
  const uint16_t port = server.port();
  LineClient client(port);
  ASSERT_TRUE(client.Send("work\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // Admit it.
  server.RequestShutdown();
  EXPECT_EQ(client.ReadLine(), "late-but-delivered");
  EXPECT_TRUE(client.WaitForClose());
  server.Wait();
  replier.join();
  // And the listener is really gone: a new connect must fail.
  std::string error;
  const int fd = ConnectTcp(port, &error);
  if (fd >= 0) close(fd);
  EXPECT_LT(fd, 0);
  server.Stop();
}

TEST(NdjsonServerTest, DrainTimeoutBoundsAStuckHandler) {
  // A handler that never replies must not wedge shutdown forever.
  NdjsonServerConfig config = FastConfig();
  config.drain_timeout_ms = 200;
  NdjsonServer server;
  ASSERT_TRUE(server.Start(config, [](uint64_t, uint64_t, std::string) {}));
  LineClient client(server.port());
  ASSERT_TRUE(client.Send("never-answered\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const Clock::time_point t0 = Clock::now();
  server.RequestShutdown();
  server.Wait();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000);
  server.Stop();
}

TEST(NdjsonServerTest, CrossThreadRepliesNeverLoseAWakeup) {
  // A 60 s poll tick: only the self-pipe can wake the loop, so a reply
  // whose wake byte went missing would sit in the completion queue far
  // past the 2 s each reply is allowed.
  NdjsonServerConfig config;
  config.poll_interval_ms = 60'000;
  config.idle_timeout_ms = 0;

  struct Job {
    uint64_t conn;
    uint64_t seq;
    std::string line;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool done = false;

  NdjsonServer server;
  ASSERT_TRUE(server.Start(
      config, [&](uint64_t conn, uint64_t seq, std::string line) {
        if (seq % 4 == 0) {  // Some replies come from the poll thread itself.
          server.Reply(conn, seq, "r:" + line);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          jobs.push_back({conn, seq, std::move(line)});
        }
        cv.notify_one();
      }));

  // Repliers take jittered bursts off one queue, so one connection's
  // replies arrive from several threads, out of order and in clumps.
  std::vector<std::thread> repliers;
  for (int t = 0; t < 3; ++t) {
    repliers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      for (;;) {
        std::vector<Job> burst;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !jobs.empty(); });
          if (jobs.empty()) return;
          const size_t want = 1 + rng() % 8;
          while (!jobs.empty() && burst.size() < want) {
            burst.push_back(std::move(jobs.front()));
            jobs.pop_front();
          }
        }
        for (Job& job : burst) server.Reply(job.conn, job.seq, "r:" + job.line);
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 300));
      }
    });
  }

  constexpr int kConns = 4;
  constexpr int kRounds = 150;
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(server.port());
      std::mt19937 rng(static_cast<uint32_t>(c) + 100);
      int next = 0;
      for (int round = 0; round < kRounds; ++round) {
        const int burst = 1 + static_cast<int>(rng() % 6);
        std::string lines;
        for (int i = 0; i < burst; ++i) {
          lines += "c" + std::to_string(c) + "-" + std::to_string(next + i) +
                   "\n";
        }
        ASSERT_TRUE(client.Send(lines));
        for (int i = 0; i < burst; ++i) {
          const std::string expected =
              "r:c" + std::to_string(c) + "-" + std::to_string(next + i);
          ASSERT_EQ(client.ReadLine(2000), expected)
              << "conn " << c << ", round " << round;
        }
        next += burst;
        if (rng() % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(rng() % 500));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : repliers) t.join();
  server.Stop();
}

TEST(NdjsonServerTest, RepliesInSeparateBatchesAreNotHeldByNagle) {
  // Each round pipelines kInFlight requests and waits for every reply. A
  // worker thread answers them one at a time with a gap, so each reply
  // leaves the poll thread in its own completion batch while the previous
  // one is still unacknowledged. With Nagle on, every such reply waits for
  // the client's delayed ACK (~40 ms on Linux); with TCP_NODELAY a round
  // costs about the gaps.
  struct Job {
    uint64_t conn;
    uint64_t seq;
    std::string line;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool done = false;

  NdjsonServer server;
  ASSERT_TRUE(server.Start(FastConfig(), [&](uint64_t conn, uint64_t seq,
                                             std::string line) {
    {
      std::lock_guard<std::mutex> lock(mu);
      jobs.push_back({conn, seq, std::move(line)});
    }
    cv.notify_one();
  }));
  std::thread worker([&] {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !jobs.empty(); });
        if (jobs.empty()) return;
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      server.Reply(job.conn, job.seq, "r:" + job.line);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  constexpr int kRounds = 30;
  constexpr int kInFlight = 4;
  auto run_rounds = [&] {
    LineClient client(server.port());
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      std::string lines;
      for (int i = 0; i < kInFlight; ++i) {
        lines += std::to_string(round) + "-" + std::to_string(i) + "\n";
      }
      ASSERT_TRUE(client.Send(lines));
      for (int i = 0; i < kInFlight; ++i) {
        ASSERT_EQ(client.ReadLine(2000),
                  "r:" + std::to_string(round) + "-" + std::to_string(i));
      }
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              t0);
    // A quarter of one delayed-ACK stall per round; each round's own gaps
    // add up to ~2 ms.
    EXPECT_LT(elapsed.count(), kRounds * 10)
        << "replies held back between completion batches";
  };
  run_rounds();

  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  worker.join();
  server.Stop();
}

int CountOpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(NdjsonServerTest, NoFdLeakAcrossConnectionChurn) {
  NdjsonServer server;
  ASSERT_TRUE(server.Start(FastConfig(),
                           [&server](uint64_t conn, uint64_t seq,
                                     std::string) {
                             server.Reply(conn, seq, "ok");
                           }));
  const int baseline = CountOpenFds();
  for (int round = 0; round < 8; ++round) {
    LineClient client(server.port());
    ASSERT_TRUE(client.Send("x\n"));
    ASSERT_EQ(client.ReadLine(), "ok");
  }
  // The server side must have released every accepted fd once the clients
  // hung up (closing is detected on the next read/write attempt).
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (server.connection_count() > 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_LE(CountOpenFds(), baseline);
  server.Stop();
}

// --- socket_util regressions (the exposition-server accept-loop bugfix) ---

TEST(SocketUtilTest, AcceptedSocketsCarryCloseOnExec) {
  uint16_t port = 0;
  std::string error;
  const int listen_fd = ListenTcp(0, /*loopback_only=*/true, &port, &error);
  ASSERT_GE(listen_fd, 0) << error;
  // The listener itself must be CLOEXEC: a fork+exec'd child (e.g. a
  // popen'd subprocess) holding it open would keep the port bound after
  // the server exits.
  EXPECT_NE(fcntl(listen_fd, F_GETFD) & FD_CLOEXEC, 0);

  const int client = ConnectTcp(port, &error);
  ASSERT_GE(client, 0) << error;
  const int accepted = AcceptConnection(listen_fd);
  ASSERT_GE(accepted, 0);
  EXPECT_NE(fcntl(accepted, F_GETFD) & FD_CLOEXEC, 0)
      << "accepted sockets must not leak across exec";
  close(accepted);
  close(client);
  close(listen_fd);
}

TEST(SocketUtilTest, PollRetrySurvivesEintr) {
  // A SIGALRM without SA_RESTART interrupts poll with EINTR mid-wait;
  // PollRetry must resume with the remaining timeout instead of returning
  // an error (the old exposition loop treated EINTR as fatal).
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // Deliberately no SA_RESTART.
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old), 0);

  itimerval timer{};
  timer.it_value.tv_usec = 50'000;  // One shot after 50ms, mid-poll.
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, nullptr), 0);

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  pollfd pfd{pipe_fds[0], POLLIN, 0};
  const Clock::time_point t0 = Clock::now();
  const int result = PollRetry(&pfd, 1, 200);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0);

  EXPECT_EQ(result, 0) << "timeout, not EINTR failure";
  // The full timeout must have been honored across the interruption.
  EXPECT_GE(elapsed.count(), 150);

  close(pipe_fds[0]);
  close(pipe_fds[1]);
  sigaction(SIGALRM, &old, nullptr);
}

}  // namespace
}  // namespace pa::net
