#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b);

/// `VmHWM` (peak resident set) of a process in MB, from /proc; 0 when the
/// process is gone or /proc is unreadable.
double PeakRssMb(pid_t pid);

/// CPU seconds (user + system) each thread of a process has used so far,
/// by thread id, from /proc/<pid>/task/*/stat.
std::map<pid_t, double> ThreadCpuSeconds(pid_t pid);

/// A `pa_serve listen` child process: spawned with an ephemeral port,
/// ready once it prints its "listening on 127.0.0.1:PORT" line. The
/// destructor kills and reaps a child that was not stopped cleanly, so no
/// path out of the benchmark leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Runs `binary listen <args> --port 0` with `extra_env` ("KEY=VALUE")
  /// added to this process's environment, and waits up to `timeout_ms`
  /// for the listening line.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::vector<std::string>& extra_env, int timeout_ms,
             std::string* error);

  /// SIGTERM (graceful drain), then waits for exit; false unless the child
  /// exited 0 within `timeout_ms`.
  bool Stop(int timeout_ms, std::string* error);

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  uint16_t port_ = 0;
};

/// A closed-loop NDJSON client over one or more loopback connections.
/// Each connection keeps up to `window` requests in flight; the server
/// answers in request order per connection, so responses are matched to
/// requests by position. One thread drives every connection through poll.
class WireClient {
 public:
  /// The next request for connection `conn`: fills `line` (no newline) and
  /// an opaque `tag`, or returns false when the connection has nothing to
  /// send right now.
  using NextFn =
      std::function<bool(int conn, std::string* line, uint64_t* tag)>;
  /// One response: its request's tag, the raw line, the send and receive
  /// instants and the slot (0..window-1) the request occupied.
  struct Response {
    int conn = 0;
    uint64_t tag = 0;
    std::string_view line;
    Clock::time_point sent;
    Clock::time_point received;
    int slot = 0;
  };
  using DoneFn = std::function<void(const Response&)>;

  ~WireClient();
  bool Connect(uint16_t port, int connections, std::string* error);
  void Close();

  /// Sends requests from `next` (keeping each connection's window full)
  /// until `next` runs dry on every connection or `stop_at` passes, then
  /// waits for every outstanding response. Returns false on a socket
  /// error, a closed connection or `idle_timeout_ms` without progress.
  bool Run(int window, const NextFn& next, const DoneFn& done,
           Clock::time_point stop_at, std::string* error,
           int idle_timeout_ms = 30'000);

  /// One blocking request/response on connection 0 (stats, warm-up).
  bool Call(const std::string& line, std::string* response, std::string* error);

 private:
  struct Pending {
    uint64_t tag;
    Clock::time_point sent;
    int slot;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::deque<Pending> pending;  // Oldest first.
    std::vector<int> free_slots;
  };
  std::vector<Conn> conns_;
};

/// Parses a topk success envelope's "pois" array; false for anything else
/// (error envelope, missing or malformed array).
bool ParseTopKPois(std::string_view line, std::vector<int32_t>* pois);

/// True for a `{"ok":true` envelope.
bool IsOk(std::string_view line);

/// The `"code"` of an error envelope ("overloaded", ...), or "" if absent.
std::string ErrorCode(std::string_view line);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
