#ifndef PA_NET_NDJSON_SERVER_H_
#define PA_NET_NDJSON_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pa::net {

struct NdjsonServerConfig {
  /// 0 = kernel-assigned ephemeral port (read it back via port()).
  uint16_t port = 0;
  bool loopback_only = true;
  /// A connection buffering more than this without a newline — or a single
  /// framed line longer than this — is answered with a typed `bad_request`
  /// and closed: unbounded lines are a memory DoS, not a request.
  size_t max_line_bytes = 64 * 1024;
  /// Connections with no traffic and no pending work for this long are
  /// closed (<= 0 disables). Keeps abandoned clients from pinning fds.
  int idle_timeout_ms = 60'000;
  /// Graceful-drain budget: after RequestShutdown, the loop keeps running
  /// until every admitted request has been answered and flushed, or this
  /// much time has passed — whichever comes first.
  int drain_timeout_ms = 5'000;
  size_t max_connections = 256;
  /// Write backpressure: while a connection's pending-write buffer exceeds
  /// this, the server stops *reading* from it — a slow consumer throttles
  /// its own request stream instead of growing an unbounded reply queue.
  size_t write_buffer_limit = 1 * 1024 * 1024;
  /// Poll tick; bounds shutdown/idle-check latency, not request latency.
  int poll_interval_ms = 50;
};

/// Poll-driven, single-threaded TCP front-end speaking newline-delimited
/// requests (the `pa_serve` NDJSON ops; see DESIGN.md "Networked serving").
///
/// Threading model: one poll loop owns every socket and all connection
/// state. The request handler runs on the poll thread for each complete
/// line and must be cheap — parse and dispatch (e.g. into a ShardedEngine
/// queue), never block. Completions flow back through `Reply`, which is
/// safe to call from any thread: it appends to a mutex-guarded completion
/// queue and wakes the loop through a self-pipe — one byte when the queue
/// goes from empty to non-empty, not one per reply. The loop takes the
/// whole queue per wake and sends once per connection it touched.
///
/// Responses are delivered **in request order per connection** whatever
/// order `Reply` is called in: each line gets a per-connection sequence
/// number at read time, and replies are held in a reorder buffer until all
/// earlier sequences have been written. Pipelined clients can therefore
/// blast N lines and read N responses without correlation ids.
///
/// Shutdown is a drain, not an axe: `RequestShutdown` (async-signal-safe)
/// stops accepting and stops reading, but admitted requests still get
/// their responses written before the loop exits (bounded by
/// drain_timeout_ms).
///
/// Request tracing: the server mints a trace context per request line
/// (obs::SlowTraceReservoir::Begin) and installs it around the handler
/// call, so downstream spans — parse, shard queue wait, compute, serialize
/// — link into one tree. The trace ends when the response flushes into the
/// connection's write buffer (in request order), which charges reorder
/// hold time to a synthesized `net.write_wait` span; traces for
/// connections that die mid-flight are aborted, not published.
class NdjsonServer {
 public:
  /// Runs on the poll thread once per complete request line (newline
  /// stripped). Must eventually cause exactly one Reply(conn_id, seq, ...)
  /// — from any thread — or the connection's later responses stay queued
  /// behind the hole forever.
  using Handler =
      std::function<void(uint64_t conn_id, uint64_t seq, std::string line)>;

  NdjsonServer() = default;
  ~NdjsonServer();
  NdjsonServer(const NdjsonServer&) = delete;
  NdjsonServer& operator=(const NdjsonServer&) = delete;

  /// Binds and spawns the poll thread. False (with `*error`) on bind
  /// failure or if already running.
  bool Start(NdjsonServerConfig config, Handler handler,
             std::string* error = nullptr);

  /// Completes request `seq` on connection `conn_id` with one response
  /// line (newline appended by the server). Thread-safe; replies for
  /// connections that died in the meantime are dropped.
  void Reply(uint64_t conn_id, uint64_t seq, std::string line);

  /// Initiates graceful drain. Async-signal-safe (atomic store + pipe
  /// write), so a SIGTERM handler may call it directly.
  void RequestShutdown();

  /// Blocks until the poll loop has exited (drain complete).
  void Wait();

  /// RequestShutdown + Wait + resource teardown (instrument unregistration,
  /// pipe close). Idempotent; also runs from the destructor. After Wait()
  /// alone the loop is gone but Stop() must still run before the server
  /// object dies — the registry holds pointers at its instruments.
  void Stop();

  bool running() const { return thread_.joinable(); }
  uint16_t port() const { return port_; }

  /// Live connection count (poll-thread-maintained gauge; approximate from
  /// other threads).
  size_t connection_count() const {
    return connections_now_.load(std::memory_order_relaxed);
  }

 private:
  /// A completed response waiting in the reorder buffer. `reply_ns` is the
  /// trace clock at Reply() time (0 for server-synthesized replies such as
  /// oversize rejections): the span between it and the in-order flush is
  /// the response's write-wait — time lost to earlier sequences still in
  /// flight plus completion-queue latency.
  struct PendingReply {
    std::string line;
    uint64_t reply_ns = 0;
  };

  struct Conn {
    int fd = -1;
    std::string read_buf;
    std::string write_buf;
    uint64_t next_seq = 0;    // Next sequence to assign to an incoming line.
    uint64_t next_reply = 0;  // Next sequence to flush into write_buf.
    std::map<uint64_t, PendingReply> ready;  // Completed, waiting for order.
    /// Trace minted per request line, keyed by seq; ended when the response
    /// flushes into write_buf, aborted if the connection dies first.
    std::map<uint64_t, obs::TraceContext> traces;
    std::chrono::steady_clock::time_point last_activity;
    bool closing = false;  // No more reads; close once fully drained.
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string line;
    uint64_t reply_ns = 0;  // obs::TraceClockNs() at Reply() time.
  };

  void Run();
  void ApplyCompletions();
  void AcceptNew();
  /// Reads, frames and dispatches; returns false if the conn must die now.
  bool ReadConn(uint64_t id, Conn& conn);
  /// Flushes write_buf; returns false if the conn must die now.
  bool WriteConn(Conn& conn);
  /// Queues `line` as the ordered response for (conn, seq) and moves the
  /// contiguous prefix into write_buf, ending each moved request's trace.
  /// Sending is the caller's job (ApplyCompletions flushes once per batch).
  void QueueReply(Conn& conn, uint64_t seq, std::string line,
                  uint64_t reply_ns);
  /// Answers an oversize line with a typed bad_request, flushed at once,
  /// and marks the connection closing.
  void RejectOversize(Conn& conn, uint64_t seq);
  /// Aborts every in-flight trace on the connection (it is dying before
  /// its responses flush).
  void AbortTraces(Conn& conn);
  void CloseConn(uint64_t id);
  bool Drained() const;

  NdjsonServerConfig config_;
  Handler handler_;
  bool started_ = false;  // Start succeeded; Stop has not yet cleaned up.
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<size_t> connections_now_{0};
  std::thread thread_;

  // Poll-thread-only state.
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;
  bool accepting_ = true;

  // Cross-thread completion queue. The poll thread swaps it with
  // completion_batch_ (poll-thread-only) and works through the batch.
  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::vector<Completion> completion_batch_;

  // Front-end instruments, registered as net.* for /metrics.
  obs::Counter accepted_;
  obs::Counter lines_;
  obs::Counter oversize_;
  obs::Counter idle_closed_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;
  obs::Gauge connections_gauge_;
};

}  // namespace pa::net

#endif  // PA_NET_NDJSON_SERVER_H_
