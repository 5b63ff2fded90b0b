#include "net/ndjson_server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "net/socket_util.h"
#include "obs/health.h"
#include "obs/slow_trace.h"

namespace pa::net {

namespace {

constexpr const char* kHealthComponent = "net.listener";

// Registry-owned: the write-wait stage outlives any one server instance.
obs::Histogram& WriteWaitHistogram() {
  static obs::Histogram& h =
      obs::MetricRegistry::Global().GetHistogram("net.write_wait_us");
  return h;
}

// Oversize lines get this synthesized envelope; it flows through the normal
// reorder path so pipelined responses before it still arrive in order.
std::string OversizeReply(size_t limit) {
  return "{\"ok\":false,\"code\":\"bad_request\",\"error\":\"line exceeds " +
         std::to_string(limit) + " bytes\"}";
}

}  // namespace

NdjsonServer::~NdjsonServer() { Stop(); }

bool NdjsonServer::Start(NdjsonServerConfig config, Handler handler,
                         std::string* error) {
  if (running()) {
    if (error) *error = "server already running";
    return false;
  }
  config_ = config;
  handler_ = std::move(handler);

  std::string listen_error;
  listen_fd_ = ListenTcp(config_.port, config_.loopback_only, &port_,
                         &listen_error);
  if (listen_fd_ < 0) {
    if (error) *error = listen_error;
    return false;
  }
  SetNonBlocking(listen_fd_);

  if (pipe(wake_pipe_) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  for (int fd : wake_pipe_) {
    SetNonBlocking(fd);
    SetCloseOnExec(fd);
  }

  auto& registry = obs::MetricRegistry::Global();
  registry.RegisterCounter("net.accepted", &accepted_);
  registry.RegisterCounter("net.requests", &lines_);
  registry.RegisterCounter("net.oversize", &oversize_);
  registry.RegisterCounter("net.idle_closed", &idle_closed_);
  registry.RegisterCounter("net.bytes_in", &bytes_in_);
  registry.RegisterCounter("net.bytes_out", &bytes_out_);
  registry.RegisterGauge("net.connections", &connections_gauge_);
  obs::HealthRegistry::Global().Set(kHealthComponent, obs::HealthStatus::kOk,
                                    "listening on port " +
                                        std::to_string(port_));

  shutdown_requested_.store(false, std::memory_order_relaxed);
  accepting_ = true;
  started_ = true;
  thread_ = std::thread(&NdjsonServer::Run, this);
  return true;
}

void NdjsonServer::Reply(uint64_t conn_id, uint64_t seq, std::string line) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    was_empty = completions_.empty();
    completions_.push_back(
        Completion{conn_id, seq, std::move(line), obs::TraceClockNs()});
  }
  // Wake the poll loop on the empty -> non-empty edge only. The loop drains
  // the pipe before it takes the queue, so a queue that is still non-empty
  // already has its wake byte pending (a full pipe guarantees one too).
  if (was_empty && wake_pipe_[1] >= 0) {
    const char byte = 'r';
    [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
  }
}

void NdjsonServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
  }
}

void NdjsonServer::Wait() {
  if (thread_.joinable()) thread_.join();
}

void NdjsonServer::Stop() {
  if (!started_) return;
  RequestShutdown();
  Wait();
  started_ = false;
  auto& registry = obs::MetricRegistry::Global();
  registry.Unregister("net.accepted", &accepted_);
  registry.Unregister("net.requests", &lines_);
  registry.Unregister("net.oversize", &oversize_);
  registry.Unregister("net.idle_closed", &idle_closed_);
  registry.Unregister("net.bytes_in", &bytes_in_);
  registry.Unregister("net.bytes_out", &bytes_out_);
  registry.Unregister("net.connections", &connections_gauge_);
  obs::HealthRegistry::Global().Remove(kHealthComponent);
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

bool NdjsonServer::Drained() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.next_reply != conn.next_seq || !conn.write_buf.empty()) {
      return false;
    }
  }
  return true;
}

void NdjsonServer::Run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point drain_deadline{};
  bool draining = false;

  for (;;) {
    if (!draining && shutdown_requested_.load(std::memory_order_acquire)) {
      // Graceful drain: stop accepting and stop reading, but keep the loop
      // alive until every admitted request has flushed its response.
      draining = true;
      accepting_ = false;
      obs::HealthRegistry::Global().Set(kHealthComponent,
                                        obs::HealthStatus::kDegraded,
                                        "draining");
      if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
      }
      drain_deadline = Clock::now() + std::chrono::milliseconds(
                                          std::max(0, config_.drain_timeout_ms));
    }
    if (draining && (Drained() || Clock::now() >= drain_deadline)) break;

    std::vector<pollfd> fds;
    std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 for non-conns).
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (accepting_ && listen_fd_ >= 0 &&
        conns_.size() < config_.max_connections) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      // Backpressure: a consumer that is not reading its replies does not
      // get to keep submitting requests.
      if (!conn.closing && !draining &&
          conn.write_buf.size() < config_.write_buffer_limit) {
        events |= POLLIN;
      }
      if (!conn.write_buf.empty()) events |= POLLOUT;
      if (events == 0) continue;  // Parked: waiting on replies only.
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    PollRetry(fds.data(), fds.size(), config_.poll_interval_ms);

    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    ApplyCompletions();

    std::vector<uint64_t> dead;
    for (size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].fd == listen_fd_ && fd_conn[i] == 0) {
        if (fds[i].revents & POLLIN) AcceptNew();
        continue;
      }
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        dead.push_back(fd_conn[i]);
        continue;
      }
      if ((fds[i].revents & POLLIN) && !ReadConn(fd_conn[i], conn)) {
        dead.push_back(fd_conn[i]);
        continue;
      }
      if ((fds[i].revents & (POLLOUT | POLLHUP)) && !WriteConn(conn)) {
        dead.push_back(fd_conn[i]);
        continue;
      }
    }
    for (uint64_t id : dead) CloseConn(id);

    // Reap connections that finished their lifecycle, and idle ones.
    const auto now = Clock::now();
    std::vector<uint64_t> done;
    for (auto& [id, conn] : conns_) {
      const bool no_pending =
          conn.next_reply == conn.next_seq && conn.write_buf.empty();
      if (conn.closing && no_pending) {
        done.push_back(id);
      } else if (config_.idle_timeout_ms > 0 && no_pending && !conn.closing &&
                 now - conn.last_activity >
                     std::chrono::milliseconds(config_.idle_timeout_ms)) {
        idle_closed_.Increment();
        done.push_back(id);
      }
    }
    for (uint64_t id : done) CloseConn(id);
  }

  // Drain over (or timed out): drop whatever is left.
  for (auto& [id, conn] : conns_) {
    AbortTraces(conn);
    close(conn.fd);
  }
  conns_.clear();
  connections_now_.store(0, std::memory_order_relaxed);
  connections_gauge_.Set(0.0);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void NdjsonServer::ApplyCompletions() {
  {
    // The cleared batch buffer goes back as the queue, capacity and all.
    std::lock_guard<std::mutex> lock(completions_mu_);
    completion_batch_.swap(completions_);
  }
  // Queue the whole batch first, then flush each touched connection once:
  // one send per connection per wake, however many replies it carries.
  std::vector<Conn*> touched;
  for (Completion& c : completion_batch_) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // Connection died; drop the reply.
    Conn& conn = it->second;
    QueueReply(conn, c.seq, std::move(c.line), c.reply_ns);
    if (std::find(touched.begin(), touched.end(), &conn) == touched.end()) {
      touched.push_back(&conn);
    }
  }
  completion_batch_.clear();
  // A failed send leaves write_buf non-empty; the next poll reports the
  // error and the loop closes the connection.
  for (Conn* conn : touched) WriteConn(*conn);
}

void NdjsonServer::AcceptNew() {
  while (conns_.size() < config_.max_connections) {
    const int fd = AcceptConnection(listen_fd_);
    if (fd < 0) break;  // EAGAIN (or fatal; either way, next poll retries).
    SetNonBlocking(fd);
    accepted_.Increment();
    Conn conn;
    conn.fd = fd;
    conn.last_activity = std::chrono::steady_clock::now();
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
  connections_now_.store(conns_.size(), std::memory_order_relaxed);
  connections_gauge_.Set(static_cast<double>(conns_.size()));
}

bool NdjsonServer::ReadConn(uint64_t id, Conn& conn) {
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      bytes_in_.Add(static_cast<uint64_t>(n));
      conn.read_buf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // EOF: no more requests, but pending replies still get delivered.
      conn.closing = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // Connection error.
  }

  // Frame complete lines and dispatch them.
  size_t start = 0;
  for (;;) {
    const size_t nl = conn.read_buf.find('\n', start);
    if (nl == std::string::npos) break;
    size_t end = nl;
    if (end > start && conn.read_buf[end - 1] == '\r') --end;
    std::string line = conn.read_buf.substr(start, end - start);
    start = nl + 1;
    if (line.empty()) continue;  // Blank lines are keep-alives, not requests.
    const uint64_t seq = conn.next_seq++;
    if (line.size() > config_.max_line_bytes) {
      RejectOversize(conn, seq);
      break;
    }
    lines_.Increment();
    // Mint the request's trace and install it around the handler: spans the
    // handler opens (parse), and the context it captures into the shard
    // queue, all link under this trace's root. Ended at flush in QueueReply.
    const obs::TraceContext trace = obs::SlowTraceReservoir::Global().Begin();
    if (trace.active()) conn.traces.emplace(seq, trace);
    const obs::TraceContextScope scope(trace);
    handler_(id, seq, std::move(line));
  }
  if (start > 0) conn.read_buf.erase(0, start);

  // A partial line larger than the cap can never complete legally; reject
  // it before it grows into a memory sink.
  if (!conn.closing && conn.read_buf.size() > config_.max_line_bytes) {
    conn.read_buf.clear();
    RejectOversize(conn, conn.next_seq++);
  }
  return true;
}

void NdjsonServer::RejectOversize(Conn& conn, uint64_t seq) {
  oversize_.Increment();
  conn.closing = true;
  QueueReply(conn, seq, OversizeReply(config_.max_line_bytes), 0);
  WriteConn(conn);
}

bool NdjsonServer::WriteConn(Conn& conn) {
  while (!conn.write_buf.empty()) {
    const ssize_t n = send(conn.fd, conn.write_buf.data(),
                           conn.write_buf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.Add(static_cast<uint64_t>(n));
      conn.write_buf.erase(0, static_cast<size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // Peer gone; nothing left to deliver to.
  }
  return true;
}

void NdjsonServer::QueueReply(Conn& conn, uint64_t seq, std::string line,
                              uint64_t reply_ns) {
  conn.ready.emplace(seq, PendingReply{std::move(line), reply_ns});
  // Flush the contiguous prefix: responses leave in request order no matter
  // what order the shards finished in.
  auto it = conn.ready.find(conn.next_reply);
  while (it != conn.ready.end()) {
    conn.write_buf.append(it->second.line);
    conn.write_buf.push_back('\n');
    // The flush completes the request's trace. write_wait covers Reply() →
    // here: completion-queue latency plus time held behind earlier
    // sequences in the reorder buffer.
    auto trace_it = conn.traces.find(conn.next_reply);
    if (trace_it != conn.traces.end()) {
      const uint64_t now = obs::TraceClockNs();
      if (it->second.reply_ns != 0) {
        const uint64_t span_id = obs::RecordStageSpan(
            "net.write_wait", it->second.reply_ns, now, trace_it->second);
        WriteWaitHistogram().RecordWithExemplar(
            static_cast<double>(now - std::min(now, it->second.reply_ns)) /
                1000.0,
            span_id);
      }
      obs::SlowTraceReservoir::Global().End(trace_it->second, now);
      conn.traces.erase(trace_it);
    }
    conn.ready.erase(it);
    ++conn.next_reply;
    it = conn.ready.find(conn.next_reply);
  }
}

void NdjsonServer::AbortTraces(Conn& conn) {
  for (auto& [seq, trace] : conn.traces) {
    obs::SlowTraceReservoir::Global().Abort(trace);
  }
  conn.traces.clear();
}

void NdjsonServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  AbortTraces(it->second);
  const int fd = it->second.fd;
  conns_.erase(it);
  // Publish the new count *before* closing: a peer observes our FIN the
  // moment close() runs, and anything it does next (a test asserting the
  // gauge, a load balancer re-polling) must already see this conn gone.
  connections_now_.store(conns_.size(), std::memory_order_relaxed);
  connections_gauge_.Set(static_cast<double>(conns_.size()));
  close(fd);
}

}  // namespace pa::net
