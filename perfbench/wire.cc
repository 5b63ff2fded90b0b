#include "wire.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/socket_util.h"

extern char** environ;

namespace perfbench {

namespace net = pa::net;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::map<pid_t, double> ThreadCpuSeconds(pid_t pid) {
  std::map<pid_t, double> cpu;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime = std::strtod(field.c_str(), nullptr);
    }
    cpu[std::stoi(entry.path().filename().string())] = (utime + stime) / ticks;
  }
  return cpu;
}

// ---------------------------------------------------------------------------
// ServerProcess

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::vector<std::string>& extra_env,
                          int timeout_ms, std::string* error) {
  Kill();
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  std::vector<std::string> argv_s = {binary, "listen"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port");
  argv_s.push_back("0");
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  // This process's environment with `extra_env` overriding same-named keys.
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string key = entry.substr(0, entry.find('='));
    bool overridden = false;
    for (const std::string& x : extra_env) {
      overridden |= x.substr(0, x.find('=')) == key;
    }
    if (!overridden) env_s.push_back(entry);
  }
  env_s.insert(env_s.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  for (std::string& s : env_s) envp.push_back(s.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  stderr_fd_ = fds[0];

  const std::string marker = "listening on 127.0.0.1:";
  std::string text;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    const size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      const char* p = text.data() + at + marker.size();
      unsigned port = 0;
      std::from_chars(p, text.data() + text.size(), port);
      port_ = static_cast<uint16_t>(port);
      return port_ != 0;
    }
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (net::PollRetry(&pfd, 1, std::max<int>(1, left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(stderr_fd_, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;  // The child closed stderr: it exited without listening.
    }
  }
  *error = "pa_serve listen did not come up: " + text;
  Kill();
  return false;
}

bool ServerProcess::Stop(int timeout_ms, std::string* error) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      *error = std::string("waitpid: ") + std::strerror(errno);
      pid_ = -1;
      return false;
    }
    if (Clock::now() >= deadline) {
      *error = "pa_serve did not drain within the stop timeout";
      Kill();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  close(stderr_fd_);
  stderr_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "pa_serve exited with status " + std::to_string(status);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// WireClient

WireClient::~WireClient() { Close(); }

void WireClient::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  conns_.clear();
}

bool WireClient::Connect(uint16_t port, int connections, std::string* error) {
  Close();
  for (int i = 0; i < connections; ++i) {
    Conn c;
    c.fd = net::ConnectTcp(port, error);
    if (c.fd < 0) return false;
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.push_back(std::move(c));
  }
  return true;
}

bool WireClient::Run(int window, const NextFn& next, const DoneFn& done,
                     Clock::time_point stop_at, std::string* error,
                     int idle_timeout_ms) {
  const int n = static_cast<int>(conns_.size());
  std::vector<bool> dry(n, false);
  for (Conn& c : conns_) {
    c.pending.clear();
    c.free_slots.clear();
    for (int s = window - 1; s >= 0; --s) c.free_slots.push_back(s);
  }
  std::string out, line;
  std::vector<Pending> fresh;
  std::vector<pollfd> pfds(static_cast<size_t>(n));
  char buf[1 << 16];

  for (;;) {
    const bool stopping = Clock::now() >= stop_at;
    size_t outstanding = 0;
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[i];
      out.clear();
      fresh.clear();
      while (!stopping && !dry[i] && !c.free_slots.empty()) {
        uint64_t tag = 0;
        if (!next(i, &line, &tag)) {
          dry[i] = true;
          break;
        }
        out += line;
        out += '\n';
        fresh.push_back(Pending{tag, {}, c.free_slots.back()});
        c.free_slots.pop_back();
      }
      if (!fresh.empty()) {
        const Clock::time_point now = Clock::now();
        for (Pending& p : fresh) {
          p.sent = now;
          c.pending.push_back(p);
        }
        if (!net::SendAll(c.fd, out.data(), out.size())) {
          *error = std::string("send: ") + std::strerror(errno);
          return false;
        }
      }
      outstanding += c.pending.size();
      pfds[i] = pollfd{c.fd, POLLIN, 0};
    }
    if (outstanding == 0) {
      if (stopping || std::find(dry.begin(), dry.end(), false) == dry.end()) {
        return true;
      }
      continue;
    }

    const int ready = net::PollRetry(pfds.data(), pfds.size(), idle_timeout_ms);
    if (ready <= 0) {
      *error = ready == 0 ? "no response within the idle timeout"
                          : std::string("poll: ") + std::strerror(errno);
      return false;
    }
    for (int i = 0; i < n; ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = conns_[i];
      const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        *error = got == 0 ? "server closed the connection"
                          : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      const Clock::time_point received = Clock::now();
      c.in.append(buf, static_cast<size_t>(got));
      size_t start = 0;
      for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (c.pending.empty()) {
          *error = "response without a request";
          return false;
        }
        const Pending p = c.pending.front();
        c.pending.pop_front();
        c.free_slots.push_back(p.slot);
        Response r;
        r.conn = i;
        r.tag = p.tag;
        r.line = std::string_view(c.in).substr(start, nl - start);
        r.sent = p.sent;
        r.received = received;
        r.slot = p.slot;
        done(r);
      }
      c.in.erase(0, start);
    }
  }
}

bool WireClient::Call(const std::string& line, std::string* response,
                      std::string* error) {
  bool sent = false;
  const bool ok = Run(
      1,
      [&](int conn, std::string* out, uint64_t* tag) {
        if (conn != 0 || sent) return false;
        sent = true;
        *out = line;
        *tag = 0;
        return true;
      },
      [&](const Response& r) { *response = std::string(r.line); },
      Clock::time_point::max(), error);
  return ok && sent;
}

// ---------------------------------------------------------------------------
// Envelope parsing

bool IsOk(std::string_view line) { return line.rfind("{\"ok\":true", 0) == 0; }

bool ParseTopKPois(std::string_view line, std::vector<int32_t>* pois) {
  pois->clear();
  if (!IsOk(line)) return false;
  const size_t at = line.find("\"pois\":[");
  if (at == std::string_view::npos) return false;
  const char* p = line.data() + at + 8;
  const char* end = line.data() + line.size();
  while (p < end && *p != ']') {
    int32_t v = 0;
    const auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    pois->push_back(v);
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return p < end;
}

std::string ErrorCode(std::string_view line) {
  const std::string_view key = "\"code\":\"";
  const size_t at = line.find(key);
  if (at == std::string_view::npos) return "";
  const size_t begin = at + key.size();
  const size_t end = line.find('"', begin);
  return end == std::string_view::npos
             ? ""
             : std::string(line.substr(begin, end - begin));
}

}  // namespace perfbench
