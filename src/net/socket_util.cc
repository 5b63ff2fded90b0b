#include "net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace pa::net {

namespace {

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SetCloseOnExec(int fd) {
  const int flags = fcntl(fd, F_GETFD, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

int ListenTcp(uint16_t port, bool loopback_only, uint16_t* bound_port,
              std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = ErrnoString("socket");
    return -1;
  }
  SetCloseOnExec(fd);
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = ErrnoString("bind");
    close(fd);
    return -1;
  }
  if (listen(fd, 64) != 0) {
    if (error) *error = ErrnoString("listen");
    close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error) *error = ErrnoString("getsockname");
    close(fd);
    return -1;
  }
  if (bound_port) *bound_port = ntohs(addr.sin_port);
  return fd;
}

int AcceptConnection(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      // Without FD_CLOEXEC an accepted socket leaks into any child a
      // fork+exec elsewhere in the process spawns — the child then holds
      // the connection open after we close our copy.
      SetCloseOnExec(fd);
      // Replies are small writes that often leave in separate batches.
      // With Nagle on, each one after the first waits for the ACK of the
      // last, which a client awaiting the rest of its replies delays by
      // ~40 ms.
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

int PollRetry(pollfd* fds, size_t nfds, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const bool bounded = timeout_ms >= 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
  int remaining = timeout_ms;
  for (;;) {
    const int rc = poll(fds, static_cast<nfds_t>(nfds), remaining);
    if (rc >= 0 || errno != EINTR) return rc;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      remaining = static_cast<int>(std::max<int64_t>(0, left.count()));
      if (remaining == 0) return 0;  // The interruption consumed the budget.
    }
  }
}

int ConnectTcp(uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = ErrnoString("socket");
    return -1;
  }
  SetCloseOnExec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    if (errno == EINTR) continue;
    if (error) *error = ErrnoString("connect");
    close(fd);
    return -1;
  }
}

bool SendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = send(fd, p + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace pa::net
