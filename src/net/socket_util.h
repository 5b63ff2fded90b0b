#ifndef PA_NET_SOCKET_UTIL_H_
#define PA_NET_SOCKET_UTIL_H_

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace pa::net {

/// Shared dependency-free socket plumbing for every network surface in the
/// repo (the obs HTTP exposition server and the NDJSON serving front-end).
/// One implementation of the listen/accept/poll dance instead of a
/// hand-rolled copy per server; all helpers are EINTR-safe and every fd they
/// create carries FD_CLOEXEC, so a fork+exec elsewhere in the process can
/// never inherit a listening or accepted socket.

/// Creates, binds and listens a TCP socket on `port` (0 = kernel-assigned
/// ephemeral port). `loopback_only` binds 127.0.0.1, otherwise 0.0.0.0.
/// On success returns the listening fd (SO_REUSEADDR and FD_CLOEXEC set)
/// and stores the bound port in `*bound_port`. On failure returns -1 with a
/// reason in `*error` (both out-params optional).
int ListenTcp(uint16_t port, bool loopback_only, uint16_t* bound_port,
              std::string* error);

/// accept() with EINTR retry; the accepted socket gets FD_CLOEXEC and
/// TCP_NODELAY before it is returned. Returns -1 when no connection is
/// ready (EAGAIN/EWOULDBLOCK on a non-blocking listener) or on a fatal
/// error; errno is preserved.
int AcceptConnection(int listen_fd);

/// poll() retrying on EINTR with the remaining timeout recomputed, so a
/// signal delivery never turns into a spurious "ready"/timeout. Semantics
/// otherwise match poll(): returns the ready count, 0 on timeout, -1 on a
/// non-EINTR error. `timeout_ms < 0` waits forever.
int PollRetry(pollfd* fds, size_t nfds, int timeout_ms);

/// Marks `fd` non-blocking (O_NONBLOCK). Returns false on fcntl failure.
bool SetNonBlocking(int fd);

/// Marks `fd` close-on-exec (FD_CLOEXEC). Returns false on fcntl failure.
bool SetCloseOnExec(int fd);

/// Blocking client connect to 127.0.0.1:`port` (tests, benches, CLI smoke
/// drivers). Returns the connected fd (FD_CLOEXEC set) or -1 with `*error`.
int ConnectTcp(uint16_t port, std::string* error);

/// Sends the whole buffer, retrying on EINTR and partial writes (blocking
/// sockets). Returns false on any other error.
bool SendAll(int fd, const void* data, size_t len);

}  // namespace pa::net

#endif  // PA_NET_SOCKET_UTIL_H_
