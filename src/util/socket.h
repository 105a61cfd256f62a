#ifndef TREEDIFF_UTIL_SOCKET_H_
#define TREEDIFF_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace treediff {

/// Thin POSIX socket vocabulary for the network front end (src/net) and its
/// clients: RAII fd ownership plus the handful of listen/connect/option
/// calls everything else is built from. IPv4 only — the serving surface is
/// loopback and datacenter-internal, where v4 is universal; nothing here
/// precludes adding v6 later.

/// A file descriptor that closes itself. Move-only, like the resource.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes now (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// A listening TCP socket on `host:port` (SO_REUSEADDR, the given backlog).
/// Port 0 binds an ephemeral port — read it back with LocalPort.
StatusOr<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                            int backlog = 128);

/// A connected TCP socket to `host:port` (blocking connect).
StatusOr<OwnedFd> ConnectTcp(const std::string& host, uint16_t port);

/// The port a bound socket actually landed on (for port 0 listeners).
StatusOr<uint16_t> LocalPort(int fd);

/// O_NONBLOCK on/off.
Status SetNonBlocking(int fd, bool nonblocking = true);

/// TCP_NODELAY: the request/response protocol is latency-bound, and Nagle
/// pessimizes pipelined small frames.
Status SetNoDelay(int fd);

/// Blocking write of the whole buffer (EINTR-restarted). For the simple
/// blocking client and tools; the server never blocks on a socket.
Status WriteAll(int fd, const void* data, size_t len);
}  // namespace treediff

#endif  // TREEDIFF_UTIL_SOCKET_H_
