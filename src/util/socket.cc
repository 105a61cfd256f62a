#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace treediff {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Resolves the two spellings of loopback plus dotted-quad literals; the
/// server never needs a resolver for its own bind/connect surface.
StatusOr<in_addr> ParseHost(const std::string& host) {
  in_addr addr{};
  std::string name = host;
  if (name.empty() || name == "localhost") name = "127.0.0.1";
  if (inet_pton(AF_INET, name.c_str(), &addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address \"" + host + "\"");
  }
  return addr;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    // Best-effort: a failed close on teardown has no recovery.
    (void)::close(fd_);
    fd_ = -1;
  }
}

StatusOr<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                            int backlog) {
  StatusOr<in_addr> addr = ParseHost(host);
  if (!addr.ok()) return addr.status();

  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr = *addr;
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

StatusOr<OwnedFd> ConnectTcp(const std::string& host, uint16_t port) {
  StatusOr<in_addr> addr = ParseHost(host);
  if (!addr.ok()) return addr.status();

  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr = *addr;
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
  }
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int updated =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, updated) != 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

Status WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}
}  // namespace treediff
