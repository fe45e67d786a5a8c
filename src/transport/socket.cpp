#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>
#include <utility>

#include "common/fault_injection.hpp"

namespace tmhls::transport {

namespace {

std::string errno_string(const char* what) {
  // Built step-wise: the one-expression concatenation trips a GCC 12
  // -Wrestrict false positive (PR105651).
  std::string out = what;
  out += ": ";
  out += std::strerror(errno);
  return out;
}

sockaddr_in loopback_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("invalid IPv4 address: " + host);
  }
  return addr;
}

} // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket Socket::connect(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = loopback_address(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(errno_string("socket"));
  Socket socket(fd);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    throw TransportError(errno_string("connect"));
  }
  // The protocol writes whole messages; disable Nagle so a small request
  // is not held back waiting for the previous response's ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

SendStatus Socket::send_all(std::span<const std::uint8_t> bytes) {
  return send_all(std::span(&bytes, 1));
}

SendStatus Socket::send_all(
    std::span<const std::span<const std::uint8_t>> pieces) {
  TMHLS_REQUIRE(pieces.size() <= kMaxSendPieces,
                "Socket::send_all: too many pieces");
  // Fault site "transport.socket.send": a firing `fail` drops the write
  // as if the connection reset under it.
  if (fault::should_fail("transport.socket.send")) return SendStatus::error;
  std::array<iovec, kMaxSendPieces> iov{};
  std::size_t end = 0;
  for (const std::span<const std::uint8_t> piece : pieces) {
    if (piece.empty()) continue;
    iov[end++] = {const_cast<std::uint8_t*>(piece.data()), piece.size()};
  }
  std::size_t first = 0; // the first piece not yet sent in full
  while (first < end) {
    msghdr message{};
    message.msg_iov = iov.data() + first;
    message.msg_iovlen = end - first;
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return SendStatus::timeout;
      }
      return SendStatus::error;
    }
    // Skip the pieces sent in full, then trim the one sent in part.
    auto sent = static_cast<std::size_t>(n);
    for (; first < end && sent >= iov[first].iov_len; ++first) {
      sent -= iov[first].iov_len;
    }
    if (first < end) {
      iov[first].iov_base =
          static_cast<std::uint8_t*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  return SendStatus::ok;
}

ReadStatus Socket::recv_all(std::span<std::uint8_t> bytes) {
  // Fault site "transport.socket.recv": a firing `fail` drops the read —
  // aimed with trigger_after, one arming produces both the
  // dropped-connection (first read) and short-read (a later, mid-message
  // read) scenarios.
  if (fault::should_fail("transport.socket.recv")) return ReadStatus::error;
  std::size_t received = 0;
  while (received < bytes.size()) {
    const ssize_t n =
        ::recv(fd_, bytes.data() + received, bytes.size() - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadStatus::timeout;
      }
      return ReadStatus::error;
    }
    if (n == 0) {
      // EOF at a message boundary is the peer finishing; mid-message it
      // is a truncated stream.
      return received == 0 ? ReadStatus::eof : ReadStatus::error;
    }
    received += static_cast<std::size_t>(n);
  }
  return ReadStatus::ok;
}

namespace {

timeval timeout_to_timeval(double seconds, const char* what) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) {
    throw TransportError(std::string(what) +
                         ": timeout must be finite and >= 0");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                                       tv.tv_sec)) *
                                        1e6);
  // SO_RCVTIMEO/SO_SNDTIMEO treat {0, 0} as "no timeout"; round a tiny
  // positive request up to the granularity floor instead of disabling.
  if (seconds > 0.0 && tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

} // namespace

void Socket::set_send_timeout(double seconds) {
  const timeval tv = timeout_to_timeval(seconds, "set_send_timeout");
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw TransportError(errno_string("setsockopt(SO_SNDTIMEO)"));
  }
}

void Socket::set_recv_timeout(double seconds) {
  const timeval tv = timeout_to_timeval(seconds, "set_recv_timeout");
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw TransportError(errno_string("setsockopt(SO_RCVTIMEO)"));
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(errno_string("socket"));
  try {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = loopback_address("127.0.0.1", port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      throw TransportError(errno_string("bind"));
    }
    if (::listen(fd, 16) != 0) {
      throw TransportError(errno_string("listen"));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      throw TransportError(errno_string("getsockname"));
    }
    port_ = ntohs(bound.sin_port);
  } catch (...) {
    ::close(fd);
    throw;
  }
  fd_ = fd;
}

ListenSocket::~ListenSocket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Socket ListenSocket::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket(); // listener closed (or fatal): signal loop exit
  }
}

void ListenSocket::shutdown() {
  // Reads fd_ but does not modify it, so it may run concurrently with a
  // thread blocked in accept(); close() alone would not unblock accept
  // on Linux (and mutating fd_ here would race the accept thread).
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

} // namespace tmhls::transport
