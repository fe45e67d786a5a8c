// Thin RAII wrappers over POSIX TCP sockets — just enough for the framed
// transport: a connected stream socket with exact-length send/receive, and
// a listening socket bound to the loopback interface. No third-party
// dependencies, no event loop; the server gets its concurrency from
// threads, its backpressure from bounded windows plus TCP flow control.
//
// The listener binds 127.0.0.1 only: this transport fronts an in-process
// service for co-located clients (and the CI loopback gate); exposing it
// beyond the host is a deployment decision that belongs in front of it,
// not a default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"

namespace tmhls::transport {

/// Socket-level failure (bind, connect, listen, option setting). Read and
/// write failures on an established connection are reported through
/// return values instead — a peer hanging up is an event, not an error.
class TransportError : public Error {
public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

/// A socket operation exceeded its configured send/receive timeout (see
/// Socket::set_recv_timeout). Typed so callers can tell "the server is
/// slow or hung" (retryable against a deadline) from "the connection
/// broke" (reconnect first).
class TimeoutError : public TransportError {
public:
  explicit TimeoutError(const std::string& what) : TransportError(what) {}
};

/// Outcome of an exact-length read.
enum class ReadStatus {
  ok,      ///< the buffer was filled completely
  eof,     ///< clean end of stream before the first byte (peer finished)
  error,   ///< connection broke (reset, or EOF mid-message)
  timeout, ///< the configured receive timeout elapsed (possibly
           ///< mid-message — the stream position is unknown, so the
           ///< connection is only good for closing)
};

/// Outcome of an exact-length write.
enum class SendStatus {
  ok,      ///< the whole span was handed to the kernel
  error,   ///< connection broke (reset; a vanished peer is a status, not
           ///< a signal — SIGPIPE is suppressed)
  timeout, ///< the configured send timeout elapsed (peer not draining)
};

/// A connected TCP stream socket. Move-only; the destructor closes.
class Socket {
public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Connect to host:port; throws TransportError on failure.
  static Socket connect(const std::string& host, std::uint16_t port);

  /// Write the whole span; the status says how it ended.
  SendStatus send_all(std::span<const std::uint8_t> bytes);

  /// Write every piece, in order, as one byte stream: one gather write
  /// (sendmsg), repeated over partial sends. At most kMaxSendPieces.
  SendStatus send_all(std::span<const std::span<const std::uint8_t>> pieces);
  static constexpr std::size_t kMaxSendPieces = 4;

  /// Read exactly bytes.size() bytes.
  ReadStatus recv_all(std::span<std::uint8_t> bytes);

  /// Bound every subsequent send / receive: an operation that cannot
  /// complete within `seconds` returns SendStatus::timeout /
  /// ReadStatus::timeout instead of blocking forever. 0 (the default
  /// state) disables the bound. Throws TransportError if the option
  /// cannot be set; `seconds` must be >= 0 and finite.
  void set_send_timeout(double seconds);
  void set_recv_timeout(double seconds);

  /// Half-close the read side: an in-progress or future recv on this
  /// socket observes EOF. Used to stop accepting requests on a
  /// connection while its responses drain.
  void shutdown_read();

  /// Half-close the write side: the peer observes EOF after the bytes
  /// already sent. Used by clients to signal "no more requests" while
  /// still reading replies.
  void shutdown_write();

  /// Full shutdown: unblocks any thread blocked in recv/send.
  void shutdown_both();

  void close();

private:
  int fd_ = -1;
};

/// A TCP listener on 127.0.0.1. Move-only; the destructor closes.
class ListenSocket {
public:
  /// Bind and listen on the loopback interface; port 0 picks an ephemeral
  /// port (see port()). Throws TransportError on failure.
  explicit ListenSocket(std::uint16_t port);
  ~ListenSocket();

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// The bound port (resolves an ephemeral request to the real one).
  std::uint16_t port() const { return port_; }

  /// Block for the next connection. Returns an invalid Socket once the
  /// listener has been shut down (the accept loop's exit signal).
  Socket accept();

  /// Wake a thread blocked in accept() (it returns an invalid Socket).
  /// Safe to call while another thread is inside accept(); the fd itself
  /// stays open until close(), which must only run once no thread can be
  /// in accept() any more (i.e. after joining the accept thread).
  void shutdown();

  /// Close the listener fd. Not safe concurrently with accept() — call
  /// shutdown() first and join the accepting thread.
  void close();

private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

} // namespace tmhls::transport
