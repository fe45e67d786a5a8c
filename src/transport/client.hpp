// transport::Client — the caller-side end of the framed transport: submit
// FrameJobs to a transport::Server over one TCP socket, blocking
// (call()) or pipelined (submit()/next_result(), many requests in flight
// on the same connection). The pipelined form is the transport twin of
// serve::ToneMapService's submit/future API: submit() assigns a
// client-local request id and writes the frame; next_result() reads
// whichever reply arrives next — the server answers in completion order —
// and hands it back with the id it answers.
//
// Thread safety: none. A Client is one protocol conversation; drive it
// from one thread (or add external synchronisation). Use one Client per
// thread for concurrent load — connections are cheap relative to frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "serve/service.hpp"
#include "stream/session.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace tmhls::transport {

/// A server-reported per-request failure (the wire error reply): the
/// remote message plus the id of the request it answers. The connection
/// remains usable after catching one.
class RemoteError : public Error {
public:
  RemoteError(std::uint64_t request_id, const std::string& message,
              wire::ErrorCode code = wire::ErrorCode::generic)
      : Error(message), request_id_(request_id), code_(code) {}

  /// The request this failure answers (matches a submit() return value).
  std::uint64_t request_id() const { return request_id_; }

  /// The typed category the server attached (wire v2) — overloaded and
  /// deadline_exceeded are the ones retry/degrade logic keys on.
  wire::ErrorCode code() const { return code_; }

private:
  std::uint64_t request_id_;
  wire::ErrorCode code_;
};

/// Configuration of a Client connection.
struct ClientOptions {
  /// Server address (the server binds loopback only).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Total time to keep retrying the initial connect. Covers the race
  /// where the client races a server that is still binding (the CI
  /// loopback smoke test starts both within milliseconds).
  double connect_timeout_seconds = 5.0;
  /// Per-operation socket send/receive bound, applied to the connection
  /// at construction. 0 (default) sets no bound — except in call(),
  /// which then derives one from the job's deadline (deadline + 1s of
  /// wire slack) so a hung server can never block a deadlined round trip
  /// forever. A blown bound surfaces as the typed TimeoutError.
  double request_timeout_seconds = 0.0;
  /// How many times call() retries after a timeout or a broken
  /// connection (reconnecting first; server-reported errors are never
  /// retried — the server already answered). 0 (default) = fail fast.
  int max_request_retries = 0;
  /// Sleep before the first retry, doubling on each subsequent one.
  double retry_backoff_seconds = 0.05;
};

/// A next_result() reply under the name the benchmark runner
/// (perfbench/runner.cpp) spells; it goes when the runner moves to
/// wire::Response.
using ClientResult = wire::Response;

/// The blocking/pipelined transport client.
class Client {
public:
  /// Connect (with retry until connect_timeout_seconds); throws
  /// TransportError when the deadline passes without a connection.
  explicit Client(const ClientOptions& options);
  Client(const std::string& host, std::uint16_t port);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Pipelined submit: frame and options cross the wire now, the reply is
  /// read later by next_result(). Returns the request id the eventual
  /// reply will carry. Throws TransportError if the connection is gone,
  /// InvalidArgument for jobs the wire format rejects (empty frame,
  /// out-of-range dimensions or deadline).
  std::uint64_t submit(serve::FrameJob job);

  /// Read the next reply (completion order, not submission order): the
  /// FrameResult exactly as the service produced it, with the id of the
  /// request it answers. Throws RemoteError for a server-reported failure
  /// — the connection stays usable — and TransportError/WireError if the
  /// stream breaks.
  wire::Response next_result();

  /// Blocking round trip: submit one job, wait for its reply. Requires an
  /// empty pipeline (no outstanding submits).
  ///
  /// This is the resilient entry point: the socket operations are bounded
  /// (by request_timeout_seconds, or the job's deadline + 1s when only a
  /// deadline is set), and a timeout or broken connection is retried up
  /// to max_request_retries times with exponential backoff, reconnecting
  /// first. Server-reported failures (RemoteError — including typed
  /// overloaded / deadline_exceeded) are never retried here: the server
  /// answered, and whether to try again is the caller's policy. After
  /// the retry budget is spent, the last TimeoutError/TransportError
  /// propagates.
  serve::FrameResult call(serve::FrameJob job);

  /// Requests submitted whose replies have not been read yet.
  std::size_t in_flight() const { return in_flight_; }

  // --- Streaming sessions (wire v3) ---------------------------------------
  //
  // A Client is either in request mode or stream mode per conversation:
  // open_stream() requires no pipelined requests outstanding, submit()
  // requires no streams open. Stream ids are client-assigned; results
  // arrive strictly in sequence order per stream. The credit window is
  // enforced here — send_stream_frame() blocks (reading replies into the
  // result buffer) while the stream has zero credits, so the client can
  // never overrun the server's flow-control window.

  /// Open a stream session with the server. Blocks for the server's
  /// verdict: returns the stream id on StreamOpened, throws RemoteError
  /// (typed overloaded for a capacity shed) on rejection.
  std::uint64_t open_stream(stream::StreamConfig config);

  /// Send frame `sequence` of an open stream, consuming one credit
  /// (blocking for credits first if none are left). The frame is sent
  /// from its own plane; move it in to send it without a copy. Throws
  /// RemoteError if the server terminated the stream (shed ->
  /// ErrorCode::overloaded, failed -> generic), or for a per-frame server
  /// rejection discovered while waiting — the stream itself survives
  /// those.
  void send_stream_frame(std::uint64_t stream_id, std::uint64_t sequence,
                         img::ImageF frame);

  /// Delivered frames already read off the socket while pumping.
  std::size_t buffered_stream_results() const {
    return stream_results_.size();
  }

  /// Next delivered frame, in per-stream sequence order, as decoded off
  /// the wire: pops the buffer, or blocks reading the socket until one
  /// arrives.
  wire::StreamResult next_stream_result();

  /// End a stream: sends StreamClose (unless the server already
  /// terminated the stream spontaneously), drains the tail into the
  /// result buffer, and returns the final per-stream counters.
  wire::StreamClosed close_stream(std::uint64_t stream_id);

  /// Flow-control credits currently held for an open stream.
  std::uint32_t stream_credits(std::uint64_t stream_id) const;

  /// Half-close: tell the server no more requests are coming. Replies to
  /// outstanding requests can still be read.
  void finish_requests();

  void close();

private:
  /// Client-side state of one stream session.
  struct StreamSession {
    bool opened = false; ///< StreamOpened received
    bool closed = false; ///< StreamClosed received (info below valid)
    std::uint32_t credits = 0;
    wire::StreamClosed closed_info;
  };

  /// Re-establish the connection (connect retry + configured timeouts)
  /// after close(); used by call()'s retry path.
  void reconnect();
  /// Read and dispatch ONE server-to-client stream message (result,
  /// credit, closed, or stream-scoped error — the last throws
  /// RemoteError after restoring the frame's credit).
  void pump_stream_message();
  void send_message(const wire::OutboundMessage& message, const char* what);

  ClientOptions options_;
  Socket socket_;
  std::uint64_t next_request_id_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t next_stream_id_ = 1;
  std::map<std::uint64_t, StreamSession> streams_;
  std::deque<wire::StreamResult> stream_results_;
};

} // namespace tmhls::transport
