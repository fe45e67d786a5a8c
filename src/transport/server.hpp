// transport::Server — the socket front of serve::ToneMapService. Accepts
// loopback TCP connections, reads framed FrameJob requests off each one,
// feeds them to the service's submit(), and writes each response back as
// its completion delivers it. This is the layer that turns the in-process serving
// API into a deployable network service, the way the paper's accelerator
// serves frames across the AXI/DMA boundary (PAPER.md §IV): a
// fixed-function core behind a thin framed transport, with the guarantee
// that serialization never changes bits.
//
// Threading: one accept thread, plus a reader and a writer thread per
// connection. The reader decodes requests and submits them (blocking on
// the per-connection in-flight window, then on the service's admission
// queue — backpressure propagates all the way to the client's socket via
// TCP flow control). Each job's completion, running on the shard worker
// that finished it, queues the reply on the connection's one FIFO reply
// queue and holds a reference to the connection until it has woken the
// writer; the writer drains that queue — completion order, not submission
// order; clients correlate via the echoed request_id. Stream replies join
// the same queue from the reader. Nothing polls: the writer sleeps on the
// queue's condition variable until a reply or end of input arrives.
//
// Error containment: an execution failure (unknown backend, incapable
// kernel) travels back as a wire error reply and the connection continues.
// A *protocol* violation (bad magic, checksum mismatch, truncated or
// oversized message) means the stream cannot be trusted: the connection is
// closed — and only the connection; the service and every other
// connection keep running.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "stream/session.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace tmhls::transport {

/// Configuration of a Server.
struct ServerOptions {
  /// TCP port to listen on (loopback interface only); 0 picks an
  /// ephemeral port, readable from Server::port().
  std::uint16_t port = 0;
  /// Options of the owned ToneMapService the transport fronts.
  serve::ToneMapServiceOptions service;
  /// Options of the owned stream::SessionManager behind the v3 streaming
  /// messages (max_streams is the server-wide stream capacity, shared by
  /// every connection). Stream frames run on the service above, under its
  /// pool and overload policy.
  stream::SessionManagerOptions sessions;
  /// Bound on decoded-but-unanswered requests per connection. The reader
  /// stops pulling new requests off the socket while the window is full,
  /// so a client that pipelines beyond it is throttled by TCP flow
  /// control rather than ballooning server memory. Must be >= 1.
  int max_in_flight_per_connection = 8;
  /// Bound on simultaneously served connections; a connection arriving
  /// beyond it is closed immediately. Must be >= 1.
  int max_connections = 64;
};

/// Validation: throws InvalidArgument naming the offending field unless
/// max_in_flight_per_connection >= 1 and max_connections >= 1 (the service
/// options are validated by the service itself).
void validate(const ServerOptions& options);

/// Lifetime counters of a Server (monotonic except connections_active).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  /// Requests decoded successfully and handed to the service.
  std::uint64_t requests_received = 0;
  /// Responses written back. Advanced before the bytes hit the socket —
  /// the service-counter convention — so a client that has observed a
  /// reply also observes it counted; a write the peer broke mid-message
  /// stays counted (the connection is closed right after).
  std::uint64_t responses_sent = 0;
  /// Per-request execution failures written back as wire error replies.
  /// Same advance-before-write convention as responses_sent.
  std::uint64_t errors_sent = 0;
  /// Requests admission control shed (serve::Overloaded), answered with
  /// ErrorCode::overloaded. Counted even when the peer is already gone
  /// and the reply cannot be written.
  std::uint64_t requests_shed = 0;
  /// Requests whose deadline passed server-side (serve::DeadlineExceeded),
  /// answered with ErrorCode::deadline_exceeded. Counted even when the
  /// reply cannot be written.
  std::uint64_t requests_expired = 0;
  /// Connections dropped for wire-protocol violations (bad magic,
  /// checksum mismatch, truncation, oversized fields).
  std::uint64_t protocol_errors = 0;
  /// Stream sessions opened over the wire (StreamOpen accepted).
  std::uint64_t streams_opened = 0;
  /// Stream sessions retired over the wire: client close, server-side
  /// shed/abort, and reader-exit reclamation alike. Once every connection
  /// is gone, streams_closed == streams_opened.
  std::uint64_t streams_closed = 0;
  /// StreamFrame messages decoded (whether delivered, shed or expired).
  std::uint64_t stream_frames_received = 0;
  /// StreamResult messages written back. Same advance-before-write
  /// convention as responses_sent.
  std::uint64_t stream_results_sent = 0;
};

/// Flatten into the common reporting form (scope "server").
common::StatsSnapshot snapshot(const ServerStats& stats);

/// The socket transport front. Construction binds, listens and starts
/// serving; stop() (or the destructor) drains cleanly: in-flight requests
/// complete and their responses are written before connections close.
class Server {
public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port actually bound (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }

  /// The fronted service (e.g. for ServiceStats alongside ServerStats).
  serve::ToneMapService& service() { return service_; }
  const serve::ToneMapService& service() const { return service_; }

  /// The owned stream session manager (e.g. for SessionManagerStats
  /// alongside the transport counters). A stream lives until its client
  /// closes it, the server sheds or fails it, or its connection drops.
  stream::SessionManager& sessions() { return sessions_; }
  const stream::SessionManager& sessions() const { return sessions_; }

  /// Snapshot of the transport-level counters.
  ServerStats stats() const;

  /// Stop accepting, stop reading new requests, finish every request
  /// already accepted (responses are written as their completions queue
  /// them), then close all connections and join all threads. Idempotent.
  void stop();

private:
  struct Reply;
  struct Connection;

  void accept_loop();
  void reader_loop(Connection& connection);
  void writer_loop(Connection& connection);
  void reap_finished_locked();

  /// Stream-message dispatch on the connection's reader thread, which
  /// waits for each deliverable frame's service job (a stream's frames are
  /// serialised per stream anyway, and the wait is itself the
  /// backpressure — the credit window bounds what a client can queue
  /// behind it). Replies go through the connection's reply queue so the
  /// socket keeps a single writing thread. WireError propagates to the
  /// caller (protocol violation).
  void handle_stream_open(Connection& connection,
                          std::span<const std::uint8_t> payload);
  void handle_stream_frame(Connection& connection, wire::StreamFrame frame);
  void handle_stream_close(Connection& connection,
                           std::span<const std::uint8_t> payload);
  /// Reader-exit reclamation: abort every stream the connection still
  /// owns (mid-stream disconnects must not pin stream slots).
  void abort_connection_streams(Connection& connection);
  /// Queue a reply for the connection's writer — the only way a reply
  /// reaches the socket. The vector form queues an encoded stream reply
  /// that answers no request.
  static void enqueue(Connection& connection, Reply reply);
  static void enqueue(Connection& connection,
                      std::vector<std::uint8_t> message);
  /// A typed error reply to request or stream `id`, counting a shed or
  /// an expiry.
  std::vector<std::uint8_t> error_reply(std::uint64_t id,
                                        const std::exception& e);
  /// Queue a request's error reply; the writer counts it in errors_sent.
  void enqueue_error(Connection& connection, std::uint64_t request_id,
                     const std::exception& e);
  /// Queue a stream-scoped error reply and count it in errors_sent.
  void enqueue_stream_error(Connection& connection, std::uint64_t stream_id,
                            const std::exception& e);
  /// Queue a stream's delivered frames as the session produced them, each
  /// carrying the client's `stream_id`.
  void enqueue_results(Connection& connection, std::uint64_t stream_id,
                       std::vector<wire::StreamResult>& results);

  ServerOptions options_;
  serve::ToneMapService service_;
  /// Declared after service_: destroyed first, so no stream outlives the
  /// service its frames run on.
  stream::SessionManager sessions_;
  ListenSocket listener_;
  std::uint16_t port_ = 0;

  mutable std::mutex connections_mutex_;
  /// Shared with the completions of the connection's in-flight requests.
  std::vector<std::shared_ptr<Connection>> connections_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_received_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> errors_sent_{0};
  std::atomic<std::uint64_t> requests_shed_{0};
  std::atomic<std::uint64_t> requests_expired_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> streams_opened_{0};
  std::atomic<std::uint64_t> streams_closed_{0};
  std::atomic<std::uint64_t> stream_frames_received_{0};
  std::atomic<std::uint64_t> stream_results_sent_{0};
};

} // namespace tmhls::transport
