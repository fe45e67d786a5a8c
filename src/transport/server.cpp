#include "transport/server.hpp"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "image/plane_pool.hpp"
#include "transport/framing.hpp"

namespace tmhls::transport {

void validate(const ServerOptions& options) {
  TMHLS_REQUIRE(options.max_in_flight_per_connection >= 1,
                "ServerOptions::max_in_flight_per_connection must be >= 1, "
                "got " +
                    std::to_string(options.max_in_flight_per_connection));
  TMHLS_REQUIRE(options.max_connections >= 1,
                "ServerOptions::max_connections must be >= 1, got " +
                    std::to_string(options.max_connections));
}

/// One reply, queued the moment it is ready: request replies in
/// completion order, stream replies in the order the reader produced them
/// (in-order delivery is part of the stream contract).
struct Server::Reply {
  /// A request's finished frame or a delivered stream frame, encoded by
  /// the writer (off the shard worker) and sent from its plane; otherwise
  /// the encoded message, an error reply or a small stream reply.
  std::variant<wire::Response, wire::StreamResult, std::vector<std::uint8_t>>
      body;
  /// Request replies: the counter the writer advances right before the
  /// write; taking one off the queue frees a window slot. Null for stream
  /// replies, which the reader counted when it queued them.
  std::atomic<std::uint64_t>* counter = nullptr;
};

/// One served connection: the socket, the reply queue the writer drains
/// (shared between the reader, the writer and the service's completions,
/// guarded by `mutex`), and the two threads themselves. Each request's
/// completion holds a reference, so the connection outlives the last
/// completion that touches it even after the reaper has dropped it.
struct Server::Connection : std::enable_shared_from_this<Connection> {
  Socket socket;
  std::mutex mutex;
  std::condition_variable window_open; ///< reader waits for a window slot
  std::condition_variable reply_ready; ///< writer waits for a reply / eof
  std::deque<Reply> replies;
  /// Requests admitted whose reply the writer has not yet taken off
  /// `replies` — the in-flight window.
  std::size_t in_flight = 0;
  /// Client-assigned stream id -> SessionManager stream id for every
  /// stream this connection owns. Reader-thread only — no lock.
  std::map<std::uint64_t, std::uint64_t> stream_ids;
  bool reader_done = false; ///< no further requests will be admitted
  std::atomic<bool> reader_exited{false};
  std::atomic<bool> writer_exited{false};
  std::thread reader;
  std::thread writer;

  bool finished() const {
    return reader_exited.load(std::memory_order_acquire) &&
           writer_exited.load(std::memory_order_acquire);
  }
};

namespace {

/// Options pass validation before any resource (service threads, bound
/// port) is acquired in the member-initialiser list.
ServerOptions checked(ServerOptions options) {
  validate(options);
  serve::validate(options.service);
  return options;
}

/// Map a server-side failure onto the typed wire code, so a remote client
/// sees the same category a co-located caller's exception type carries.
wire::ErrorCode classify(const std::exception& e) {
  if (dynamic_cast<const serve::Overloaded*>(&e) != nullptr) {
    return wire::ErrorCode::overloaded;
  }
  if (dynamic_cast<const serve::DeadlineExceeded*>(&e) != nullptr) {
    return wire::ErrorCode::deadline_exceeded;
  }
  if (dynamic_cast<const InvalidArgument*>(&e) != nullptr) {
    return wire::ErrorCode::invalid_argument;
  }
  return wire::ErrorCode::generic;
}

/// A queued reply as the writer sends it (see Server::Reply).
wire::OutboundMessage outbound(const wire::Response& response) {
  return wire::encode_parts(response);
}
wire::OutboundMessage outbound(const wire::StreamResult& result) {
  return wire::encode_parts(result);
}
wire::OutboundMessage outbound(std::vector<std::uint8_t>& message) {
  return {std::move(message), {}};
}

/// A stream's terminal message, carrying its final counters.
std::vector<std::uint8_t> stream_closed(std::uint64_t stream_id,
                                        wire::StreamStatus status,
                                        const stream::StreamStats& stats,
                                        const std::string& message = "") {
  return wire::encode_stream_closed(
      {stream_id, status, stats.frames_delivered, stats.frames_shed,
       stats.frames_expired, static_cast<std::uint32_t>(stats.rung_switches),
       message});
}

} // namespace

Server::Server(ServerOptions options)
    : options_(checked(std::move(options))), service_(options_.service),
      sessions_(service_, options_.sessions), listener_(options_.port) {
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.requests_received = requests_received_.load();
  s.responses_sent = responses_sent_.load();
  s.errors_sent = errors_sent_.load();
  s.requests_shed = requests_shed_.load();
  s.requests_expired = requests_expired_.load();
  s.protocol_errors = protocol_errors_.load();
  s.streams_opened = streams_opened_.load();
  s.streams_closed = streams_closed_.load();
  s.stream_frames_received = stream_frames_received_.load();
  s.stream_results_sent = stream_results_sent_.load();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (!connection->finished()) ++s.connections_active;
    }
  }
  return s;
}

void Server::stop() {
  stopping_.store(true);
  // Wake the accept thread, join it, and only then close the listener fd
  // — closing while accept() still reads it would be a data race.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  // Clean drain: stop reading new requests; readers observe EOF and
  // retire, writers flush every reply already in the window, then exit.
  for (auto& connection : connections_) connection->socket.shutdown_read();
  for (auto& connection : connections_) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
  connections_.clear();
}

void Server::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      if ((*it)->writer.joinable()) (*it)->writer.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  for (;;) {
    Socket socket = listener_.accept();
    if (!socket.valid() || stopping_.load()) return;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      continue; // over capacity: the socket closes as it goes out of scope
    }
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(socket);
    Connection& c = *connection;
    connections_.push_back(std::move(connection));
    try {
      // Writer first: it only waits for replies, so if the reader cannot
      // be spawned no job was submitted and no completion can reach `c`.
      c.writer = std::thread([this, &c] { writer_loop(c); });
      // Fault site "transport.server.spawn": a fault here stands in for a
      // reader that fails to spawn.
      fault::inject("transport.server.spawn");
      c.reader = std::thread([this, &c] { reader_loop(c); });
    } catch (...) {
      // Thread spawn failure: tear this connection down, keep serving.
      // The reader never started, so nothing is in flight and the writer
      // exits as soon as it sees reader_done.
      c.socket.shutdown_both();
      {
        std::lock_guard<std::mutex> state_lock(c.mutex);
        c.reader_done = true;
      }
      c.reply_ready.notify_all();
      if (c.writer.joinable()) c.writer.join();
      connections_.pop_back();
      continue;
    }
    connections_accepted_.fetch_add(1);
  }
}

void Server::reader_loop(Connection& c) {
  // Request and stream-frame samples are received straight into
  // service-pool planes: the plane is acquired on this thread, so
  // installing the scope here removes the per-frame allocation once the
  // pool is warm.
  const img::PlanePool::Scope pool_scope(service_.plane_pool());
  for (;;) {
    wire::Header header;
    wire::Request request;
    ReadMessageStatus status;
    try {
      status = read_header(c.socket, header);
      if (status == ReadMessageStatus::ok) {
        // Stream messages (v3) are dispatched right here; see the
        // handle_stream_* declarations for why that is the right thread.
        switch (header.type) {
          case wire::MessageType::request:
            status = read_payload(c.socket, header, request);
            break;
          case wire::MessageType::stream_frame: {
            wire::StreamFrame frame;
            status = read_payload(c.socket, header, frame);
            if (status == ReadMessageStatus::ok) {
              handle_stream_frame(c, std::move(frame));
            }
            break;
          }
          case wire::MessageType::stream_open:
          case wire::MessageType::stream_close: {
            Payload payload;
            status = read_payload(c.socket, header, payload);
            if (status != ReadMessageStatus::ok) break;
            if (header.type == wire::MessageType::stream_open) {
              handle_stream_open(c, payload);
            } else {
              handle_stream_close(c, payload);
            }
            break;
          }
          default:
            throw WireError("wire: client sent a server-to-client message");
        }
      }
    } catch (const WireError&) {
      // The stream is unsynchronised (bad magic/version, oversized or
      // checksum-failing payload, malformed fields): this connection
      // cannot be trusted. Cut it — the service and every other
      // connection keep running.
      protocol_errors_.fetch_add(1);
      c.socket.shutdown_both();
      break;
    }
    if (status == ReadMessageStatus::eof) break; // client finished cleanly
    if (status != ReadMessageStatus::ok) {
      // error, or timeout if a read bound was ever set on this socket:
      // either way the stream position is unknown.
      protocol_errors_.fetch_add(1);
      break;
    }
    if (header.type != wire::MessageType::request) continue;
    requests_received_.fetch_add(1);

    // Bounded in-flight window: while it is full the reader stops pulling
    // bytes off the socket, so over-pipelining clients are throttled by
    // TCP flow control instead of server memory.
    {
      std::unique_lock<std::mutex> lock(c.mutex);
      c.window_open.wait(lock, [this, &c] {
        return c.in_flight <
               static_cast<std::size_t>(options_.max_in_flight_per_connection);
      });
      ++c.in_flight;
    }

    const std::uint64_t request_id = request.request_id;
    try {
      // May block on the service's admission queue (critical/standard) —
      // more backpressure, same propagation path. Best-effort jobs are
      // shed with Overloaded instead of blocking here.
      service_.submit(
          std::move(request.job),
          [this, conn = c.shared_from_this(),
           request_id](serve::Outcome outcome) {
            if (auto* result = std::get_if<serve::FrameResult>(&outcome)) {
              enqueue(*conn, {wire::Response{request_id, std::move(*result)},
                              &responses_sent_});
              return;
            }
            // DeadlineExceeded travels this path (dequeue / before-engine
            // expiry is discovered by the shard worker, after admission).
            try {
              std::rethrow_exception(std::get<std::exception_ptr>(outcome));
            } catch (const std::exception& e) {
              enqueue_error(*conn, request_id, e);
            }
          });
    } catch (const std::exception& e) {
      // Submit-time rejection (structural, or typed admission shed):
      // answered like any other per-request failure with its typed code;
      // the connection continues.
      enqueue_error(c, request_id, e);
    }
  }
  // Mid-stream disconnect (EOF, protocol violation, broken read alike):
  // reclaim every stream this connection still owns so half-finished
  // producers cannot pin stream slots. Undelivered frames count shed.
  abort_connection_streams(c);
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.reader_done = true;
  }
  c.reply_ready.notify_one();
  c.reader_exited.store(true, std::memory_order_release);
}

void Server::enqueue(Connection& c, Reply reply) {
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    c.replies.push_back(std::move(reply));
  }
  // Notify after the unlock: a writer woken under the lock can preempt
  // this thread only to block on the mutex it still holds, and then wait
  // for a free CPU a second time. The writer may already have exited here;
  // `c` stays alive all the same: a completion holds a reference, and the
  // reader is joined before its connection is dropped.
  c.reply_ready.notify_one();
}

void Server::enqueue(Connection& c, std::vector<std::uint8_t> message) {
  enqueue(c, Reply{std::move(message), nullptr});
}

std::vector<std::uint8_t> Server::error_reply(std::uint64_t id,
                                              const std::exception& e) {
  // The shed/expired counters advance even when the peer is gone and the
  // reply is never written.
  const wire::ErrorCode code = classify(e);
  if (code == wire::ErrorCode::overloaded) requests_shed_.fetch_add(1);
  if (code == wire::ErrorCode::deadline_exceeded) {
    requests_expired_.fetch_add(1);
  }
  return wire::encode_error({id, code, e.what()});
}

void Server::enqueue_error(Connection& c, std::uint64_t request_id,
                           const std::exception& e) {
  enqueue(c, {error_reply(request_id, e), &errors_sent_});
}

void Server::enqueue_stream_error(Connection& c, std::uint64_t stream_id,
                                  const std::exception& e) {
  errors_sent_.fetch_add(1);
  enqueue(c, error_reply(stream_id, e));
}

void Server::enqueue_results(Connection& c, std::uint64_t stream_id,
                             std::vector<wire::StreamResult>& results) {
  for (wire::StreamResult& result : results) {
    result.stream_id = stream_id; // the client's id, not the session's
    stream_results_sent_.fetch_add(1);
    enqueue(c, Reply{std::move(result), nullptr});
  }
}

void Server::handle_stream_open(Connection& c,
                                std::span<const std::uint8_t> payload) {
  const wire::StreamOpen open = wire::decode_stream_open(payload);
  if (c.stream_ids.count(open.stream_id) != 0) {
    throw WireError("wire: stream id " + std::to_string(open.stream_id) +
                    " is already open on this connection");
  }
  try {
    const std::uint64_t local = sessions_.open(open.config);
    c.stream_ids.emplace(open.stream_id, local);
    streams_opened_.fetch_add(1);
    enqueue(c, wire::encode_stream_opened(
                   {open.stream_id,
                    static_cast<std::uint32_t>(open.config.credits)}));
  } catch (const std::exception& e) {
    // Rejected open (capacity shed, malformed config): an error reply
    // carrying the stream id in request_id; the connection continues.
    enqueue_stream_error(c, open.stream_id, e);
  }
}

void Server::handle_stream_frame(Connection& c, wire::StreamFrame frame) {
  stream_frames_received_.fetch_add(1);
  const auto it = c.stream_ids.find(frame.stream_id);
  if (it == c.stream_ids.end()) {
    enqueue_stream_error(
        c, frame.stream_id,
        InvalidArgument("transport: frame for unknown stream"));
    return;
  }
  try {
    stream::SubmitOutcome out =
        sessions_.submit_frame(it->second, frame.sequence,
                               std::move(frame.frame));
    enqueue_results(c, frame.stream_id, out.results);
    if (out.credits_released > 0) {
      enqueue(c,
              wire::encode_stream_credit({frame.stream_id,
                                          out.credits_released}));
    }
    if (out.stream_shed) {
      // The rate controller shed the whole stream (best_effort overload):
      // finalize it and tell the client spontaneously.
      const stream::CloseResult done = sessions_.close(it->second);
      c.stream_ids.erase(it);
      streams_closed_.fetch_add(1);
      enqueue(c, stream_closed(frame.stream_id, wire::StreamStatus::shed,
                               done.stats));
    }
  } catch (const serve::Overloaded& e) {
    // Flow-control window exhausted: per-frame rejection, stream survives.
    enqueue_stream_error(c, frame.stream_id, e);
  } catch (const InvalidArgument& e) {
    // Malformed frame (geometry mismatch, dark frame): per-frame
    // rejection, stream survives.
    enqueue_stream_error(c, frame.stream_id, e);
  } catch (const std::exception& e) {
    // Processing itself failed: the stream's pipeline state is suspect —
    // abort it as a unit and report the failure terminally.
    const stream::StreamStats st = sessions_.abort(it->second);
    c.stream_ids.erase(it);
    streams_closed_.fetch_add(1);
    enqueue(c, stream_closed(frame.stream_id, wire::StreamStatus::failed, st,
                             e.what()));
  }
}

void Server::handle_stream_close(Connection& c,
                                 std::span<const std::uint8_t> payload) {
  const wire::StreamClose close = wire::decode_stream_close(payload);
  const auto it = c.stream_ids.find(close.stream_id);
  if (it == c.stream_ids.end()) {
    enqueue_stream_error(
        c, close.stream_id,
        InvalidArgument("transport: close for unknown stream"));
    return;
  }
  const std::uint64_t local = it->second;
  c.stream_ids.erase(it);
  streams_closed_.fetch_add(1);
  try {
    stream::CloseResult done = sessions_.close(local);
    enqueue_results(c, close.stream_id, done.results);
    enqueue(c, stream_closed(close.stream_id,
                             done.stats.state == stream::StreamState::shed
                                 ? wire::StreamStatus::shed
                                 : wire::StreamStatus::closed,
                             done.stats));
  } catch (const std::exception& e) {
    // close() absorbs processing failures internally; this is the
    // defensive net for anything else (the stream is already retired).
    enqueue(c, stream_closed(close.stream_id, wire::StreamStatus::failed, {},
                             e.what()));
  }
}

void Server::abort_connection_streams(Connection& c) {
  for (const auto& [remote, local] : c.stream_ids) {
    streams_closed_.fetch_add(1); // gone either way — keep opened==closed
    try {
      sessions_.abort(local);
    } catch (const std::exception&) {
      // Already retired through sessions(): nothing to do.
    }
  }
  c.stream_ids.clear();
}

void Server::writer_loop(Connection& c) {
  bool peer_gone = false; // after a failed write: drain, skip writes
  for (;;) {
    std::unique_lock<std::mutex> lock(c.mutex);
    c.reply_ready.wait(lock, [&c] {
      return !c.replies.empty() || (c.reader_done && c.in_flight == 0);
    });
    if (c.replies.empty()) break; // reader done, every request answered
    Reply reply = std::move(c.replies.front());
    c.replies.pop_front();
    const bool answers_request = reply.counter != nullptr;
    if (answers_request) --c.in_flight;
    lock.unlock();
    if (answers_request) c.window_open.notify_one();
    // A gone peer still drains: every accepted job completes (the service
    // guarantees it), and the window keeps counting it until then.
    if (peer_gone) continue;
    // Count before writing (the service-counter convention): the client
    // can observe the reply the instant the last byte reaches the socket
    // buffer, possibly before this thread runs again — counting after the
    // write would let a stats() reader see the reply but not the count.
    if (reply.counter != nullptr) reply.counter->fetch_add(1);
    const wire::OutboundMessage message = std::visit(
        [](auto& body) { return outbound(body); }, reply.body);
    // error and timeout alike: the peer is not draining this stream.
    peer_gone = c.socket.send_all(message.pieces()) != SendStatus::ok;
  }
  c.socket.shutdown_both();
  c.writer_exited.store(true, std::memory_order_release);
}

common::StatsSnapshot snapshot(const ServerStats& stats) {
  common::StatsSnapshot out;
  out.scope = "server";
  out.counter("connections_accepted", stats.connections_accepted);
  out.counter("connections_active", stats.connections_active);
  out.counter("requests_received", stats.requests_received);
  out.counter("responses_sent", stats.responses_sent);
  out.counter("errors_sent", stats.errors_sent);
  out.counter("requests_shed", stats.requests_shed);
  out.counter("requests_expired", stats.requests_expired);
  out.counter("protocol_errors", stats.protocol_errors);
  out.counter("streams_opened", stats.streams_opened);
  out.counter("streams_closed", stats.streams_closed);
  out.counter("stream_frames_received", stats.stream_frames_received);
  out.counter("stream_results_sent", stats.stream_results_sent);
  return out;
}

} // namespace tmhls::transport
