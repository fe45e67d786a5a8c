#include "transport/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "transport/framing.hpp"

namespace tmhls::transport {

namespace {

using Clock = std::chrono::steady_clock;

Socket connect_with_retry(const ClientOptions& options) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options.connect_timeout_seconds));
  for (;;) {
    try {
      return Socket::connect(options.host, options.port);
    } catch (const TransportError&) {
      if (Clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

void apply_timeouts(Socket& socket, double seconds) {
  if (seconds > 0.0) {
    socket.set_send_timeout(seconds);
    socket.set_recv_timeout(seconds);
  }
}

/// What a read waits for, for the error a failed read throws.
struct Awaited {
  const char* outstanding; ///< what a server that hangs up leaves behind
  const char* reply;
};

constexpr Awaited kReply{"replies outstanding", "reply"};
constexpr Awaited kStreamReply{"streams open", "stream reply"};

void expect_read(ReadMessageStatus status, const Awaited& awaited) {
  switch (status) {
    case ReadMessageStatus::eof:
      throw TransportError(
          std::string("server closed the connection with ") +
          awaited.outstanding);
    case ReadMessageStatus::error:
      throw TransportError(std::string("connection lost while reading ") +
                           awaited.reply);
    case ReadMessageStatus::timeout:
      // The timeout may have split a message; the stream position is
      // unknown, so this connection is only good for closing.
      throw TimeoutError(std::string("receive timed out while waiting for ") +
                         awaited.reply);
    case ReadMessageStatus::ok: break;
  }
}

/// The payload of the message `header` announced. read_header and
/// read_payload throw WireError on protocol rot.
template <typename Message>
Message receive(Socket& socket, const wire::Header& header,
                const Awaited& awaited) {
  Message message;
  expect_read(read_payload(socket, header, message), awaited);
  return message;
}

} // namespace

Client::Client(const ClientOptions& options)
    : options_(options), socket_(connect_with_retry(options_)) {
  apply_timeouts(socket_, options_.request_timeout_seconds);
}

Client::Client(const std::string& host, std::uint16_t port)
    : Client(ClientOptions{host, port, 5.0}) {}

void Client::reconnect() {
  socket_ = connect_with_retry(options_);
  apply_timeouts(socket_, options_.request_timeout_seconds);
}

void Client::send_message(const wire::OutboundMessage& message,
                          const char* what) {
  switch (socket_.send_all(message.pieces())) {
    case SendStatus::timeout:
      throw TimeoutError(std::string("send timed out while writing ") +
                         what);
    case SendStatus::error:
      throw TransportError(std::string("connection lost while sending ") +
                           what);
    case SendStatus::ok: break;
  }
}

std::uint64_t Client::submit(serve::FrameJob job) {
  TMHLS_REQUIRE(socket_.valid(), "Client::submit on a closed client");
  TMHLS_REQUIRE(streams_.empty(), "Client::submit while streams are open");
  wire::Request request;
  request.request_id = next_request_id_++;
  request.job = std::move(job);
  // encode validates the job against the wire bounds (non-empty frame,
  // dimensions, deadline) before anything crosses the socket; the samples
  // go out from the job's frame.
  send_message(wire::encode(request), "request");
  ++in_flight_;
  return request.request_id;
}

wire::Response Client::next_result() {
  TMHLS_REQUIRE(in_flight_ > 0,
                "Client::next_result with no outstanding requests");
  TMHLS_REQUIRE(socket_.valid(), "Client::next_result on a closed client");
  wire::Header header;
  expect_read(read_header(socket_, header), kReply);
  if (header.type == wire::MessageType::response) {
    wire::Response response = receive<wire::Response>(socket_, header, kReply);
    --in_flight_;
    return response;
  }
  if (header.type != wire::MessageType::error) {
    throw WireError("wire: server sent a request message");
  }
  const auto reply = receive<wire::ErrorReply>(socket_, header, kReply);
  --in_flight_;
  throw RemoteError(reply.request_id, reply.message, reply.code);
}

serve::FrameResult Client::call(serve::FrameJob job) {
  TMHLS_REQUIRE(in_flight_ == 0,
                "Client::call with pipelined requests outstanding");
  const int attempts = 1 + std::max(0, options_.max_request_retries);
  // A deadlined job gets a socket bound even when none was configured:
  // the deadline plus a second of wire slack — a server that cannot
  // answer a deadlined request within its deadline has effectively hung.
  const double timeout =
      options_.request_timeout_seconds > 0.0
          ? options_.request_timeout_seconds
          : (job.deadline_seconds ? *job.deadline_seconds + 1.0 : 0.0);
  double backoff = options_.retry_backoff_seconds;
  for (int attempt = 0;; ++attempt) {
    const bool last = attempt + 1 >= attempts;
    try {
      if (!socket_.valid()) reconnect();
      apply_timeouts(socket_, timeout);
      // Keep the job for further attempts unless this is the last one.
      serve::FrameJob this_attempt;
      if (last) {
        this_attempt = std::move(job);
      } else {
        this_attempt = job;
      }
      submit(std::move(this_attempt));
      return next_result().result;
    } catch (const RemoteError&) {
      // The server answered (including typed overloaded /
      // deadline_exceeded): retrying blindly would just add load.
      throw;
    } catch (const WireError&) {
      // Protocol rot is a bug, not weather; surface it, don't retry.
      close();
      in_flight_ = 0;
      throw;
    } catch (const TransportError&) {
      // TimeoutError lands here too (it is-a TransportError): after a
      // timeout the stream position is unknown, so every retry starts
      // from a fresh connection.
      close();
      in_flight_ = 0;
      if (last) throw;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2.0;
    }
  }
}

void Client::pump_stream_message() {
  TMHLS_REQUIRE(socket_.valid(),
                "Client stream operation on a closed client");
  wire::Header header;
  expect_read(read_header(socket_, header), kStreamReply);
  switch (header.type) {
    case wire::MessageType::stream_opened: {
      const auto opened =
          receive<wire::StreamOpened>(socket_, header, kStreamReply);
      const auto it = streams_.find(opened.stream_id);
      if (it == streams_.end()) {
        throw WireError("wire: server opened an unknown stream");
      }
      it->second.opened = true;
      it->second.credits = opened.credits;
      return;
    }
    case wire::MessageType::stream_result: {
      auto result = receive<wire::StreamResult>(socket_, header, kStreamReply);
      const auto it = streams_.find(result.stream_id);
      if (it == streams_.end()) {
        throw WireError("wire: server sent a result for an unknown stream");
      }
      // A delivery implicitly returns the frame's credit.
      if (!it->second.closed) ++it->second.credits;
      stream_results_.push_back(std::move(result));
      return;
    }
    case wire::MessageType::stream_credit: {
      const auto credit =
          receive<wire::StreamCredit>(socket_, header, kStreamReply);
      const auto it = streams_.find(credit.stream_id);
      if (it == streams_.end()) {
        throw WireError("wire: server sent credit for an unknown stream");
      }
      if (!it->second.closed) it->second.credits += credit.credits;
      return;
    }
    case wire::MessageType::stream_closed: {
      auto closed = receive<wire::StreamClosed>(socket_, header, kStreamReply);
      const auto it = streams_.find(closed.stream_id);
      if (it == streams_.end()) {
        throw WireError("wire: server closed an unknown stream");
      }
      it->second.closed = true;
      it->second.closed_info = std::move(closed);
      return;
    }
    case wire::MessageType::error: {
      const auto reply =
          receive<wire::ErrorReply>(socket_, header, kStreamReply);
      // A stream-scoped per-frame rejection (window exhausted, malformed
      // frame): the frame never entered the stream server-side, so its
      // credit comes back here. The stream itself survives.
      const auto it = streams_.find(reply.request_id);
      if (it != streams_.end() && it->second.opened && !it->second.closed) {
        ++it->second.credits;
      }
      throw RemoteError(reply.request_id, reply.message, reply.code);
    }
    default:
      throw WireError("wire: server sent an unexpected message type "
                      "during streaming");
  }
}

std::uint64_t Client::open_stream(stream::StreamConfig config) {
  TMHLS_REQUIRE(socket_.valid(), "Client::open_stream on a closed client");
  TMHLS_REQUIRE(in_flight_ == 0,
                "Client::open_stream with pipelined requests outstanding");
  const std::uint64_t id = next_stream_id_++;
  wire::StreamOpen open;
  open.stream_id = id;
  open.config = std::move(config);
  // encode validates the config against the wire bounds before anything
  // crosses the socket.
  const wire::OutboundMessage message = wire::encode(open);
  streams_.emplace(id, StreamSession{});
  try {
    send_message(message, "stream open");
    while (!streams_.at(id).opened) pump_stream_message();
  } catch (...) {
    streams_.erase(id);
    throw;
  }
  return id;
}

void Client::send_stream_frame(std::uint64_t stream_id,
                               std::uint64_t sequence,
                               img::ImageF frame) {
  const auto it = streams_.find(stream_id);
  TMHLS_REQUIRE(it != streams_.end() && it->second.opened,
                "Client::send_stream_frame on an unknown stream");
  // Enforce the flow-control window client-side: block reading replies
  // (which buffer into stream_results_) until a credit frees up.
  while (!it->second.closed && it->second.credits == 0) {
    pump_stream_message();
  }
  if (it->second.closed) {
    const wire::StreamClosed& info = it->second.closed_info;
    const wire::ErrorCode code =
        info.status == wire::StreamStatus::shed ? wire::ErrorCode::overloaded
                                                : wire::ErrorCode::generic;
    throw RemoteError(stream_id,
                      info.status == wire::StreamStatus::shed
                          ? "stream shed by the server's rate controller"
                          : "stream terminated by the server: " +
                                info.message,
                      code);
  }
  wire::StreamFrame message;
  message.stream_id = stream_id;
  message.sequence = sequence;
  message.frame = std::move(frame);
  send_message(wire::encode(message), "stream frame");
  --it->second.credits;
}

wire::StreamResult Client::next_stream_result() {
  while (stream_results_.empty()) pump_stream_message();
  wire::StreamResult out = std::move(stream_results_.front());
  stream_results_.pop_front();
  return out;
}

wire::StreamClosed Client::close_stream(std::uint64_t stream_id) {
  const auto it = streams_.find(stream_id);
  TMHLS_REQUIRE(it != streams_.end() && it->second.opened,
                "Client::close_stream on an unknown stream");
  if (!it->second.closed) {
    wire::StreamClose close;
    close.stream_id = stream_id;
    send_message(wire::encode(close), "stream close");
    while (!it->second.closed) pump_stream_message();
  }
  wire::StreamClosed info = std::move(it->second.closed_info);
  streams_.erase(it);
  return info;
}

std::uint32_t Client::stream_credits(std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  TMHLS_REQUIRE(it != streams_.end() && it->second.opened,
                "Client::stream_credits on an unknown stream");
  return it->second.credits;
}

void Client::finish_requests() { socket_.shutdown_write(); }

void Client::close() { socket_.close(); }

} // namespace tmhls::transport
