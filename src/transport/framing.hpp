// Message-level I/O shared by transport::Server and transport::Client:
// read one framed message (header, then its typed, checksum-verified
// payload) off a stream socket, an image message's samples straight into a
// plane. Writing needs no helper: Socket::send_all writes an encoded
// message's pieces (wire::OutboundMessage) with one gather write.
#pragma once

#include <cstdint>
#include <vector>

#include "common/default_init_allocator.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace tmhls::transport {

/// A payload buffer: sized without a fill, then received into.
using Payload = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

/// One complete inbound message as read_message returns it: the validated
/// header and its checksum-verified payload bytes, not yet decoded.
struct InboundMessage {
  wire::Header header;
  Payload payload;
};

/// Outcome of read_header, read_payload and read_message.
enum class ReadMessageStatus {
  ok,      ///< `message` holds a validated header + verified payload
  eof,     ///< clean end of stream at a message boundary
  error,   ///< connection broke mid-message
  timeout, ///< the socket's receive timeout elapsed; the stream position
           ///< is unknown, so the connection is only good for closing
};

/// Read one header. Throws WireError when the bytes violate the protocol
/// (bad magic/version/type, oversized payload) — the stream is
/// unsynchronised and the caller must close it.
ReadMessageStatus read_header(Socket& socket, wire::Header& header);

/// Receive the payload of a message whose header was read, of the type the
/// header names, straight into `message` (wire::receive_payload; an image
/// message's samples into a plane). Throws WireError when the bytes violate
/// the protocol. End of stream here is mid-message: error, never eof.
template <typename Message>
ReadMessageStatus read_payload(Socket& socket, const wire::Header& header,
                               Message& message) {
  ReadStatus status = ReadStatus::ok;
  const auto from_socket = [&](std::span<std::uint8_t> bytes) {
    status = socket.recv_all(bytes);
    return status == ReadStatus::ok;
  };
  if (wire::receive_payload(header, from_socket, message)) {
    return ReadMessageStatus::ok;
  }
  return status == ReadStatus::timeout ? ReadMessageStatus::timeout
                                       : ReadMessageStatus::error;
}

/// Read exactly one message, its payload as checksum-verified bytes, for
/// perfbench/runner.cpp's stream client, which decodes after the read.
ReadMessageStatus read_message(Socket& socket, InboundMessage& message);

} // namespace tmhls::transport
