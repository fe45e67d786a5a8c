#include "transport/framing.hpp"

#include <array>

namespace tmhls::transport {

ReadMessageStatus read_header(Socket& socket, wire::Header& header) {
  std::array<std::uint8_t, wire::kHeaderBytes> head{};
  switch (socket.recv_all(head)) {
    case ReadStatus::eof: return ReadMessageStatus::eof;
    case ReadStatus::error: return ReadMessageStatus::error;
    case ReadStatus::timeout: return ReadMessageStatus::timeout;
    case ReadStatus::ok: break;
  }
  // Throws WireError on malformed headers; the payload size is bounded by
  // kMaxPayloadBytes before anything is allocated.
  header = wire::decode_header(head);
  return ReadMessageStatus::ok;
}

ReadMessageStatus read_payload(Socket& socket, const wire::Header& header,
                               Payload& payload) {
  payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0) {
    switch (socket.recv_all(payload)) {
      case ReadStatus::ok: break;
      case ReadStatus::timeout: return ReadMessageStatus::timeout;
      default: return ReadMessageStatus::error; // EOF mid-message included
    }
  }
  wire::verify_checksum(header, payload); // throws WireError
  return ReadMessageStatus::ok;
}

ReadMessageStatus read_message(Socket& socket, InboundMessage& message) {
  const ReadMessageStatus status = read_header(socket, message.header);
  if (status != ReadMessageStatus::ok) return status;
  return read_payload(socket, message.header, message.payload);
}

} // namespace tmhls::transport
