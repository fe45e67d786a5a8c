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

ReadMessageStatus read_message(Socket& socket, InboundMessage& message) {
  const ReadMessageStatus status = read_header(socket, message.header);
  if (status != ReadMessageStatus::ok) return status;
  message.payload.resize(message.header.payload_bytes);
  switch (socket.recv_all(message.payload)) {
    case ReadStatus::ok: break;
    case ReadStatus::timeout: return ReadMessageStatus::timeout;
    default: return ReadMessageStatus::error; // EOF mid-message included
  }
  wire::verify_checksum(message.header, message.payload); // throws WireError
  return ReadMessageStatus::ok;
}

} // namespace tmhls::transport
