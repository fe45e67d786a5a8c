// transport::wire — the length-prefixed binary frame protocol that carries
// FrameJobs to a remote ToneMapService and FrameResults back. This is the
// host-side twin of the paper's AXI/DMA boundary (§IV): the tone-mapper is
// a fixed-function core behind a thin framed transport, and the bits that
// cross the boundary are defined here, independently of either endpoint.
//
// Every message is one header (16 bytes) followed by one payload:
//
//   offset  size  field
//   0       4     magic "TMHW" (raw bytes, not an integer)
//   4       2     protocol version (u16 LE; this header describes v6,
//                 kVersion — see its comment for what each version added)
//   6       2     message type (u16 LE: 1 request, 2 response, 3 error)
//   8       4     payload size in bytes (u32 LE, bounded by kMaxPayloadBytes)
//   12      4     CRC32C (Castagnoli) of the payload bytes (u32 LE)
//
// All multi-byte integers are little-endian **on the wire regardless of
// host endianness** — encoders assemble bytes explicitly, decoders
// reassemble them explicitly, so two hosts of different endianness agree
// on every bit. Floats travel as the LE byte order of their IEEE-754 bit
// pattern, which is what makes the transport bit-transparent: the frame
// samples a client sends are the exact samples the service blurs, NaN
// payloads included.
//
// Decoders are defensive: any structural violation (bad magic, unknown
// version or enum code, truncated payload, oversized dimensions, checksum
// mismatch) throws WireError and never allocates more than the declared —
// and bounded — payload size. A server treats WireError as "this stream
// cannot be trusted" and closes the connection; execution errors, by
// contrast, travel *inside* the protocol as error messages.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/service.hpp"
#include "stream/session.hpp"

namespace tmhls::transport {

/// Malformed or unsafe wire data (bad magic, truncation, checksum
/// mismatch, out-of-range field). Distinct from execution errors, which
/// travel inside the protocol as MessageType::error replies.
class WireError : public Error {
public:
  explicit WireError(const std::string& what) : Error(what) {}
};

namespace wire {

/// Protocol version this implementation speaks. A decoder rejects every
/// other version — there is exactly one wire format per build, so the
/// version field is a compatibility tripwire, not a negotiation.
/// History: v1 shipped the original request/response/error payloads; v2
/// added FrameJob::qos (u8) + FrameJob::deadline_seconds (f64) to
/// requests, FrameResult::degrade (u8) to responses, and ErrorCode (u8)
/// to error replies. v3 made the request deadline explicit (flag u8 +
/// f64, replacing the 0.0-means-none overload) and added the streaming
/// session messages (StreamOpen/StreamFrame/StreamClose client->server;
/// StreamOpened/StreamResult/StreamCredit/StreamClosed server->client)
/// with credit-based per-stream flow control. v4 retired the deprecated
/// BlurKind alias: PipelineOptions no longer carries the blur byte (the
/// backend string + datapath byte are the complete execution selection);
/// Datapath code 0 was renamed from_blur_kind -> unspecified with the
/// same "follow the backend" meaning. v5 dropped the request's
/// blur-shard count (u32) and the stream open's pipeline depth (u32):
/// every frame runs synchronously through one engine, and its band count
/// is PipelineOptions::threads. v6 replaced the FNV-1a header checksum
/// with CRC32C; every payload byte is unchanged.
inline constexpr std::uint16_t kVersion = 6;

/// First four payload-independent bytes of every message.
inline constexpr std::array<std::uint8_t, 4> kMagic{'T', 'M', 'H', 'W'};

/// Fixed size of the message header in bytes.
inline constexpr std::size_t kHeaderBytes = 16;

/// Per-axis bound on frame dimensions crossing the wire. Frames larger
/// than this belong to the in-process API, not to a serialized hop.
inline constexpr int kMaxDimension = 4096;

/// Upper bound a decoder accepts for one payload: the worst-case frame
/// within kMaxDimension (4096 x 4096 x 4 channels x 4 bytes = 256 MiB of
/// samples) plus 8 KiB of headroom for ids, options and the
/// length-prefixed strings (kMaxStringBytes) — so every frame the
/// dimension bound admits is encodable, and nothing an attacker declares
/// can exceed it. Far below "asks us to allocate the machine": a decoder
/// additionally verifies the bytes are actually present before
/// allocating.
inline constexpr std::uint32_t kMaxPayloadBytes =
    256u * 1024u * 1024u + 8u * 1024u;

/// Bound on string fields (backend names, error messages).
inline constexpr std::uint32_t kMaxStringBytes = 4096;

enum class MessageType : std::uint16_t {
  request = 1,  ///< client -> server: one FrameJob
  response = 2, ///< server -> client: one FrameResult
  error = 3,    ///< server -> client: execution failure of one request
  // Streaming session messages (v3). The error type doubles as the
  // failure reply for stream_open/stream_frame, carrying the stream id
  // in its request_id field.
  stream_open = 4,   ///< client -> server: open one stream session
  stream_frame = 5,  ///< client -> server: one frame of an open stream
  stream_close = 6,  ///< client -> server: end-of-stream, drain + close
  stream_opened = 7, ///< server -> client: open accepted + initial credits
  stream_result = 8, ///< server -> client: one delivered frame (1 credit)
  stream_credit = 9, ///< server -> client: credits freed without delivery
  stream_closed = 10, ///< server -> client: final per-stream counters
};

/// Decoded message header (magic already verified and stripped).
struct Header {
  std::uint16_t version = kVersion;
  MessageType type = MessageType::request;
  std::uint32_t payload_bytes = 0;
  std::uint32_t checksum = 0;
};

/// CRC32C (Castagnoli: reflected polynomial 0x82F63B78, initial value and
/// final xor 0xFFFFFFFF) over the payload bytes. TCP already guards the
/// bits; the checksum guards framing bugs, and a CRC catches every
/// single-bit flip and every burst up to 32 bits. It runs four times per
/// round trip over multi-MB frames, so it dispatches once to the SSE4.2
/// crc32 instruction where the host has it (three interleaved chains,
/// joined by a table-driven shift) and to a table-driven loop with the
/// same result elsewhere.
std::uint32_t checksum(std::span<const std::uint8_t> payload);

/// checksum() continued over `more`, given `crc`, the checksum of the
/// bytes before them: checksum(checksum(a), b) == checksum(a ++ b). A
/// message's pieces are checksummed where they lie, without joining them.
std::uint32_t checksum(std::uint32_t crc, std::span<const std::uint8_t> more);

namespace detail {

/// Table-driven CRC32C, one byte per step: the portable path and the
/// reference the hardware path is tested against.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes);

/// Whether this host runs crc32c_hardware (x86-64 with SSE4.2).
bool crc32c_hardware_available();

/// CRC32C through the SSE4.2 crc32 instruction: three chains over
/// adjacent blocks, joined by a table-driven shift. Call only where
/// crc32c_hardware_available() holds.
std::uint32_t crc32c_hardware(std::span<const std::uint8_t> bytes);

} // namespace detail

/// Serialize a header (including magic) into exactly kHeaderBytes.
std::array<std::uint8_t, kHeaderBytes> encode_header(const Header& header);

/// Parse and validate a header: magic, version, known type, payload size
/// within kMaxPayloadBytes. Throws WireError on any violation.
Header decode_header(std::span<const std::uint8_t> bytes);

/// Throws WireError unless `payload` matches `header.checksum`.
void verify_checksum(const Header& header,
                     std::span<const std::uint8_t> payload);

/// One request on the wire: a client-assigned correlation id plus the job.
/// The id is echoed in the matching response/error, which is what lets a
/// pipelined client keep many requests in flight on one socket.
struct Request {
  std::uint64_t request_id = 0;
  serve::FrameJob job;
};

/// One successful reply: the request id it answers plus the FrameResult
/// exactly as the service produced it (ids, timings, backend name, and the
/// bit-exact output frame).
struct Response {
  std::uint64_t request_id = 0;
  serve::FrameResult result;
};

/// Typed category of an in-protocol error reply (u8 on the wire, v2).
/// Lets a remote client re-raise the server-side error as the same typed
/// exception a co-located caller would have seen — Overloaded and
/// DeadlineExceeded in particular, which retry/degrade logic keys on.
enum class ErrorCode : std::uint8_t {
  generic = 0,           ///< any other execution failure
  invalid_argument = 1,  ///< the service rejected the job as malformed
  overloaded = 2,        ///< admission control shed the job (serve::Overloaded)
  deadline_exceeded = 3, ///< the job's deadline passed (serve::DeadlineExceeded)
};

/// One failed reply: the request id plus the typed code and server-side
/// error message. The connection stays usable — execution errors are
/// per-request.
struct ErrorReply {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::generic;
  std::string message;
};

/// Open one stream session (v3). Stream ids are client-assigned (like
/// request ids) and scope every later stream message; the config is the
/// client-controllable subset of stream::StreamConfig — rate-controller
/// internals (hysteresis band, rung costs) are server policy and do not
/// cross the wire.
struct StreamOpen {
  std::uint64_t stream_id = 0;
  stream::StreamConfig config;
};

/// Open accepted: the initial credit grant (== config.credits). A
/// rejected open comes back as an error message instead, carrying the
/// stream id in its request_id field.
struct StreamOpened {
  std::uint64_t stream_id = 0;
  std::uint32_t credits = 0;
};

/// One frame of an open stream. Consumes one credit; the client must not
/// send with zero credits outstanding.
struct StreamFrame {
  std::uint64_t stream_id = 0;
  std::uint64_t sequence = 0;
  img::ImageF frame;
};

/// One delivered frame, in sequence order: the session's result as it
/// came out of the stream layer, `stream_id` the client's. Implicitly
/// returns the frame's credit to the client.
using StreamResult = stream::StreamFrameResult;

/// Credits freed WITHOUT a delivery (frames shed or expired server-side).
struct StreamCredit {
  std::uint64_t stream_id = 0;
  std::uint32_t credits = 0;
};

/// End-of-stream from the client: drain and report final counters.
struct StreamClose {
  std::uint64_t stream_id = 0;
};

/// Terminal status of a stream (u8 on the wire).
enum class StreamStatus : std::uint8_t {
  closed = 0, ///< clean close (client-initiated)
  shed = 1,   ///< shed as a unit by the rate controller (best_effort)
  failed = 2, ///< server-side execution failure aborted the stream
};

/// Final per-stream counters; the last message of a stream in either
/// direction. Sent in reply to StreamClose, or spontaneously when the
/// server sheds/aborts the stream.
struct StreamClosed {
  std::uint64_t stream_id = 0;
  StreamStatus status = StreamStatus::closed;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_expired = 0;
  std::uint32_t rung_switches = 0;
  /// Failure detail when status == failed; empty otherwise.
  std::string message;
};

/// An encoded image message in two pieces, written with one gather write
/// (Socket::send_all): `head` holds the header and every field, the
/// image dimensions included; `samples` views the image's samples where
/// they lie (empty on a big-endian host, where they are byte-swapped into
/// `head`). The header's checksum covers both pieces. `samples` points
/// into the encoded message's image, which must outlive it.
struct OutboundMessage {
  std::vector<std::uint8_t> head;
  std::span<const std::uint8_t> samples;

  std::array<std::span<const std::uint8_t>, 2> pieces() const {
    return {head, samples};
  }
};

/// Encode an image message (Request, Response, StreamFrame or
/// StreamResult) without copying its samples. Validates like the copying
/// encoders below, which join the same two pieces.
template <typename Message>
OutboundMessage encode_parts(const Message& message);

/// Encode a complete message, header included, ready to write to a socket.
std::vector<std::uint8_t> encode_request(const Request& request);
std::vector<std::uint8_t> encode_response(const Response& response);
std::vector<std::uint8_t> encode_error(const ErrorReply& reply);
std::vector<std::uint8_t> encode_stream_open(const StreamOpen& open);
std::vector<std::uint8_t> encode_stream_opened(const StreamOpened& opened);
std::vector<std::uint8_t> encode_stream_frame(const StreamFrame& frame);
std::vector<std::uint8_t> encode_stream_credit(const StreamCredit& credit);
std::vector<std::uint8_t> encode_stream_close(const StreamClose& close);
std::vector<std::uint8_t> encode_stream_closed(const StreamClosed& closed);

/// Fills its span exactly from the stream; false when the stream ended or
/// broke first.
using Receive = std::function<bool(std::span<std::uint8_t>)>;

/// Receive the payload of an image message (Request, Response,
/// StreamFrame or StreamResult) whose header was read. The fields and
/// dimensions arrive first, into a bounded buffer; the samples they
/// declare must fill the payload exactly, and only then is an unwritten
/// plane acquired (pooled under a PlanePool::Scope) and the samples
/// received into it. `message` is assigned only once the checksum over
/// both pieces holds. Throws WireError as the decoders do, and on a size
/// disagreement or checksum mismatch; false when `receive` failed.
template <typename Message>
bool receive_payload(const Header& header, const Receive& receive,
                     Message& message);

/// Decode one payload (the caller has already decoded the header, read
/// exactly header.payload_bytes and verified the checksum). Throws
/// WireError on truncated/trailing bytes, out-of-range dimensions or
/// unknown enum codes. A connection receives image messages through
/// receive_payload instead; decode_response and decode_stream_result read
/// one already held in memory.
Response decode_response(std::span<const std::uint8_t> payload);
ErrorReply decode_error(std::span<const std::uint8_t> payload);
StreamOpen decode_stream_open(std::span<const std::uint8_t> payload);
StreamOpened decode_stream_opened(std::span<const std::uint8_t> payload);
StreamResult decode_stream_result(std::span<const std::uint8_t> payload);
StreamCredit decode_stream_credit(std::span<const std::uint8_t> payload);
StreamClose decode_stream_close(std::span<const std::uint8_t> payload);
StreamClosed decode_stream_closed(std::span<const std::uint8_t> payload);

} // namespace wire
} // namespace tmhls::transport
