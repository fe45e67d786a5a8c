// Tests for the socket transport: wire-format round trips (options, fixed
// formats, frame bytes — NaN patterns included), golden-bytes pins of the
// on-wire layout and of the sample bytes, and the CRC32C checksum (known
// answer, hardware/portable agreement, every single-bit flip caught);
// loopback byte-identity of transport::Client against
// the blocking tone_map() for every backend; pipelined
// submission with request-id correlation; the error contract (execution
// errors arrive as RemoteError and the connection survives; protocol
// violations close the connection and only the connection); clean
// drain on Server::stop(); replies in completion order; connection churn
// with jobs in flight; and the resilience contract — typed timeout,
// bounded retry against a stalled server, shed/expired replies carrying
// their wire error codes, and injected socket faults (dropped and short
// reads, failed sends) closing only the connection they hit.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "exec/registry.hpp"
#include "image/plane_pool.hpp"
#include "serve/service.hpp"
#include "tonemap/pipeline.hpp"
#include "transport/client.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace tmhls::transport {
namespace {

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (std::memcmp(&sa[i], &sb[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at sample " << i << ": " << sa[i]
               << " vs " << sb[i];
      }
    }
    return ::testing::AssertionFailure() << "bit pattern difference";
  }
  return ::testing::AssertionSuccess();
}

tonemap::PipelineOptions small_options(const std::string& backend) {
  tonemap::PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = backend;
  return opt;
}

// Little-endian emitters for hand-crafting payloads in malformed-input
// tests (deliberately independent of the production encoder).
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
  }
}

/// The payload of an encoded message (its bytes after the header).
std::vector<std::uint8_t> payload_of(std::span<const std::uint8_t> message) {
  return {message.begin() + wire::kHeaderBytes, message.end()};
}

/// A header that declares `payload` exactly, checksum included.
wire::Header header_for(std::span<const std::uint8_t> payload) {
  wire::Header header;
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  header.checksum = wire::checksum(payload);
  return header;
}

/// Receive `bytes` as the payload `header` declares, the way a connection
/// does: through wire::receive_payload, here from memory rather than a
/// socket. False when the bytes ran out first.
template <typename Message>
bool receive_from(const wire::Header& header,
                  std::span<const std::uint8_t> bytes, Message& message) {
  const wire::Receive from_bytes = [&bytes](std::span<std::uint8_t> out) {
    if (out.size() > bytes.size()) return false;
    std::memcpy(out.data(), bytes.data(), out.size());
    bytes = bytes.subspan(out.size());
    return true;
  };
  return wire::receive_payload(header, from_bytes, message);
}

/// Receive a whole payload under a header that declares it exactly.
template <typename Message>
Message received(std::span<const std::uint8_t> payload) {
  Message message;
  EXPECT_TRUE(receive_from(header_for(payload), payload, message));
  return message;
}

// --- wire format -----------------------------------------------------------

TEST(WireTest, RequestRoundTripPreservesEveryField) {
  wire::Request request;
  request.request_id = 0xDEADBEEF12345678ull;
  request.job.qos = serve::QosClass::best_effort;
  request.job.deadline_seconds = 0.25;
  tonemap::PipelineOptions& opt = request.job.options;
  opt.sigma = 2.5;
  opt.radius = 7;
  opt.backend = "auto";
  opt.datapath = tonemap::Datapath::fixed_point;
  opt.threads = 3;
  opt.fixed.data = fixed::FixedFormat(12, 3, fixed::Round::half_even,
                                      fixed::Overflow::wrap);
  opt.fixed.accumulator = fixed::FixedFormat(24, 6, fixed::Round::half_up,
                                             fixed::Overflow::saturate);
  opt.display_gamma = 1.8f;
  opt.normalization_scale = 0.75f;
  opt.brightness = -0.1f;
  opt.contrast = 1.3f;
  request.job.frame = random_hdr(7, 5, 42);
  // A NaN sample must cross the wire with its exact bit pattern.
  request.job.frame.at(3, 2, 1) = std::nanf("");

  const std::vector<std::uint8_t> message = wire::encode_request(request);
  const wire::Header header = wire::decode_header(
      std::span<const std::uint8_t>(message).first(wire::kHeaderBytes));
  EXPECT_EQ(header.type, wire::MessageType::request);
  EXPECT_EQ(header.version, wire::kVersion);
  const auto payload =
      std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes);
  EXPECT_EQ(payload.size(), header.payload_bytes);
  wire::verify_checksum(header, payload); // must not throw

  const wire::Request decoded = received<wire::Request>(payload);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.job.qos, serve::QosClass::best_effort);
  EXPECT_EQ(decoded.job.deadline_seconds, 0.25);
  EXPECT_EQ(decoded.job.options, request.job.options); // field-wise
  EXPECT_TRUE(bit_identical(decoded.job.frame, request.job.frame));
}

TEST(WireTest, ResponseRoundTripPreservesResultAndTimings) {
  wire::Response response;
  response.request_id = 9;
  response.result.job_id = 123456789ull;
  response.result.shard = 3;
  response.result.degrade = serve::DegradeLevel::reduced_blur;
  response.result.backend = "hlscode";
  response.result.queue_seconds = 0.125;
  response.result.service_seconds = 2.5e-3;
  response.result.output = random_hdr(5, 4, 11);

  const std::vector<std::uint8_t> message = wire::encode_response(response);
  const wire::Header header = wire::decode_header(
      std::span<const std::uint8_t>(message).first(wire::kHeaderBytes));
  EXPECT_EQ(header.type, wire::MessageType::response);
  const wire::Response decoded = wire::decode_response(
      std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_EQ(decoded.result.job_id, response.result.job_id);
  EXPECT_EQ(decoded.result.shard, response.result.shard);
  EXPECT_EQ(decoded.result.degrade, serve::DegradeLevel::reduced_blur);
  EXPECT_EQ(decoded.result.backend, response.result.backend);
  EXPECT_EQ(decoded.result.queue_seconds, response.result.queue_seconds);
  EXPECT_EQ(decoded.result.service_seconds, response.result.service_seconds);
  EXPECT_TRUE(bit_identical(decoded.result.output, response.result.output));
}

TEST(WireTest, ErrorMessageGoldenBytesPinTheOnWireFormat) {
  // The exact bytes of a v6 error message with id 1, code generic and
  // message "hi" — recorded by hand from the format table in wire.hpp.
  // This pins the on-wire layout (magic, little-endian fields, the code
  // byte, CRC32C checksum): any encoder change that alters these bytes
  // is a protocol break and must bump kVersion. (From the v5 pin only the
  // header's version and checksum fields changed: v6 replaced FNV-1a with
  // CRC32C, and 0xEBF027C2 is the CRC32C of these 15 payload bytes.)
  const std::vector<std::uint8_t> expected{
      0x54, 0x4d, 0x48, 0x57, 0x06, 0x00, 0x03, 0x00, 0x0f, 0x00, 0x00,
      0x00, 0xc2, 0x27, 0xf0, 0xeb, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x68, 0x69};
  EXPECT_EQ(wire::encode_error({1, wire::ErrorCode::generic, "hi"}),
            expected);

  const wire::ErrorReply decoded = wire::decode_error(
      std::span<const std::uint8_t>(expected).subspan(wire::kHeaderBytes));
  EXPECT_EQ(decoded.request_id, 1u);
  EXPECT_EQ(decoded.code, wire::ErrorCode::generic);
  EXPECT_EQ(decoded.message, "hi");
}

TEST(WireTest, StreamFrameGoldenBytesPinTheSampleLayout) {
  // The exact bytes of a v6 stream_frame with stream id 1, sequence 2 and
  // a 1x1x2 image {1.0f, -0.0f}: samples travel as the little-endian
  // IEEE-754 words 00 00 80 3f and 00 00 00 80, whatever the host, and
  // 0x48E4F22B is the CRC32C of the 36 payload bytes.
  img::ImageF image(1, 1, 2);
  image.samples()[0] = 1.0f;
  image.samples()[1] = -0.0f;
  const std::vector<std::uint8_t> expected{
      0x54, 0x4d, 0x48, 0x57, 0x06, 0x00, 0x05, 0x00, // magic, v6, type 5
      0x24, 0x00, 0x00, 0x00, 0x2b, 0xf2, 0xe4, 0x48, // 36 bytes, CRC32C
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stream id
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sequence
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // width, height
      0x02, 0x00, 0x00, 0x00,                         // channels
      0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x80}; // 1.0f, -0.0f
  EXPECT_EQ(wire::encode_stream_frame({1, 2, image}), expected);

  const wire::StreamFrame decoded =
      received<wire::StreamFrame>(payload_of(expected));
  EXPECT_EQ(decoded.stream_id, 1u);
  EXPECT_EQ(decoded.sequence, 2u);
  EXPECT_TRUE(bit_identical(decoded.frame, image));
}

/// FNV-1a (64-bit) over every byte of a message, continued from `h`, the
/// digest of the bytes before them.
std::uint64_t message_digest(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// A full-size request and response (serve_loopback's 512x384x3 frame):
/// every field set, samples from a seeded generator, one NaN pattern.
wire::Request pinned_request() {
  wire::Request request;
  request.request_id = 0x0123456789abcdefull;
  request.job.qos = serve::QosClass::critical;
  request.job.deadline_seconds = 0.5;
  request.job.options = small_options("fused_stream");
  request.job.options.threads = 2;
  request.job.frame = random_hdr(512, 384, 2026);
  request.job.frame.at(5, 7, 2) = std::nanf("");
  return request;
}

wire::Response pinned_response() {
  wire::Response response;
  response.request_id = 0x0123456789abcdefull;
  response.result.job_id = 77;
  response.result.shard = 1;
  response.result.backend = "fused_stream";
  response.result.queue_seconds = 1.5e-4;
  response.result.service_seconds = 5.75e-3;
  response.result.output = random_hdr(512, 384, 2027);
  return response;
}

TEST(WireTest, FullSizeMessagesArePinnedByDigest) {
  // Digests of the whole encoded message, header and checksum included,
  // recorded before the encoder learned to send samples from the plane.
  // The golden-byte pins above cover the layout on tiny frames; these
  // cover a real frame's size, sample run and checksum.
  constexpr std::uint64_t kRequestDigest = 0x091f4d70b372a5a1ULL;
  constexpr std::uint64_t kResponseDigest = 0xb024c9d107d31ecbULL;
  EXPECT_EQ(message_digest(wire::encode_request(pinned_request())),
            kRequestDigest);
  EXPECT_EQ(message_digest(wire::encode_response(pinned_response())),
            kResponseDigest);

  // The gather form sends the same bytes, the samples from the plane.
  const wire::Request request = pinned_request();
  const wire::OutboundMessage request_parts = wire::encode_parts(request);
  EXPECT_EQ(message_digest(request_parts.samples,
                           message_digest(request_parts.head)),
            kRequestDigest);
  const wire::Response response = pinned_response();
  const wire::OutboundMessage response_parts = wire::encode_parts(response);
  EXPECT_EQ(message_digest(response_parts.samples,
                           message_digest(response_parts.head)),
            kResponseDigest);
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(static_cast<const void*>(response_parts.samples.data()),
              static_cast<const void*>(
                  response.result.output.samples().data()));
  }
}

TEST(WireTest, Crc32cMatchesTheCastagnoliKnownAnswer) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(wire::detail::crc32c_portable(bytes), 0xE3069283u);
  EXPECT_EQ(wire::checksum(bytes), 0xE3069283u);
  EXPECT_EQ(wire::checksum({}), 0u);
}

TEST(WireTest, Crc32cHardwareAndPortablePathsAgree) {
  if (!wire::detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this host";
  }
  Rng rng(31);
  std::vector<std::uint8_t> buffer(2'359'296 + 8); // one 512x384x3 frame
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const std::span<const std::uint8_t> all(buffer);
  // Every length 0-4096 at every start offset 0-7: the three-chain rounds
  // of 3 x 256 bytes, the one-chain 8-byte words, the byte tail and
  // unaligned loads in every combination. Then lengths that mix the
  // 3 x 8192-byte rounds with all of those.
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 4096; ++length) {
    lengths.push_back(length);
  }
  for (const std::size_t length :
       {24575, 24576, 24577, 24576 + 768 + 7, 2 * 24576 + 5 * 768 + 61}) {
    lengths.push_back(length);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t length : lengths) {
      const auto bytes = all.subspan(offset, length);
      ASSERT_EQ(wire::detail::crc32c_hardware(bytes),
                wire::detail::crc32c_portable(bytes))
          << "offset " << offset << ", length " << length;
    }
  }
  const auto frame = all.subspan(3, 2'359'296);
  EXPECT_EQ(wire::detail::crc32c_hardware(frame),
            wire::detail::crc32c_portable(frame));
}

TEST(WireTest, ChecksumChainedOverPiecesEqualsOneShot) {
  // checksum(crc, more) continues a checksum across cut points, on the
  // path checksum() dispatches to: the sender and receiver checksum a
  // message's fields and samples where they lie.
  Rng rng(37);
  std::vector<std::uint8_t> buffer(2'359'296 + 100);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const std::span<const std::uint8_t> all(buffer);
  const std::uint32_t one_shot = wire::checksum(all);
  EXPECT_EQ(one_shot, wire::detail::crc32c_portable(all));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> cuts{0, all.size()};
    const int pieces = 1 + static_cast<int>(rng.next_u64() % 6);
    for (int i = 1; i < pieces; ++i) {
      // Small pieces near the ends as well as large ones.
      const std::size_t at = rng.next_u64() % 2 == 0
                                 ? rng.next_u64() % 100
                                 : rng.next_u64() % all.size();
      cuts.push_back(at);
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t chained = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      chained = wire::checksum(chained,
                               all.subspan(cuts[i], cuts[i + 1] - cuts[i]));
    }
    ASSERT_EQ(chained, one_shot) << "trial " << trial;
  }
}

TEST(WireTest, EverySingleBitFlipFailsTheChecksum) {
  // A CRC detects every single-bit error; the check must hold on the
  // path checksum() dispatches to.
  Rng rng(47);
  std::vector<std::uint8_t> payload(4096);
  for (std::uint8_t& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  wire::Header header;
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  header.checksum = wire::checksum(payload);
  wire::verify_checksum(header, payload); // must not throw
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    payload[bit / 8] ^= mask;
    ASSERT_THROW(wire::verify_checksum(header, payload), WireError)
        << "bit " << bit;
    payload[bit / 8] ^= mask;
  }
}

TEST(WireTest, ErrorCodeRoundTripsEveryTypedCategory) {
  for (const wire::ErrorCode code :
       {wire::ErrorCode::generic, wire::ErrorCode::invalid_argument,
        wire::ErrorCode::overloaded, wire::ErrorCode::deadline_exceeded}) {
    const std::vector<std::uint8_t> message =
        wire::encode_error({7, code, "boom"});
    const wire::ErrorReply decoded = wire::decode_error(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.code, code);
    EXPECT_EQ(decoded.message, "boom");
  }
}

TEST(WireTest, StreamMessagesRoundTripEveryField) {
  wire::StreamOpen open;
  open.stream_id = 0x0123456789abcdefull;
  open.config.pipeline = small_options("hlscode");
  open.config.width = 320;
  open.config.height = 200;
  open.config.frame_interval_seconds = 1.0 / 24.0;
  open.config.adaptation_rate = 0.5;
  open.config.qos = serve::QosClass::best_effort;
  open.config.reorder_window = 6;
  open.config.credits = 12;
  {
    const std::vector<std::uint8_t> message = wire::encode_stream_open(open);
    const wire::StreamOpen decoded = wire::decode_stream_open(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.stream_id, open.stream_id);
    EXPECT_EQ(decoded.config.qos, serve::QosClass::best_effort);
    EXPECT_EQ(decoded.config.frame_interval_seconds,
              open.config.frame_interval_seconds);
    EXPECT_EQ(decoded.config.adaptation_rate, open.config.adaptation_rate);
    EXPECT_EQ(decoded.config.width, 320);
    EXPECT_EQ(decoded.config.height, 200);
    EXPECT_EQ(decoded.config.reorder_window, 6);
    EXPECT_EQ(decoded.config.credits, 12u);
    EXPECT_EQ(decoded.config.pipeline, open.config.pipeline);
  }
  {
    const std::vector<std::uint8_t> message =
        wire::encode_stream_opened({3, 12});
    const wire::StreamOpened decoded = wire::decode_stream_opened(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.stream_id, 3u);
    EXPECT_EQ(decoded.credits, 12u);
  }
  {
    wire::StreamFrame frame;
    frame.stream_id = 3;
    frame.sequence = 41;
    frame.frame = random_hdr(6, 4, 17);
    frame.frame.at(2, 1, 0) = std::nanf(""); // exact bits must survive
    const wire::StreamFrame decoded = received<wire::StreamFrame>(
        payload_of(wire::encode_stream_frame(frame)));
    EXPECT_EQ(decoded.stream_id, 3u);
    EXPECT_EQ(decoded.sequence, 41u);
    EXPECT_TRUE(bit_identical(decoded.frame, frame.frame));
  }
  {
    wire::StreamResult result;
    result.stream_id = 3;
    result.sequence = 41;
    result.rung = serve::DegradeLevel::reduced_blur;
    result.backend = "hlscode";
    result.service_seconds = 1.25e-3;
    result.output = random_hdr(6, 4, 18);
    const wire::OutboundMessage parts = wire::encode_parts(result);
    std::vector<std::uint8_t> message = parts.head;
    message.insert(message.end(), parts.samples.begin(), parts.samples.end());
    const wire::StreamResult decoded = wire::decode_stream_result(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.stream_id, 3u);
    EXPECT_EQ(decoded.sequence, 41u);
    EXPECT_EQ(decoded.rung, serve::DegradeLevel::reduced_blur);
    EXPECT_EQ(decoded.backend, "hlscode");
    EXPECT_EQ(decoded.service_seconds, 1.25e-3);
    EXPECT_TRUE(bit_identical(decoded.output, result.output));
  }
  {
    const std::vector<std::uint8_t> message =
        wire::encode_stream_credit({3, 2});
    const wire::StreamCredit decoded = wire::decode_stream_credit(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.stream_id, 3u);
    EXPECT_EQ(decoded.credits, 2u);
  }
  {
    const std::vector<std::uint8_t> message = wire::encode_stream_close({3});
    EXPECT_EQ(wire::decode_stream_close(
                  std::span<const std::uint8_t>(message).subspan(
                      wire::kHeaderBytes))
                  .stream_id,
              3u);
  }
  for (const wire::StreamStatus status :
       {wire::StreamStatus::closed, wire::StreamStatus::shed,
        wire::StreamStatus::failed}) {
    wire::StreamClosed closed;
    closed.stream_id = 3;
    closed.status = status;
    closed.frames_delivered = 40;
    closed.frames_shed = 1;
    closed.frames_expired = 2;
    closed.rung_switches = 1;
    closed.message = status == wire::StreamStatus::failed ? "boom" : "";
    const std::vector<std::uint8_t> message =
        wire::encode_stream_closed(closed);
    const wire::StreamClosed decoded = wire::decode_stream_closed(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.frames_delivered, 40u);
    EXPECT_EQ(decoded.frames_shed, 1u);
    EXPECT_EQ(decoded.frames_expired, 2u);
    EXPECT_EQ(decoded.rung_switches, 1u);
    EXPECT_EQ(decoded.message, closed.message);
  }
}

TEST(WireTest, StreamOpenRejectsOutOfRangeConfigs) {
  wire::StreamOpen good;
  good.stream_id = 1;
  good.config.pipeline = small_options("separable_float");
  good.config.width = 32;
  good.config.height = 24;
  EXPECT_NO_THROW((void)wire::encode_stream_open(good));
  // The same bounds gate encode and decode (check_stream_config), so a
  // config the encoder rejects could not have been produced on the wire.
  auto rejects = [&](auto mutate) {
    wire::StreamOpen bad = good;
    mutate(bad.config);
    EXPECT_THROW((void)wire::encode_stream_open(bad), WireError);
  };
  rejects([](auto& c) { c.frame_interval_seconds = 0.0; });
  rejects([](auto& c) { c.frame_interval_seconds = 3601.0; });
  rejects([](auto& c) { c.adaptation_rate = 0.0; });
  rejects([](auto& c) { c.adaptation_rate = 1.5; });
  rejects([](auto& c) { c.width = 0; });
  rejects([](auto& c) { c.width = wire::kMaxDimension + 1; });
  rejects([](auto& c) { c.height = 0; });
  rejects([](auto& c) { c.reorder_window = stream::kMaxReorderWindow + 1; });
  rejects([](auto& c) { c.credits = 0; });
  rejects([](auto& c) { c.credits = stream::kMaxStreamCredits + 1; });
}

TEST(WireTest, StreamDecodersRejectTrailingBytesAndUnknownStatus) {
  {
    std::vector<std::uint8_t> message = wire::encode_stream_credit({3, 2});
    message.push_back(0); // trailing byte past the declared layout
    EXPECT_THROW(
        (void)wire::decode_stream_credit(
            std::span<const std::uint8_t>(message).subspan(
                wire::kHeaderBytes)),
        WireError);
  }
  {
    // Credits outside [1, kMaxStreamCredits] never leave a correct peer.
    EXPECT_THROW((void)wire::encode_stream_credit({3, 0}), WireError);
    EXPECT_THROW((void)wire::encode_stream_credit(
                     {3, stream::kMaxStreamCredits + 1}),
                 WireError);
  }
  {
    wire::StreamClosed closed;
    closed.stream_id = 3;
    std::vector<std::uint8_t> message = wire::encode_stream_closed(closed);
    message[wire::kHeaderBytes + 8] = 0x07; // status byte: unknown code
    EXPECT_THROW(
        (void)wire::decode_stream_closed(
            std::span<const std::uint8_t>(message).subspan(
                wire::kHeaderBytes)),
        WireError);
  }
}

TEST(WireTest, RequestDecodeRejectsMalformedDeadlineEncodings) {
  const std::vector<std::uint8_t> payload =
      payload_of(wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}}));
  // Payload layout: u64 id, u8 qos, u8 deadline flag, f64 deadline value.
  const std::size_t flag_at = 8 + 1;
  auto decode_mutated = [&](auto mutate) {
    std::vector<std::uint8_t> bytes = payload;
    mutate(bytes);
    return received<wire::Request>(bytes);
  };
  // Flag 0 with a nonzero value: two encodings of "no deadline" would
  // otherwise exist.
  EXPECT_THROW((void)decode_mutated(
                   [&](auto& b) { b[flag_at + 1] = 0x01; }),
               WireError);
  // A flag byte beyond the boolean range.
  EXPECT_THROW((void)decode_mutated([&](auto& b) { b[flag_at] = 0x02; }),
               WireError);
  // The unmutated message still decodes (sanity check of flag_at).
  EXPECT_FALSE(
      received<wire::Request>(payload).job.deadline_seconds.has_value());
}

TEST(WireTest, HeaderRejectsMagicVersionTypeAndSizeViolations) {
  const std::vector<std::uint8_t> good =
      wire::encode_error({1, wire::ErrorCode::generic, "x"});
  auto header_of = [&](auto mutate) {
    std::vector<std::uint8_t> bytes(good.begin(),
                                    good.begin() + wire::kHeaderBytes);
    mutate(bytes);
    return bytes;
  };
  EXPECT_THROW(
      wire::decode_header(header_of([](auto& b) { b[0] = 0xff; })),
      WireError); // magic
  EXPECT_THROW(
      wire::decode_header(header_of([](auto& b) { b[4] = 0x7f; })),
      WireError); // version
  EXPECT_THROW(
      wire::decode_header(header_of([](auto& b) { b[6] = 0x0b; })),
      WireError); // unknown type (just past stream_closed = 10)
  EXPECT_THROW(wire::decode_header(header_of([](auto& b) {
                 b[8] = b[9] = b[10] = b[11] = 0xff; // ~4 GiB payload
               })),
               WireError);
  EXPECT_THROW(wire::decode_header(
                   std::span<const std::uint8_t>(good).first(7)),
               WireError); // truncated header
}

TEST(WireTest, ChecksumMismatchAndTruncatedPayloadAreRejected) {
  std::vector<std::uint8_t> message =
      wire::encode_error({1, wire::ErrorCode::generic, "hello"});
  const wire::Header header = wire::decode_header(
      std::span<const std::uint8_t>(message).first(wire::kHeaderBytes));
  std::vector<std::uint8_t> payload(message.begin() + wire::kHeaderBytes,
                                    message.end());
  payload.back() ^= 0x01;
  EXPECT_THROW(wire::verify_checksum(header, payload), WireError);
  EXPECT_THROW(
      wire::verify_checksum(
          header,
          std::span<const std::uint8_t>(payload).first(payload.size() - 1)),
      WireError);
  // Truncated payload handed straight to the decoder.
  EXPECT_THROW(wire::decode_error(
                   std::span<const std::uint8_t>(payload).first(9)),
               WireError);
}

TEST(WireTest, RequestDecodeRejectsOversizedDimensionsWithoutAllocating) {
  // A hand-written request payload whose image header declares absurd
  // dimensions backed by no data. The decoder must reject it from the
  // declared-vs-available check before any allocation happens.
  std::vector<std::uint8_t> payload;
  put_u64(payload, 7); // request id
  payload.push_back(1); // qos: standard
  payload.push_back(0); // deadline flag: none
  put_u64(payload, 0);  // deadline f64: must be 0.0 when the flag is 0
  // options: sigma f64, radius i32, blur u8, backend (empty), datapath u8,
  // threads i32, two 4-byte fixed formats, four f32 — defaults, all zeros
  // except where a zero is invalid.
  put_u64(payload, 0x3ff0000000000000ull); // sigma = 1.0
  put_u32(payload, 0);                     // radius
  payload.push_back(0);                    // blur kind
  put_u32(payload, 0);                     // backend length 0
  payload.push_back(0);                    // datapath
  put_u32(payload, 1);                     // threads
  for (int i = 0; i < 2; ++i) {
    payload.push_back(16); // width
    payload.push_back(2);  // int bits
    payload.push_back(2);  // round: half_up
    payload.push_back(0);  // overflow: saturate
  }
  for (int i = 0; i < 4; ++i) put_u32(payload, 0x3f800000u); // 1.0f
  put_u32(payload, 100000); // image width, far beyond kMaxDimension
  put_u32(payload, 1);      // height
  put_u32(payload, 1);      // channels
  EXPECT_THROW((void)received<wire::Request>(payload), WireError);

  // The same payload with in-range dimensions but missing sample bytes
  // must be rejected by the declared-vs-available check too.
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 12);
  put_u32(truncated, 64);
  put_u32(truncated, 64);
  put_u32(truncated, 1); // 16 KiB of samples declared, none present
  EXPECT_THROW((void)received<wire::Request>(truncated), WireError);
}

TEST(WireTest, RejectedPayloadsNeverLeakPooledPlanes) {
  // A connection receives frame samples straight into pool planes (the
  // reader thread runs under the service pool's scope), so every rejected
  // payload must leave the pool balanced: either receive_payload rejected
  // it before acquiring a plane, or the plane it acquired was returned
  // during unwinding. Pool balance is checked after each rejection.
  // Valid payloads to mutate are built BEFORE the scope is installed, so
  // the pool's counters see only the receiver's planes.
  wire::Request request;
  request.request_id = 9;
  request.job.frame = random_hdr(8, 6, 3);
  request.job.options.sigma = 1.0;
  const std::vector<std::uint8_t> payload =
      payload_of(wire::encode_request(request));

  wire::StreamFrame frame;
  frame.stream_id = 3;
  frame.sequence = 1;
  // Larger than receive_payload's field buffer, so the samples arrive by
  // a second receive, into the plane.
  frame.frame = random_hdr(40, 30, 4);
  const std::vector<std::uint8_t> fpayload =
      payload_of(wire::encode_stream_frame(frame));

  img::PlanePool pool;
  const img::PlanePool::Scope scope(pool);

  const auto expect_balanced = [&pool](std::uint64_t expected_acquires) {
    const img::PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, expected_acquires);
    EXPECT_EQ(s.returned, s.acquires); // nothing outstanding -> no leak
  };

  {
    SCOPED_TRACE("truncated frame payload");
    // Sample bytes cut short under a header that declares the cut size:
    // the declared image disagrees with the payload size, rejected
    // BEFORE the plane is acquired.
    const std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 9);
    EXPECT_THROW((void)received<wire::Request>(cut), WireError);
    expect_balanced(0);
  }
  {
    SCOPED_TRACE("oversized frame payload");
    // Width inflated beyond the dimension bound (the image header sits
    // 12 bytes before the sample data): rejected before acquiring.
    std::vector<std::uint8_t> inflated = payload;
    const std::size_t sample_bytes =
        static_cast<std::size_t>(8 * 6 * 3) * 4;
    const std::size_t width_at = inflated.size() - sample_bytes - 12;
    inflated[width_at] = 0xff;
    inflated[width_at + 1] = 0xff;
    inflated[width_at + 2] = 0xff;
    EXPECT_THROW((void)received<wire::Request>(inflated), WireError);
    expect_balanced(0);
  }
  {
    SCOPED_TRACE("trailing bytes after a frame");
    std::vector<std::uint8_t> trailing = payload;
    trailing.push_back(0x5a);
    EXPECT_THROW((void)received<wire::Request>(trailing), WireError);
    expect_balanced(0);
  }
  {
    SCOPED_TRACE("samples failing the checksum");
    // The samples arrive into a pooled plane before the checksum over
    // them fails: unwinding must return the plane.
    wire::Header header = header_for(payload);
    header.checksum ^= 1u;
    wire::Request message;
    EXPECT_THROW((void)receive_from(header, payload, message), WireError);
    expect_balanced(1);
  }
  {
    SCOPED_TRACE("connection ends inside a stream frame's samples");
    // The header declares the whole payload; the bytes stop 7 short, after
    // the plane was acquired. receive_payload reports the broken stream,
    // and the plane goes back.
    wire::StreamFrame message;
    EXPECT_FALSE(receive_from(
        header_for(fpayload),
        std::span<const std::uint8_t>(fpayload).first(fpayload.size() - 7),
        message));
    EXPECT_TRUE(message.frame.empty());
    expect_balanced(2);
  }
  {
    SCOPED_TRACE("trailing bytes after a stream frame");
    std::vector<std::uint8_t> ftrailing = fpayload;
    ftrailing.push_back(0x5a);
    EXPECT_THROW((void)received<wire::StreamFrame>(ftrailing), WireError);
    expect_balanced(2); // unchanged: rejected before acquiring
  }

  // And the healthy path under the same scope, for contrast: the received
  // frame IS a pooled plane (one acquisition, still live, then returned).
  {
    const wire::Request decoded = received<wire::Request>(payload);
    EXPECT_EQ(pool.stats().acquires, 3u);
    EXPECT_TRUE(bit_identical(decoded.job.frame, request.job.frame));
  }
  EXPECT_EQ(pool.stats().returned, 3u);
}

TEST(WireTest, EncodeRequestRejectsStructurallyInvalidJobs) {
  wire::Request empty_frame;
  EXPECT_THROW(wire::encode_request(empty_frame), InvalidArgument);
  wire::Request bad_deadline;
  bad_deadline.job.frame = random_hdr(4, 4, 1);
  bad_deadline.job.deadline_seconds = -1.0;
  EXPECT_THROW(wire::encode_request(bad_deadline), InvalidArgument);
}

TEST(SocketTest, GatherSendWritesEveryPieceInOrder) {
  // Pieces of odd sizes, one empty, together larger than a loopback
  // socket buffer, so the writer blocks while the reader drains.
  Rng rng(53);
  std::vector<std::uint8_t> bytes(3'000'003);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::span<const std::uint8_t> all(bytes);
  const std::array<std::span<const std::uint8_t>, 4> pieces{
      all.first(17), all.subspan(17, 0), all.subspan(17, 1'999'999),
      all.subspan(2'000'016)};

  ListenSocket listener(0);
  std::vector<std::uint8_t> received(bytes.size());
  ReadStatus read = ReadStatus::error;
  std::thread reader([&] {
    Socket peer = listener.accept();
    read = peer.recv_all(received);
  });
  Socket socket = Socket::connect("127.0.0.1", listener.port());
  EXPECT_EQ(socket.send_all(pieces), SendStatus::ok);
  reader.join();
  EXPECT_EQ(read, ReadStatus::ok);
  EXPECT_TRUE(received == bytes);
}

TEST(SocketTest, GatherSendResumesAfterAnInterruptedWrite) {
  // A signal that interrupts a sendmsg blocked on a full buffer makes it
  // return the bytes it had queued; send_all must resume at the first
  // unsent byte, here in the middle of the first piece. The reader holds
  // off until the signal has been sent, so the write is blocked by then.
  struct sigaction action {};
  action.sa_handler = [](int) {}; // no SA_RESTART: the write returns early
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  Rng rng(59);
  std::vector<std::uint8_t> bytes(4'000'003);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::span<const std::uint8_t> all(bytes);
  const std::array<std::span<const std::uint8_t>, 3> pieces{
      all.first(3'000'001), all.subspan(3'000'001, 1'000'000),
      all.subspan(4'000'001)};

  ListenSocket listener(0);
  std::atomic<bool> interrupted{false};
  std::vector<std::uint8_t> received(bytes.size());
  ReadStatus read = ReadStatus::error;
  std::thread reader([&] {
    Socket peer = listener.accept();
    while (!interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    read = peer.recv_all(received);
  });
  Socket socket = Socket::connect("127.0.0.1", listener.port());
  const int small = 16 * 1024;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  const pthread_t sender = ::pthread_self();
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::pthread_kill(sender, SIGUSR1);
    interrupted.store(true);
  });
  const SendStatus sent = socket.send_all(pieces);
  interrupter.join();
  socket.shutdown_both(); // a failed send must not leave the reader waiting
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_EQ(sent, SendStatus::ok);
  EXPECT_EQ(read, ReadStatus::ok);
  EXPECT_TRUE(received == bytes);
}

// --- loopback end-to-end ---------------------------------------------------

ServerOptions small_server(int shards = 2) {
  ServerOptions options;
  options.port = 0; // ephemeral
  options.service.shards = shards;
  return options;
}

TEST(TransportLoopbackTest, ByteIdenticalToBlockingToneMapAcrossBackends) {
  Server server(small_server());
  for (const std::string& name : exec::BackendRegistry::global().names()) {
    const tonemap::PipelineOptions opt = small_options(name);
    Client client({"127.0.0.1", server.port(), 5.0});
    for (int i = 0; i < 2; ++i) {
      const img::ImageF frame =
          random_hdr(33, 21, 100 + static_cast<std::uint64_t>(i));
      serve::FrameJob job;
      job.frame = frame;
      job.options = opt;
      const serve::FrameResult result = client.call(std::move(job));
      EXPECT_TRUE(bit_identical(result.output,
                                tonemap::tone_map(frame, opt).output))
          << name << " job " << i;
      EXPECT_FALSE(result.backend.empty());
      EXPECT_GE(result.queue_seconds, 0.0);
      EXPECT_GE(result.service_seconds, 0.0);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.responses_sent, stats.requests_received);
}

TEST(TransportLoopbackTest, PipelinedSubmitsCorrelateByRequestId) {
  Server server(small_server());
  const tonemap::PipelineOptions opt = small_options("hlscode");
  constexpr int kJobs = 8;
  std::vector<img::ImageF> frames;
  Client client({"127.0.0.1", server.port(), 5.0});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    frames.push_back(random_hdr(25, 17, 200 + static_cast<std::uint64_t>(i)));
    serve::FrameJob job;
    job.frame = frames.back();
    job.options = opt;
    ids.push_back(client.submit(std::move(job)));
  }
  EXPECT_EQ(client.in_flight(), static_cast<std::size_t>(kJobs));
  std::vector<bool> seen(kJobs, false);
  for (int i = 0; i < kJobs; ++i) {
    wire::Response r = client.next_result();
    const auto index = static_cast<std::size_t>(r.request_id);
    ASSERT_LT(index, seen.size());
    EXPECT_FALSE(seen[index]) << "duplicate reply for request " << index;
    seen[index] = true;
    EXPECT_TRUE(bit_identical(
        r.result.output, tonemap::tone_map(frames[index], opt).output))
        << "request " << index;
  }
  EXPECT_EQ(client.in_flight(), 0u);
  // Sequential ids, starting at 0 — what makes them usable as indices.
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
}

TEST(TransportLoopbackTest, MultiBandFusedJobsStayByteIdentical) {
  Server server(small_server(1));
  tonemap::PipelineOptions opt = small_options("fused_stream");
  opt.threads = 3;
  const img::ImageF frame = random_hdr(41, 37, 71);
  Client client({"127.0.0.1", server.port(), 5.0});
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  EXPECT_TRUE(bit_identical(
      client.call(std::move(job)).output,
      tonemap::tone_map(frame, small_options("separable_float")).output));
}

TEST(TransportLoopbackTest, SmallServerWindowStillCompletesPipelinedLoad) {
  ServerOptions options = small_server(1);
  options.max_in_flight_per_connection = 1; // reader throttles hard
  Server server(options);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  constexpr int kJobs = 6;
  std::vector<img::ImageF> frames;
  Client client({"127.0.0.1", server.port(), 5.0});
  for (int i = 0; i < kJobs; ++i) {
    frames.push_back(random_hdr(19, 13, 300 + static_cast<std::uint64_t>(i)));
    serve::FrameJob job;
    job.frame = frames.back();
    job.options = opt;
    client.submit(std::move(job));
  }
  for (int i = 0; i < kJobs; ++i) {
    wire::Response r = client.next_result();
    const auto index = static_cast<std::size_t>(r.request_id);
    EXPECT_TRUE(bit_identical(
        r.result.output, tonemap::tone_map(frames[index], opt).output));
  }
}

TEST(TransportLoopbackTest,
     RemoteExecutionErrorsArriveAsRemoteErrorAndConnectionSurvives) {
  Server server(small_server(1));
  Client client({"127.0.0.1", server.port(), 5.0});
  const img::ImageF frame = random_hdr(17, 13, 55);

  serve::FrameJob bad;
  bad.frame = frame;
  bad.options = small_options("no_such_backend");
  bool caught = false;
  try {
    client.call(std::move(bad));
  } catch (const RemoteError& e) {
    caught = true;
    EXPECT_EQ(e.request_id(), 0u);
    EXPECT_NE(std::string(e.what()).find("no_such_backend"),
              std::string::npos);
  }
  EXPECT_TRUE(caught);

  // The connection is still usable for the next job.
  serve::FrameJob good;
  good.frame = frame;
  good.options = small_options("separable_float");
  EXPECT_TRUE(bit_identical(client.call(std::move(good)).output,
                            tonemap::tone_map(frame, good.options).output));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors_sent, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(TransportLoopbackTest, HostileKernelParametersGetTypedErrorsOnALiveLink) {
  // sigma and radius travel straight from the client; the kernel bounds
  // them before any cast or allocation, so each hostile request gets a
  // typed invalid_argument reply and the connection keeps serving.
  Server server(small_server(1));
  Client client({"127.0.0.1", server.port(), 5.0});
  const img::ImageF frame = random_hdr(17, 13, 57);
  tonemap::PipelineOptions huge_radius = small_options("separable_float");
  huge_radius.radius = std::numeric_limits<int>::max();
  tonemap::PipelineOptions huge_sigma = small_options("separable_float");
  huge_sigma.sigma = 1e300;
  huge_sigma.radius = 0; // resolved as ceil(3 * sigma)
  int caught = 0;
  for (const tonemap::PipelineOptions& hostile : {huge_radius, huge_sigma}) {
    serve::FrameJob bad;
    bad.frame = frame;
    bad.options = hostile;
    try {
      client.call(std::move(bad));
    } catch (const RemoteError& e) {
      ++caught;
      EXPECT_EQ(e.code(), wire::ErrorCode::invalid_argument) << e.what();
    }
  }
  EXPECT_EQ(caught, 2);

  serve::FrameJob good;
  good.frame = frame;
  good.options = small_options("separable_float");
  EXPECT_TRUE(bit_identical(client.call(std::move(good)).output,
                            tonemap::tone_map(frame, good.options).output));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors_sent, 2u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// --- malformed wire input --------------------------------------------------

// Writes raw bytes to a fresh connection and expects the server to close
// it (EOF or reset on the next read) without affecting the service.
void expect_connection_rejected(std::uint16_t port,
                                const std::vector<std::uint8_t>& bytes) {
  Socket socket = Socket::connect("127.0.0.1", port);
  ASSERT_EQ(socket.send_all(bytes), SendStatus::ok);
  socket.shutdown_write(); // no more bytes, whatever the server expected
  std::vector<std::uint8_t> reply(1);
  // The server must not answer a malformed stream with a reply: the only
  // acceptable outcome is a closed connection.
  EXPECT_NE(socket.recv_all(reply), ReadStatus::ok);
}

TEST(TransportMalformedTest, MalformedStreamsCloseOnlyTheirConnection) {
  Server server(small_server(1));
  const std::uint16_t port = server.port();
  std::uint64_t expected_protocol_errors = 0;

  {
    SCOPED_TRACE("garbage magic");
    expect_connection_rejected(port, std::vector<std::uint8_t>(16, 0xff));
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("truncated header");
    const std::vector<std::uint8_t> good =
        wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}});
    expect_connection_rejected(
        port, std::vector<std::uint8_t>(good.begin(), good.begin() + 7));
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("truncated payload");
    const std::vector<std::uint8_t> good =
        wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}});
    expect_connection_rejected(
        port,
        std::vector<std::uint8_t>(good.begin(), good.end() - 5));
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("bad checksum");
    std::vector<std::uint8_t> corrupted =
        wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}});
    corrupted.back() ^= 0x40;
    expect_connection_rejected(port, corrupted);
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("oversized declared payload");
    wire::Header header;
    header.type = wire::MessageType::request;
    header.payload_bytes = wire::kMaxPayloadBytes + 1;
    header.checksum = 0;
    const auto head = wire::encode_header(header);
    expect_connection_rejected(
        port, std::vector<std::uint8_t>(head.begin(), head.end()));
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("oversized frame dimensions");
    // A correctly framed and checksummed request whose image header
    // declares out-of-range dimensions (see the wire test for layout).
    std::vector<std::uint8_t> payload;
    put_u64(payload, 7);
    put_u32(payload, 1);
    payload.push_back(1); // qos: standard
    payload.push_back(0); // deadline flag: none
    put_u64(payload, 0);  // deadline f64: 0.0
    put_u64(payload, 0x3ff0000000000000ull);
    put_u32(payload, 0);
    payload.push_back(0);
    put_u32(payload, 0);
    payload.push_back(0);
    put_u32(payload, 1);
    for (int i = 0; i < 2; ++i) {
      payload.push_back(16);
      payload.push_back(2);
      payload.push_back(2);
      payload.push_back(0);
    }
    for (int i = 0; i < 4; ++i) put_u32(payload, 0x3f800000u);
    put_u32(payload, 100000);
    put_u32(payload, 1);
    put_u32(payload, 1);
    wire::Header header;
    header.type = wire::MessageType::request;
    header.payload_bytes = static_cast<std::uint32_t>(payload.size());
    header.checksum = wire::checksum(payload);
    const auto head = wire::encode_header(header);
    // memcpy, not insert: the insert form trips a GCC 12 -Warray-bounds
    // false positive under -Werror.
    std::vector<std::uint8_t> message(head.size() + payload.size());
    std::memcpy(message.data(), head.data(), head.size());
    std::memcpy(message.data() + head.size(), payload.data(),
                payload.size());
    expect_connection_rejected(port, message);
    ++expected_protocol_errors;
  }
  {
    SCOPED_TRACE("non-request message type");
    wire::Response response;
    response.result.output = random_hdr(3, 2, 9);
    expect_connection_rejected(port, wire::encode_response(response));
    ++expected_protocol_errors;
  }

  // Connection-level rejection must not take the service down: a
  // well-formed client on a fresh connection is served normally.
  for (int i = 0; i < 50; ++i) {
    if (server.stats().protocol_errors >= expected_protocol_errors) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().protocol_errors, expected_protocol_errors);
  const img::ImageF frame = random_hdr(21, 15, 77);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  Client client({"127.0.0.1", server.port(), 5.0});
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  EXPECT_TRUE(bit_identical(client.call(std::move(job)).output,
                            tonemap::tone_map(frame, opt).output));
  EXPECT_EQ(server.stats().requests_received, 1u);
}

/// Wait (bounded) until the server has counted `n` protocol errors.
void await_protocol_errors(const Server& server, std::uint64_t n) {
  for (int i = 0; i < 500; ++i) {
    if (server.stats().protocol_errors >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(TransportMalformedTest, HostileImagePayloadsOnALiveServer) {
  // A request's samples are received straight into a pooled plane. The
  // plane is acquired only once the declared dimensions fill the payload
  // exactly, and it goes back to the pool when the message is rejected
  // after the samples have landed.
  Server server(small_server(1));
  const std::uint16_t port = server.port();
  const img::PlanePool& pool = *server.service().plane_pool();
  Client bystander({"127.0.0.1", port, 5.0}); // a connection to keep alive
  // 36 KiB of samples: more than arrives with the fields.
  const std::vector<std::uint8_t> good =
      wire::encode_request({0, {random_hdr(64, 48, 5), {}, {}, {}}});

  {
    SCOPED_TRACE("dimensions disagree with the payload size");
    // Four trailing bytes, framed with a correct header and checksum: the
    // samples the dimensions declare no longer fill the payload.
    std::vector<std::uint8_t> payload(good.begin() + wire::kHeaderBytes,
                                      good.end());
    put_u32(payload, 0);
    wire::Header header;
    header.type = wire::MessageType::request;
    header.payload_bytes = static_cast<std::uint32_t>(payload.size());
    header.checksum = wire::checksum(payload);
    const auto head = wire::encode_header(header);
    std::vector<std::uint8_t> message(head.size() + payload.size());
    std::memcpy(message.data(), head.data(), head.size());
    std::memcpy(message.data() + head.size(), payload.data(), payload.size());
    expect_connection_rejected(port, message);
    await_protocol_errors(server, 1);
    EXPECT_EQ(server.stats().protocol_errors, 1u);
    EXPECT_EQ(pool.stats().acquires, 0u); // rejected before acquiring
  }
  {
    SCOPED_TRACE("checksum mismatch in the last sample");
    std::vector<std::uint8_t> corrupted = good;
    corrupted.back() ^= 0x01;
    expect_connection_rejected(port, corrupted);
    await_protocol_errors(server, 2);
    EXPECT_EQ(server.stats().protocol_errors, 2u);
    const img::PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, 1u); // the samples landed in a plane...
    EXPECT_EQ(s.returned, s.acquires); // ...which went back to the pool
  }
  {
    SCOPED_TRACE("connection ends mid-samples");
    expect_connection_rejected(
        port, std::vector<std::uint8_t>(good.begin(),
                                        good.begin() + good.size() / 2));
    await_protocol_errors(server, 3);
    EXPECT_EQ(server.stats().protocol_errors, 3u); // a broken read
    const img::PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, 2u);
    EXPECT_EQ(s.returned, s.acquires);
  }
  EXPECT_EQ(server.stats().requests_received, 0u);

  // Only the hostile connections were cut.
  const img::ImageF frame = random_hdr(21, 15, 78);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  EXPECT_TRUE(bit_identical(bystander.call(std::move(job)).output,
                            tonemap::tone_map(frame, opt).output));
}

// --- deadlines, timeouts and injected faults -------------------------------

TEST(WireTest, EncodeRequestRejectsHostileDeadlines) {
  wire::Request request;
  request.job.frame = random_hdr(4, 4, 1);
  request.job.deadline_seconds = -1.0;
  EXPECT_THROW(wire::encode_request(request), InvalidArgument);
  request.job.deadline_seconds = std::nan("");
  EXPECT_THROW(wire::encode_request(request), InvalidArgument);
}

// RAII teardown: every fault-injection test disarms on every exit path, so
// a failing assertion cannot leak an armed site into later tests.
struct ScopedDisarm {
  ~ScopedDisarm() { fault::disarm_all(); }
};

// A listener that accepts connections and holds them open without ever
// answering — a hung server, without fault injection or timing games.
class StalledServer {
public:
  StalledServer() : listener_(0) {
    thread_ = std::thread([this] {
      for (;;) {
        Socket socket = listener_.accept();
        if (!socket.valid()) return;
        accepted_.fetch_add(1);
        held_.push_back(std::move(socket));
      }
    });
  }
  ~StalledServer() {
    listener_.shutdown();
    thread_.join();
    listener_.close();
  }
  std::uint16_t port() const { return listener_.port(); }
  int accepted() const { return accepted_.load(); }

private:
  ListenSocket listener_;
  std::thread thread_;
  std::vector<Socket> held_; // accept-thread only
  std::atomic<int> accepted_{0};
};

TEST(TransportResilienceTest, StalledServerSurfacesTypedTimeoutError) {
  StalledServer stalled;
  ClientOptions options{"127.0.0.1", stalled.port(), 2.0};
  options.request_timeout_seconds = 0.2;
  Client client(options);
  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 1);
  job.options = small_options("separable_float");
  EXPECT_THROW(client.call(std::move(job)), TimeoutError);
}

TEST(TransportResilienceTest, CallReconnectsAndRetriesBeforeGivingUp) {
  StalledServer stalled;
  ClientOptions options{"127.0.0.1", stalled.port(), 2.0};
  options.request_timeout_seconds = 0.1;
  options.max_request_retries = 2;
  options.retry_backoff_seconds = 0.01;
  Client client(options);
  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 2);
  job.options = small_options("separable_float");
  EXPECT_THROW(client.call(std::move(job)), TimeoutError);
  // Initial connect + one reconnect per retry.
  EXPECT_EQ(stalled.accepted(), 3);
}

TEST(TransportResilienceTest, BestEffortShedArrivesAsTypedOverloadedError) {
  ServerOptions options = small_server(1);
  // An admission estimate so pessimistic that any deadlined best-effort
  // job is shed at submit, deterministically.
  options.service.overload.assumed_service_seconds = 1000.0;
  Server server(options);
  Client client({"127.0.0.1", server.port(), 5.0});

  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 3);
  job.options = small_options("separable_float");
  job.qos = serve::QosClass::best_effort;
  job.deadline_seconds = 0.05;
  bool caught = false;
  try {
    client.call(std::move(job));
  } catch (const RemoteError& e) {
    caught = true;
    EXPECT_EQ(e.code(), wire::ErrorCode::overloaded);
  }
  EXPECT_TRUE(caught);

  // The connection survived the shed, and an undeadlined job is served.
  serve::FrameJob good;
  good.frame = random_hdr(9, 7, 4);
  good.options = small_options("separable_float");
  EXPECT_TRUE(
      bit_identical(client.call(std::move(good)).output,
                    tonemap::tone_map(random_hdr(9, 7, 4),
                                      small_options("separable_float"))
                        .output));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_shed, 1u);
  EXPECT_EQ(stats.errors_sent, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
}

TEST(TransportResilienceTest, ServerSideExpiryArrivesAsTypedDeadlineError) {
  ScopedDisarm teardown;
  Server server(small_server(1));
  Client client({"127.0.0.1", server.port(), 5.0});
  // A slow shard: the worker stalls 0.3 s at pickup, so the job's 50 ms
  // deadline has passed by the dequeue check.
  fault::FaultSpec spec;
  spec.action = fault::Action::delay;
  spec.delay_seconds = 0.3;
  spec.max_fires = 1;
  fault::arm("serve.worker.pickup", spec);

  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 5);
  job.options = small_options("separable_float");
  job.qos = serve::QosClass::critical;
  job.deadline_seconds = 0.05;
  bool caught = false;
  try {
    client.call(std::move(job));
  } catch (const RemoteError& e) {
    caught = true;
    EXPECT_EQ(e.code(), wire::ErrorCode::deadline_exceeded);
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(server.stats().requests_expired, 1u);
  EXPECT_EQ(server.service().stats().expired, 1u);
}

TEST(TransportResilienceTest, InjectedSendFailureSurfacesAsTransportError) {
  ScopedDisarm teardown;
  Server server(small_server(1));
  Client client({"127.0.0.1", server.port(), 5.0});
  // Arm after connecting; the only sender right now is this client (the
  // server's writer only sends when a reply exists).
  fault::FaultSpec spec;
  spec.max_fires = 1; // Action::fail: send_all reports SendStatus::error
  fault::arm("transport.socket.send", spec);
  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 6);
  job.options = small_options("separable_float");
  EXPECT_THROW(client.submit(std::move(job)), TransportError);
}

TEST(TransportResilienceTest, DroppedServerReadClosesTheConnection) {
  ScopedDisarm teardown;
  Server server(small_server(1));
  // The first recv after this arm is the server reader's header read on
  // the next accepted connection (this test's client connects next, and
  // nothing else is reading).
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::arm("transport.socket.recv", spec);
  Client client({"127.0.0.1", server.port(), 5.0});
  // Deterministic: wait for the injected drop to actually fire before
  // using the connection.
  for (int i = 0; i < 500; ++i) {
    if (fault::stats("transport.socket.recv").fires == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fault::stats("transport.socket.recv").fires, 1u);
  fault::disarm_all();
  serve::FrameJob job;
  job.frame = random_hdr(9, 7, 7);
  job.options = small_options("separable_float");
  EXPECT_THROW(client.call(std::move(job)), TransportError);
  for (int i = 0; i < 500; ++i) {
    if (server.stats().protocol_errors == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(TransportResilienceTest, ShortReadMidMessageClosesTheConnection) {
  ScopedDisarm teardown;
  Server server(small_server(1));
  // trigger_after = 1: the reader's header recv passes, the payload recv
  // fails — a short read in the middle of a framed message.
  fault::FaultSpec spec;
  spec.trigger_after = 1;
  spec.max_fires = 1;
  fault::arm("transport.socket.recv", spec);

  Socket socket = Socket::connect("127.0.0.1", server.port());
  const std::vector<std::uint8_t> message =
      wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}});
  ASSERT_EQ(socket.send_all(message), SendStatus::ok);
  for (int i = 0; i < 500; ++i) {
    if (fault::stats("transport.socket.recv").fires == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fault::stats("transport.socket.recv").fires, 1u);
  fault::disarm_all();
  // The server must close the connection, not answer half a request.
  std::vector<std::uint8_t> reply(1);
  EXPECT_NE(socket.recv_all(reply), ReadStatus::ok);
  for (int i = 0; i < 500; ++i) {
    if (server.stats().protocol_errors == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  EXPECT_EQ(server.stats().requests_received, 0u);
}

TEST(TransportResilienceTest, FailedReaderSpawnDropsOnlyThatConnection) {
  ScopedDisarm teardown;
  Server server(small_server(1));
  // The next accepted connection gets its writer, then its reader fails
  // to spawn: the accept loop tears that connection down and keeps going.
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::arm("transport.server.spawn", spec);
  Client doomed({"127.0.0.1", server.port(), 5.0});
  for (int i = 0; i < 500; ++i) {
    if (fault::stats("transport.server.spawn").fires == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fault::stats("transport.server.spawn").fires, 1u);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  const img::ImageF frame = random_hdr(9, 7, 8);
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  EXPECT_THROW(doomed.call(job), TransportError);

  Client fresh({"127.0.0.1", server.port(), 5.0});
  EXPECT_TRUE(bit_identical(fresh.call(std::move(job)).output,
                            tonemap::tone_map(frame, opt).output));
  server.stop();
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  EXPECT_EQ(server.stats().requests_received, 1u);
}

// --- lifecycle -------------------------------------------------------------

TEST(TransportTest, ServerStopDrainsAcceptedRequests) {
  std::optional<Server> server;
  server.emplace(small_server(1));
  const tonemap::PipelineOptions opt = small_options("separable_float");
  constexpr int kJobs = 4;
  std::vector<img::ImageF> frames;
  Client client({"127.0.0.1", server->port(), 5.0});
  for (int i = 0; i < kJobs; ++i) {
    frames.push_back(random_hdr(23, 19, 400 + static_cast<std::uint64_t>(i)));
    serve::FrameJob job;
    job.frame = frames.back();
    job.options = opt;
    client.submit(std::move(job));
  }
  // Wait until the server has decoded and accepted every request — the
  // drain guarantee covers accepted requests, not bytes still in socket
  // buffers.
  for (int i = 0; i < 500; ++i) {
    if (server->stats().requests_received == kJobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->stats().requests_received,
            static_cast<std::uint64_t>(kJobs));
  server->stop();
  // Every accepted request was answered before the connection closed.
  for (int i = 0; i < kJobs; ++i) {
    wire::Response r = client.next_result();
    const auto index = static_cast<std::size_t>(r.request_id);
    EXPECT_TRUE(bit_identical(
        r.result.output, tonemap::tone_map(frames[index], opt).output));
  }
  server.reset();
}

TEST(TransportTest, ClientFinishRequestsEndsTheConversationCleanly) {
  Server server(small_server(1));
  const tonemap::PipelineOptions opt = small_options("separable_float");
  const img::ImageF frame = random_hdr(15, 11, 88);
  {
    Client client({"127.0.0.1", server.port(), 5.0});
    serve::FrameJob job;
    job.frame = frame;
    job.options = opt;
    client.submit(std::move(job));
    client.finish_requests(); // half-close: reply still readable
    EXPECT_TRUE(bit_identical(client.next_result().result.output,
                              tonemap::tone_map(frame, opt).output));
  }
  // The server observes EOF and retires the connection without counting
  // a protocol error.
  for (int i = 0; i < 100; ++i) {
    if (server.stats().connections_active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_active, 0u);
}

TEST(TransportTest, RepliesLeaveInCompletionOrder) {
  ScopedDisarm teardown;
  Server server(small_server(2));
  Client client({"127.0.0.1", server.port(), 5.0});
  const tonemap::PipelineOptions opt = small_options("separable_float");
  const img::ImageF frame_a = random_hdr(19, 13, 500);
  const img::ImageF frame_b = random_hdr(19, 13, 501);
  // Hold A's shard at pickup; B then lands on the idle shard.
  fault::FaultSpec hold;
  hold.action = fault::Action::delay;
  hold.delay_seconds = 2.0;
  hold.max_fires = 1;
  fault::arm("serve.worker.pickup", hold);

  serve::FrameJob a;
  a.frame = frame_a;
  a.options = opt;
  const std::uint64_t a_id = client.submit(std::move(a));
  for (int i = 0; i < 1000; ++i) {
    if (fault::stats("serve.worker.pickup").fires == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fault::stats("serve.worker.pickup").fires, 1u);
  serve::FrameJob b;
  b.frame = frame_b;
  b.options = opt;
  const std::uint64_t b_id = client.submit(std::move(b));

  const wire::Response first = client.next_result();
  EXPECT_EQ(first.request_id, b_id);
  // A is still held: only B has completed service-side.
  EXPECT_EQ(server.service().stats().completed, 1u);
  EXPECT_TRUE(bit_identical(first.result.output,
                            tonemap::tone_map(frame_b, opt).output));
  const wire::Response second = client.next_result();
  EXPECT_EQ(second.request_id, a_id);
  EXPECT_TRUE(bit_identical(second.result.output,
                            tonemap::tone_map(frame_a, opt).output));
}

TEST(TransportTest, ConnectionChurnWithJobsInFlightKeepsServing) {
  ScopedDisarm teardown;
  constexpr int kConnections = 16;
  ServerOptions options = small_server(2);
  // Room to admit every request, so each reader decodes its full window.
  options.service.queue_capacity =
      kConnections * options.max_in_flight_per_connection;
  Server server(options);
  const tonemap::PipelineOptions opt = small_options("separable_float");
  // Both shards stall at their first pickup, so every churned job is
  // still queued or running when its client vanishes.
  fault::FaultSpec hold;
  hold.action = fault::Action::delay;
  hold.delay_seconds = 1.0;
  hold.max_fires = 2;
  fault::arm("serve.worker.pickup", hold);

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<Client>(
        ClientOptions{"127.0.0.1", server.port(), 5.0}));
  }
  for (auto& client : clients) {
    for (int j = 0; j < options.max_in_flight_per_connection; ++j) {
      serve::FrameJob job;
      job.frame = random_hdr(12, 8, 600 + static_cast<std::uint64_t>(j));
      job.options = opt;
      client->submit(std::move(job));
    }
  }
  const auto requests =
      static_cast<std::uint64_t>(kConnections) *
      static_cast<std::uint64_t>(options.max_in_flight_per_connection);
  for (int i = 0; i < 5000; ++i) {
    if (server.stats().requests_received == requests) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.stats().requests_received, requests);
  // Disconnect with every window full: completions keep arriving for
  // connections whose peer is gone. Meanwhile keep connecting: every
  // accept reaps the connections that have finished, racing the
  // completions still queueing replies on them.
  for (auto& client : clients) client->close();
  for (int i = 0; i < 5000; ++i) {
    if (server.service().stats().completed == requests) break;
    Client probe({"127.0.0.1", server.port(), 5.0});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const img::ImageF frame = random_hdr(21, 15, 700);
  Client fresh({"127.0.0.1", server.port(), 5.0});
  serve::FrameJob job;
  job.frame = frame;
  job.options = opt;
  EXPECT_TRUE(bit_identical(fresh.call(std::move(job)).output,
                            tonemap::tone_map(frame, opt).output));

  server.stop();
  const serve::ServiceStats s = server.service().stats();
  EXPECT_EQ(s.submitted, requests + 1);
  EXPECT_EQ(s.submitted, s.completed + s.failed + s.expired);
  EXPECT_EQ(s.queue_depth + s.in_flight, 0u);
}

TEST(TransportTest, OptionValidationAndConnectFailures) {
  ServerOptions bad;
  bad.max_in_flight_per_connection = 0;
  EXPECT_THROW(Server{bad}, InvalidArgument);
  bad = {};
  bad.max_connections = 0;
  EXPECT_THROW(Server{bad}, InvalidArgument);
  bad = {};
  bad.service.shards = 0;
  EXPECT_THROW(Server{bad}, InvalidArgument);

  // Connecting to a port nobody listens on fails after the retry window.
  std::uint16_t free_port;
  {
    ListenSocket probe(0);
    free_port = probe.port();
  } // closed: nothing listens there now
  EXPECT_THROW(Client({"127.0.0.1", free_port, 0.2}), TransportError);
}

} // namespace
} // namespace tmhls::transport
