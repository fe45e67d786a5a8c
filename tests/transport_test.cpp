// Tests for the socket transport: wire-format round trips (options, fixed
// formats, frame bytes — NaN patterns included) and a golden-bytes pin of
// the on-wire layout; loopback byte-identity of transport::Client against
// the blocking tone_map() for every registered backend; pipelined
// submission with request-id correlation; the error contract (execution
// errors arrive as RemoteError and the connection survives; protocol
// violations close the connection and only the connection); clean
// drain on Server::stop(); and the resilience contract — typed timeout,
// bounded retry against a stalled server, shed/expired replies carrying
// their wire error codes, and injected socket faults (dropped and short
// reads, failed sends) closing only the connection they hit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
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

  const wire::Request decoded = wire::decode_request(payload);
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
  response.result.backend = "separable_simd";
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
  // The exact bytes of a v5 error message with id 1, code generic and
  // message "hi" — recorded by hand from the format table in wire.hpp.
  // This pins the on-wire layout (magic, little-endian fields, the code
  // byte, FNV-1a checksum): any encoder change that alters these bytes
  // is a protocol break and must bump kVersion. (Only the header's
  // version field changed from the v4 pin: the checksum covers the
  // payload alone.)
  const std::vector<std::uint8_t> expected{
      0x54, 0x4d, 0x48, 0x57, 0x05, 0x00, 0x03, 0x00, 0x0f, 0x00, 0x00,
      0x00, 0x01, 0x05, 0x60, 0x5f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x68, 0x69};
  EXPECT_EQ(wire::encode_error({1, wire::ErrorCode::generic, "hi"}),
            expected);

  const wire::ErrorReply decoded = wire::decode_error(
      std::span<const std::uint8_t>(expected).subspan(wire::kHeaderBytes));
  EXPECT_EQ(decoded.request_id, 1u);
  EXPECT_EQ(decoded.code, wire::ErrorCode::generic);
  EXPECT_EQ(decoded.message, "hi");
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
  open.config.pipeline = small_options("separable_simd");
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
    const std::vector<std::uint8_t> message =
        wire::encode_stream_frame(frame);
    const wire::StreamFrame decoded = wire::decode_stream_frame(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.stream_id, 3u);
    EXPECT_EQ(decoded.sequence, 41u);
    EXPECT_TRUE(bit_identical(decoded.frame, frame.frame));
  }
  {
    wire::StreamResult result;
    result.stream_id = 3;
    result.sequence = 41;
    result.rung = serve::DegradeLevel::reduced_blur;
    result.backend = "separable_simd";
    result.service_seconds = 1.25e-3;
    result.output = random_hdr(6, 4, 18);
    const std::vector<std::uint8_t> message =
        wire::encode_stream_result(result);
    const wire::StreamResult decoded = wire::decode_stream_result(
        std::span<const std::uint8_t>(message).subspan(wire::kHeaderBytes));
    EXPECT_EQ(decoded.sequence, 41u);
    EXPECT_EQ(decoded.rung, serve::DegradeLevel::reduced_blur);
    EXPECT_EQ(decoded.backend, "separable_simd");
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
  const std::vector<std::uint8_t> message =
      wire::encode_request({0, {random_hdr(4, 3, 1), {}, {}, {}}});
  // Payload layout: u64 id, u8 qos, u8 deadline flag, f64 deadline value.
  const std::size_t flag_at = wire::kHeaderBytes + 8 + 1;
  auto decode_mutated = [&](auto mutate) {
    std::vector<std::uint8_t> bytes = message;
    mutate(bytes);
    return wire::decode_request(
        std::span<const std::uint8_t>(bytes).subspan(wire::kHeaderBytes));
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
  EXPECT_FALSE(wire::decode_request(
                   std::span<const std::uint8_t>(message).subspan(
                       wire::kHeaderBytes))
                   .job.deadline_seconds.has_value());
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
  EXPECT_THROW(wire::decode_request(payload), WireError);

  // The same payload with in-range dimensions but missing sample bytes
  // must be rejected by the declared-vs-available check too.
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 12);
  put_u32(truncated, 64);
  put_u32(truncated, 64);
  put_u32(truncated, 1); // 16 KiB of samples declared, none present
  EXPECT_THROW(wire::decode_request(truncated), WireError);
}

TEST(WireTest, RejectedPayloadsNeverLeakPooledPlanes) {
  // The transport decodes frame payloads straight into pool planes (the
  // reader thread runs under the service pool's scope), so every rejected
  // message must leave the pool balanced: either the decoder rejected the
  // payload before allocating, or the plane it allocated was returned
  // during unwinding. Pool balance is checked after each rejection.
  // Valid payloads (headers stripped) to mutate — built BEFORE the scope
  // is installed, so the pool's counters see only the decoder's planes.
  wire::Request request;
  request.request_id = 9;
  request.job.frame = random_hdr(8, 6, 3);
  request.job.options.sigma = 1.0;
  const std::vector<std::uint8_t> message = wire::encode_request(request);
  const std::vector<std::uint8_t> payload(
      message.begin() + wire::kHeaderBytes, message.end());

  wire::StreamFrame frame;
  frame.stream_id = 3;
  frame.sequence = 1;
  frame.frame = random_hdr(8, 6, 4);
  const std::vector<std::uint8_t> fmsg = wire::encode_stream_frame(frame);

  img::PlanePool pool;
  const img::PlanePool::Scope scope(pool);

  const auto expect_balanced = [&pool](std::uint64_t expected_acquires) {
    const img::PoolStats s = pool.stats();
    EXPECT_EQ(s.acquires, expected_acquires);
    EXPECT_EQ(s.returned, s.acquires); // nothing outstanding -> no leak
  };

  {
    SCOPED_TRACE("truncated frame payload");
    // Sample bytes cut short: rejected by the declared-vs-available check
    // BEFORE the plane is allocated.
    const std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 9);
    EXPECT_THROW((void)wire::decode_request(cut), WireError);
    expect_balanced(0);
  }
  {
    SCOPED_TRACE("oversized frame payload");
    // Width inflated beyond the dimension bound (the image header sits
    // 12 bytes before the sample data): rejected before allocation.
    std::vector<std::uint8_t> inflated = payload;
    const std::size_t sample_bytes =
        static_cast<std::size_t>(8 * 6 * 3) * 4;
    const std::size_t width_at = inflated.size() - sample_bytes - 12;
    inflated[width_at] = 0xff;
    inflated[width_at + 1] = 0xff;
    inflated[width_at + 2] = 0xff;
    EXPECT_THROW((void)wire::decode_request(inflated), WireError);
    expect_balanced(0);
  }
  {
    SCOPED_TRACE("trailing bytes after a decoded frame");
    // The frame itself decodes into a pooled plane, then the trailing
    // byte fails the exact-consumption check — unwinding must return the
    // plane to the pool.
    std::vector<std::uint8_t> trailing = payload;
    trailing.push_back(0x5a);
    EXPECT_THROW((void)wire::decode_request(trailing), WireError);
    expect_balanced(1);
  }
  {
    SCOPED_TRACE("truncated stream frame payload");
    std::vector<std::uint8_t> fcut(fmsg.begin() + wire::kHeaderBytes,
                                   fmsg.end() - 7);
    EXPECT_THROW((void)wire::decode_stream_frame(fcut), WireError);
    expect_balanced(1); // unchanged: rejected before allocating
  }
  {
    SCOPED_TRACE("trailing bytes after a decoded stream frame");
    std::vector<std::uint8_t> ftrailing(fmsg.begin() + wire::kHeaderBytes,
                                        fmsg.end());
    ftrailing.push_back(0x5a);
    EXPECT_THROW((void)wire::decode_stream_frame(ftrailing), WireError);
    expect_balanced(2); // the stream frame's plane came back too
  }

  // And the healthy path under the same scope, for contrast: the decoded
  // frame IS a pooled plane (one acquisition, still live, then returned).
  {
    const wire::Request decoded = wire::decode_request(payload);
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
  const tonemap::PipelineOptions opt = small_options("separable_simd");
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
    ClientResult r = client.next_result();
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
    ClientResult r = client.next_result();
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
    ClientResult r = client.next_result();
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
