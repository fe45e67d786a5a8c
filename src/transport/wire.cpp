#include "transport/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TMHLS_CRC32C_X86 1
#endif

#include "fixed/fixed_format.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::transport::wire {

namespace {

// --- primitive little-endian encoding -------------------------------------
// Bytes are assembled and reassembled explicitly, so the on-wire order is
// fixed whatever the host's endianness.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));
}

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

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  TMHLS_REQUIRE(s.size() <= kMaxStringBytes,
                "wire: string field exceeds kMaxStringBytes: " +
                    std::to_string(s.size()));
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounded cursor over one payload. Every read checks the remaining
/// length and throws WireError naming the underrun — decoders never walk
/// past the declared payload.
class Reader {
public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string string() {
    const std::uint32_t n = u32();
    if (n > kMaxStringBytes) {
      throw WireError("wire: string length " + std::to_string(n) +
                      " exceeds kMaxStringBytes");
    }
    const auto b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Consume `n` raw bytes (bounds-checked like every other read) — the
  /// bulk form read_image uses to blit a plane payload in one go.
  std::span<const std::uint8_t> bytes(std::size_t n) { return take(n); }

  std::size_t remaining() const { return bytes_.size() - offset_; }

  /// Throws unless the payload was consumed exactly — trailing bytes mean
  /// the two endpoints disagree about the format.
  void expect_exhausted(const char* what) const {
    if (remaining() != 0) {
      throw WireError(std::string("wire: ") + what + " payload has " +
                      std::to_string(remaining()) + " trailing byte(s)");
    }
  }

private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw WireError("wire: payload truncated (need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()) + ")");
    }
    const auto view = bytes_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

// --- enum codes ------------------------------------------------------------
// Explicit on-wire codes, independent of the in-memory enum values, so a
// reordering refactor on one endpoint cannot silently change the protocol.

std::uint8_t code_of(tonemap::Datapath datapath) {
  // Code 0 was from_blur_kind in protocol version 3; unspecified is its
  // v4 successor with the same "follow the backend" meaning, so the code
  // is stable across the rename.
  switch (datapath) {
    case tonemap::Datapath::unspecified: return 0;
    case tonemap::Datapath::float32: return 1;
    case tonemap::Datapath::fixed_point: return 2;
  }
  throw WireError("wire: unencodable Datapath");
}

tonemap::Datapath datapath_of(std::uint8_t code) {
  switch (code) {
    case 0: return tonemap::Datapath::unspecified;
    case 1: return tonemap::Datapath::float32;
    case 2: return tonemap::Datapath::fixed_point;
  }
  throw WireError("wire: unknown Datapath code " + std::to_string(code));
}

std::uint8_t code_of(serve::QosClass qos) {
  switch (qos) {
    case serve::QosClass::best_effort: return 0;
    case serve::QosClass::standard: return 1;
    case serve::QosClass::critical: return 2;
  }
  throw WireError("wire: unencodable QosClass");
}

serve::QosClass qos_of(std::uint8_t code) {
  switch (code) {
    case 0: return serve::QosClass::best_effort;
    case 1: return serve::QosClass::standard;
    case 2: return serve::QosClass::critical;
  }
  throw WireError("wire: unknown QosClass code " + std::to_string(code));
}

std::uint8_t code_of(serve::DegradeLevel level) {
  switch (level) {
    case serve::DegradeLevel::none: return 0;
    case serve::DegradeLevel::reduced_blur: return 1;
    case serve::DegradeLevel::global_operator: return 2;
  }
  throw WireError("wire: unencodable DegradeLevel");
}

serve::DegradeLevel degrade_of(std::uint8_t code) {
  switch (code) {
    case 0: return serve::DegradeLevel::none;
    case 1: return serve::DegradeLevel::reduced_blur;
    case 2: return serve::DegradeLevel::global_operator;
  }
  throw WireError("wire: unknown DegradeLevel code " + std::to_string(code));
}

std::uint8_t code_of(ErrorCode code) {
  switch (code) {
    case ErrorCode::generic: return 0;
    case ErrorCode::invalid_argument: return 1;
    case ErrorCode::overloaded: return 2;
    case ErrorCode::deadline_exceeded: return 3;
  }
  throw WireError("wire: unencodable ErrorCode");
}

ErrorCode error_code_of(std::uint8_t code) {
  switch (code) {
    case 0: return ErrorCode::generic;
    case 1: return ErrorCode::invalid_argument;
    case 2: return ErrorCode::overloaded;
    case 3: return ErrorCode::deadline_exceeded;
  }
  throw WireError("wire: unknown ErrorCode code " + std::to_string(code));
}

std::uint8_t code_of(fixed::Round round) {
  switch (round) {
    case fixed::Round::truncate: return 0;
    case fixed::Round::toward_zero: return 1;
    case fixed::Round::half_up: return 2;
    case fixed::Round::half_even: return 3;
  }
  throw WireError("wire: unencodable Round");
}

fixed::Round round_of(std::uint8_t code) {
  switch (code) {
    case 0: return fixed::Round::truncate;
    case 1: return fixed::Round::toward_zero;
    case 2: return fixed::Round::half_up;
    case 3: return fixed::Round::half_even;
  }
  throw WireError("wire: unknown Round code " + std::to_string(code));
}

std::uint8_t code_of(fixed::Overflow overflow) {
  switch (overflow) {
    case fixed::Overflow::saturate: return 0;
    case fixed::Overflow::wrap: return 1;
  }
  throw WireError("wire: unencodable Overflow");
}

fixed::Overflow overflow_of(std::uint8_t code) {
  switch (code) {
    case 0: return fixed::Overflow::saturate;
    case 1: return fixed::Overflow::wrap;
  }
  throw WireError("wire: unknown Overflow code " + std::to_string(code));
}

// --- composites ------------------------------------------------------------

void put_fixed_format(std::vector<std::uint8_t>& out,
                      const fixed::FixedFormat& format) {
  put_u8(out, static_cast<std::uint8_t>(format.width()));
  put_u8(out, static_cast<std::uint8_t>(format.int_bits()));
  put_u8(out, code_of(format.round()));
  put_u8(out, code_of(format.overflow()));
}

fixed::FixedFormat read_fixed_format(Reader& in) {
  const int width = in.u8();
  const int int_bits = in.u8();
  const fixed::Round round = round_of(in.u8());
  const fixed::Overflow overflow = overflow_of(in.u8());
  // Validate here so a hostile width surfaces as WireError, not as the
  // constructor's InvalidArgument (which servers treat as an execution
  // error instead of a protocol violation).
  if (width < 1 || width > 32 || int_bits < 1 || int_bits > width) {
    throw WireError("wire: invalid fixed-point format " +
                    std::to_string(width) + "/" + std::to_string(int_bits));
  }
  return fixed::FixedFormat(width, int_bits, round, overflow);
}

void put_options(std::vector<std::uint8_t>& out,
                 const tonemap::PipelineOptions& opt) {
  put_f64(out, opt.sigma);
  put_i32(out, opt.radius);
  put_string(out, opt.backend);
  put_u8(out, code_of(opt.datapath));
  put_i32(out, opt.threads);
  put_fixed_format(out, opt.fixed.data);
  put_fixed_format(out, opt.fixed.accumulator);
  put_f32(out, opt.display_gamma);
  put_f32(out, opt.normalization_scale);
  put_f32(out, opt.brightness);
  put_f32(out, opt.contrast);
}

tonemap::PipelineOptions read_options(Reader& in) {
  tonemap::PipelineOptions opt;
  opt.sigma = in.f64();
  opt.radius = in.i32();
  opt.backend = in.string();
  opt.datapath = datapath_of(in.u8());
  opt.threads = in.i32();
  opt.fixed.data = read_fixed_format(in);
  opt.fixed.accumulator = read_fixed_format(in);
  opt.display_gamma = in.f32();
  opt.normalization_scale = in.f32();
  opt.brightness = in.f32();
  opt.contrast = in.f32();
  return opt;
}

/// The dimensions at the head of an image field.
struct Shape {
  int width, height, channels;
  std::size_t bytes() const {
    return std::size_t{4} * static_cast<std::size_t>(width) *
           static_cast<std::size_t>(height) *
           static_cast<std::size_t>(channels);
  }
};

/// The image field's dimensions; its samples follow as a separate piece.
void put_shape(std::vector<std::uint8_t>& out, const img::ImageF& image) {
  TMHLS_REQUIRE(!image.empty(), "wire: cannot encode an empty image");
  TMHLS_REQUIRE(image.width() <= kMaxDimension &&
                    image.height() <= kMaxDimension,
                "wire: image dimensions exceed kMaxDimension");
  put_u32(out, static_cast<std::uint32_t>(image.width()));
  put_u32(out, static_cast<std::uint32_t>(image.height()));
  put_u32(out, static_cast<std::uint32_t>(image.channels()));
}

Shape read_shape(Reader& in) {
  const std::uint32_t width = in.u32();
  const std::uint32_t height = in.u32();
  const std::uint32_t channels = in.u32();
  if (width < 1 || width > static_cast<std::uint32_t>(kMaxDimension) ||
      height < 1 || height > static_cast<std::uint32_t>(kMaxDimension)) {
    throw WireError("wire: image dimensions " + std::to_string(width) + "x" +
                    std::to_string(height) + " outside [1, " +
                    std::to_string(kMaxDimension) + "]");
  }
  if (channels < 1 || channels > 4) {
    throw WireError("wire: image channels " + std::to_string(channels) +
                    " outside [1, 4]");
  }
  return {static_cast<int>(width), static_cast<int>(height),
          static_cast<int>(channels)};
}

img::ImageF read_image(Reader& in) {
  const Shape shape = read_shape(in);
  // The declared geometry must be backed by actual payload bytes *before*
  // the image is allocated: an attacker-controlled header must never turn
  // into an attacker-sized allocation.
  if (in.remaining() < shape.bytes()) {
    throw WireError("wire: image data truncated (" +
                    std::to_string(shape.bytes()) + " bytes declared, " +
                    std::to_string(in.remaining()) + " available)");
  }
  // On a pooled thread this recycles a retained plane, unfilled: the copy
  // below writes every sample.
  img::ImageF image(shape.width, shape.height, shape.channels,
                    img::uninitialized);
  if constexpr (std::endian::native == std::endian::little) {
    // Samples are consecutive little-endian f32 words, which on a
    // little-endian host is exactly the plane's memory representation.
    const auto raw = in.bytes(shape.bytes());
    std::memcpy(image.samples().data(), raw.data(), raw.size());
  } else {
    for (float& v : image.samples()) v = in.f32();
  }
  return image;
}

/// Upper bound on what a payload spends outside its string and image
/// fields: ids, enum codes, numbers, option fields and length prefixes.
constexpr std::size_t kFieldBytes = 128;

/// An empty message: kHeaderBytes of placeholder for seal to fill, and
/// capacity for the fields — kFieldBytes plus `variable_bytes` of strings
/// — so they are appended without a reallocation.
std::vector<std::uint8_t> begin_message(std::size_t variable_bytes = 0) {
  std::vector<std::uint8_t> message;
  message.reserve(kHeaderBytes + kFieldBytes + variable_bytes);
  message.resize(kHeaderBytes);
  return message;
}

/// Fill the header of a begin_message buffer for `type` in place, over
/// the payload that follows it and then `samples` (an image message's
/// samples, sent from their plane), and return the buffer.
std::vector<std::uint8_t> seal(MessageType type,
                               std::vector<std::uint8_t> message,
                               std::span<const std::uint8_t> samples = {}) {
  const auto fields =
      std::span<const std::uint8_t>(message).subspan(kHeaderBytes);
  TMHLS_REQUIRE(fields.size() + samples.size() <= kMaxPayloadBytes,
                "wire: payload exceeds kMaxPayloadBytes");
  Header header;
  header.type = type;
  header.payload_bytes =
      static_cast<std::uint32_t>(fields.size() + samples.size());
  header.checksum = checksum(checksum(fields), samples);
  const auto head = encode_header(header);
  std::copy(head.begin(), head.end(), message.begin());
  return message;
}

// --- CRC32C ----------------------------------------------------------------

/// The Castagnoli polynomial, bit-reflected.
constexpr std::uint32_t kCrc32cPolynomial = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPolynomial : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = crc32c_table();

/// The CRC32C of `bytes` continued from `crc`, the CRC32C of the bytes
/// before them (0 for none): the running register is the complement of
/// the CRC so far, so a piece-wise CRC picks up where the last piece left
/// off.
std::uint32_t crc32c_extend_portable(std::uint32_t crc,
                                     std::span<const std::uint8_t> bytes) {
  crc = ~crc;
  for (std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ byte) & 0xffu];
  }
  return ~crc;
}

#ifdef TMHLS_CRC32C_X86
// Three crc32 chains at once: the instruction's latency is three times its
// issue interval, so one dependent chain leaves the unit two-thirds idle
// (Gopal et al., Intel, "Fast CRC Computation for iSCSI Polynomial Using
// CRC32 Instruction", 2011). A round runs one chain over each of three
// adjacent blocks, the second and third from a zero register, and joins
// them: the register after blocks a then b is shift(a) ^ b, where shift
// appends a block of zero bytes.

using ShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

/// GF(2) 32x32 matrix (column i is the image of bit i) times a vector.
constexpr std::uint32_t gf2_times(const std::array<std::uint32_t, 32>& m,
                                  std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) sum ^= (v & 1u) ? m[i] : 0u;
  return sum;
}

/// shift for `bytes` zero bytes (a power of two), as four byte-indexed
/// tables: shift(r) = t[0][r & 0xff] ^ t[1][(r >> 8) & 0xff] ^ ...
constexpr ShiftTables crc32c_shift_tables(std::size_t bytes) {
  std::array<std::uint32_t, 32> op{kCrc32cPolynomial}; // one zero bit
  for (std::size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) {
    std::array<std::uint32_t, 32> square{};
    for (std::size_t i = 0; i < 32; ++i) square[i] = gf2_times(op, op[i]);
    op = square;
  }
  ShiftTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (std::size_t k = 0; k < 4; ++k) {
      tables[k][n] = gf2_times(op, n << (8 * k));
    }
  }
  return tables;
}

constexpr ShiftTables kShiftLong = crc32c_shift_tables(8192);
constexpr ShiftTables kShiftShort = crc32c_shift_tables(256);

/// Words are loaded with memcpy, so a payload at any address is
/// well-defined; x86 is little-endian, so each word holds its bytes in
/// stream order, the order the instruction consumes them in.
__attribute__((target("sse4.2"))) inline std::uint64_t
crc32c_word(std::uint64_t r, const std::uint8_t* bytes) {
  std::uint64_t word;
  std::memcpy(&word, bytes, 8);
  return _mm_crc32_u64(r, word);
}

/// Three-chain rounds of `block` bytes per chain while they fit.
__attribute__((target("sse4.2"))) inline std::uint64_t
crc32c_rounds(std::uint64_t r, const std::uint8_t*& bytes, std::size_t& n,
              std::size_t block, const ShiftTables& t) {
  const auto shift = [&t](std::uint64_t x) {
    return t[0][x & 0xffu] ^ t[1][(x >> 8) & 0xffu] ^
           t[2][(x >> 16) & 0xffu] ^ t[3][(x >> 24) & 0xffu];
  };
  for (; n >= 3 * block; bytes += 3 * block, n -= 3 * block) {
    std::uint64_t r1 = 0;
    std::uint64_t r2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      r = crc32c_word(r, bytes + i);
      r1 = crc32c_word(r1, bytes + block + i);
      r2 = crc32c_word(r2, bytes + 2 * block + i);
    }
    r = shift(shift(r) ^ r1) ^ r2;
  }
  return r;
}

/// Long rounds for the bulk of a frame, short rounds for what is left of
/// it, one chain for the last < 768 bytes.
__attribute__((target("sse4.2"))) std::uint32_t
crc32c_extend_sse42(std::uint32_t crc, const std::uint8_t* bytes,
                    std::size_t n) {
  std::uint64_t r = ~crc;
  r = crc32c_rounds(r, bytes, n, 8192, kShiftLong);
  r = crc32c_rounds(r, bytes, n, 256, kShiftShort);
  for (; n >= 8; bytes += 8, n -= 8) r = crc32c_word(r, bytes);
  auto crc32 = static_cast<std::uint32_t>(r);
  for (; n > 0; ++bytes, --n) crc32 = _mm_crc32_u8(crc32, *bytes);
  return ~crc32;
}
#endif

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> bytes) {
#ifdef TMHLS_CRC32C_X86
  if (detail::crc32c_hardware_available()) {
    return crc32c_extend_sse42(crc, bytes.data(), bytes.size());
  }
#endif
  return crc32c_extend_portable(crc, bytes);
}

// --- image messages ----------------------------------------------------------
// Request, response, stream frame and stream result payloads all end in one
// image field, [width][height][channels][samples]. Each message's fields
// before it are written in one place, put_fields, and read in one place,
// read_fields; both return the message's image, which the samples are sent
// from or received into.

const img::ImageF& put_fields(std::vector<std::uint8_t>& out,
                              const Request& request) {
  TMHLS_REQUIRE(!request.job.deadline_seconds ||
                    (std::isfinite(*request.job.deadline_seconds) &&
                     *request.job.deadline_seconds >= 0.0),
                "wire: deadline_seconds must be finite and >= 0");
  put_u64(out, request.request_id);
  put_u8(out, code_of(request.job.qos));
  // "No deadline" travels as an explicit flag byte (v3): the f64 that
  // follows is only meaningful when the flag is 1, and must be zero
  // otherwise so every no-deadline request has exactly one encoding.
  put_u8(out, request.job.deadline_seconds.has_value() ? 1 : 0);
  put_f64(out, request.job.deadline_seconds.value_or(0.0));
  put_options(out, request.job.options);
  return request.job.frame;
}

const img::ImageF& put_fields(std::vector<std::uint8_t>& out,
                              const Response& response) {
  put_u64(out, response.request_id);
  put_u64(out, response.result.job_id);
  put_i32(out, response.result.shard);
  put_u8(out, code_of(response.result.degrade));
  put_string(out, response.result.backend);
  put_f64(out, response.result.queue_seconds);
  put_f64(out, response.result.service_seconds);
  return response.result.output;
}

const img::ImageF& put_fields(std::vector<std::uint8_t>& out,
                              const StreamFrame& frame) {
  put_u64(out, frame.stream_id);
  put_u64(out, frame.sequence);
  return frame.frame;
}

const img::ImageF& put_fields(std::vector<std::uint8_t>& out,
                              const StreamResult& result) {
  put_u64(out, result.stream_id);
  put_u64(out, result.sequence);
  put_u8(out, code_of(result.rung));
  put_string(out, result.backend);
  put_f64(out, result.service_seconds);
  return result.output;
}

img::ImageF& read_fields(Reader& in, Request& request) {
  request.request_id = in.u64();
  request.job.qos = qos_of(in.u8());
  const std::uint8_t has_deadline = in.u8();
  if (has_deadline > 1) {
    throw WireError("wire: deadline flag must be 0 or 1, got " +
                    std::to_string(has_deadline));
  }
  const double deadline = in.f64();
  // The deadline is relative (seconds from server-side admission), so no
  // clock synchronisation is assumed — but hostile bit patterns (NaN,
  // infinities, negatives) are a protocol violation, not an execution
  // error. An absent deadline must carry exactly 0.0 so each request has
  // a single canonical encoding.
  if (has_deadline == 1) {
    if (!std::isfinite(deadline) || deadline < 0.0) {
      throw WireError("wire: deadline_seconds must be finite and >= 0");
    }
    request.job.deadline_seconds = deadline;
  } else if (deadline != 0.0) {
    throw WireError("wire: deadline value must be 0 when the flag is 0");
  }
  request.job.options = read_options(in);
  return request.job.frame;
}

img::ImageF& read_fields(Reader& in, Response& response) {
  response.request_id = in.u64();
  response.result.job_id = in.u64();
  response.result.shard = in.i32();
  response.result.degrade = degrade_of(in.u8());
  response.result.backend = in.string();
  response.result.queue_seconds = in.f64();
  response.result.service_seconds = in.f64();
  return response.result.output;
}

img::ImageF& read_fields(Reader& in, StreamFrame& frame) {
  frame.stream_id = in.u64();
  frame.sequence = in.u64();
  return frame.frame;
}

img::ImageF& read_fields(Reader& in, StreamResult& result) {
  result.stream_id = in.u64();
  result.sequence = in.u64();
  result.rung = degrade_of(in.u8());
  result.backend = in.string();
  result.service_seconds = in.f64();
  return result.output;
}

MessageType type_of(const Request&) { return MessageType::request; }
MessageType type_of(const Response&) { return MessageType::response; }
MessageType type_of(const StreamFrame&) { return MessageType::stream_frame; }
MessageType type_of(const StreamResult&) { return MessageType::stream_result; }

/// The copying form of an encoded message: both pieces in one buffer.
template <typename Message>
std::vector<std::uint8_t> encode_joined(const Message& message) {
  const OutboundMessage parts = encode_parts(message);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(parts.head.size() + parts.samples.size());
  bytes.insert(bytes.end(), parts.head.begin(), parts.head.end());
  bytes.insert(bytes.end(), parts.samples.begin(), parts.samples.end());
  return bytes;
}

/// Decode a whole image-message payload (header already checked).
template <typename Message>
Message decode_image_message(std::span<const std::uint8_t> payload,
                             const char* what) {
  Reader in(payload);
  Message message;
  // Two statements: in `a = b` the right side runs first, and the fields
  // come before the image on the wire.
  img::ImageF& slot = read_fields(in, message);
  slot = read_image(in);
  in.expect_exhausted(what);
  return message;
}

} // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes) {
  return crc32c_extend_portable(0, bytes);
}

bool crc32c_hardware_available() {
#ifdef TMHLS_CRC32C_X86
  static const bool has = __builtin_cpu_supports("sse4.2") != 0;
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32c_hardware(std::span<const std::uint8_t> bytes) {
#ifdef TMHLS_CRC32C_X86
  return crc32c_extend_sse42(0, bytes.data(), bytes.size());
#else
  // No crc32 instruction on this ISA; checksum() never selects this path.
  return crc32c_portable(bytes);
#endif
}

} // namespace detail

std::uint32_t checksum(std::span<const std::uint8_t> payload) {
  return crc32c_extend(0, payload);
}

std::uint32_t checksum(std::uint32_t crc, std::span<const std::uint8_t> more) {
  return crc32c_extend(crc, more);
}

template <typename Message>
OutboundMessage encode_parts(const Message& message) {
  std::vector<std::uint8_t> head = begin_message();
  const img::ImageF& image = put_fields(head, message);
  put_shape(head, image);
  std::span<const std::uint8_t> samples;
  if constexpr (std::endian::native == std::endian::little) {
    // The plane's memory already is the wire's run of little-endian f32
    // words: the samples are sent from where they lie.
    samples = {reinterpret_cast<const std::uint8_t*>(image.samples().data()),
               image.sample_count() * 4};
  } else {
    for (float v : image.samples()) put_f32(head, v);
  }
  return {seal(type_of(message), std::move(head), samples), samples};
}

template <typename Message>
bool receive_payload(const Header& header, const Receive& receive,
                     Message& out) {
  // Everything before the samples is at most the fields, one string and
  // the dimensions; it arrives into a stack buffer, with the first
  // samples when the payload is longer.
  std::array<std::uint8_t, kFieldBytes + kMaxStringBytes + 12> buffer{};
  const auto prefix = std::span(buffer).first(
      std::min<std::size_t>(header.payload_bytes, buffer.size()));
  if (!receive(prefix)) return false;
  Reader in(prefix);
  Message message;
  img::ImageF& slot = read_fields(in, message);
  const Shape shape = read_shape(in);
  // Declared samples that do not fill the payload exactly are rejected
  // before anything is allocated for them.
  if (prefix.size() - in.remaining() + shape.bytes() != header.payload_bytes) {
    throw WireError("wire: image of " + std::to_string(shape.bytes()) +
                    " sample bytes disagrees with the payload size " +
                    std::to_string(header.payload_bytes));
  }
  img::ImageF image(shape.width, shape.height, shape.channels,
                    img::uninitialized);
  const std::span<std::uint8_t> samples(
      reinterpret_cast<std::uint8_t*>(image.samples().data()), shape.bytes());
  const std::size_t early = in.remaining();
  std::memcpy(samples.data(), in.bytes(early).data(), early);
  const std::span<std::uint8_t> rest = samples.subspan(early);
  if (!rest.empty() && !receive(rest)) return false;
  if (checksum(checksum(prefix), rest) != header.checksum) {
    throw WireError("wire: payload checksum mismatch");
  }
  if constexpr (std::endian::native == std::endian::big) {
    for (float& v : image.samples()) {
      v = std::bit_cast<float>(
          __builtin_bswap32(std::bit_cast<std::uint32_t>(v)));
    }
  }
  slot = std::move(image);
  out = std::move(message);
  return true;
}

template OutboundMessage encode_parts(const Request&);
template OutboundMessage encode_parts(const Response&);
template OutboundMessage encode_parts(const StreamFrame&);
template OutboundMessage encode_parts(const StreamResult&);
template bool receive_payload(const Header&, const Receive&, Request&);
template bool receive_payload(const Header&, const Receive&, Response&);
template bool receive_payload(const Header&, const Receive&, StreamFrame&);
template bool receive_payload(const Header&, const Receive&, StreamResult&);

std::array<std::uint8_t, kHeaderBytes> encode_header(const Header& header) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes);
  bytes.insert(bytes.end(), kMagic.begin(), kMagic.end());
  put_u16(bytes, header.version);
  put_u16(bytes, static_cast<std::uint16_t>(header.type));
  put_u32(bytes, header.payload_bytes);
  put_u32(bytes, header.checksum);
  std::array<std::uint8_t, kHeaderBytes> out{};
  std::memcpy(out.data(), bytes.data(), kHeaderBytes);
  return out;
}

Header decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kHeaderBytes) {
    throw WireError("wire: header must be " + std::to_string(kHeaderBytes) +
                    " bytes, got " + std::to_string(bytes.size()));
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (bytes[i] != kMagic[i]) throw WireError("wire: bad magic");
  }
  Reader in(bytes.subspan(kMagic.size()));
  Header header;
  header.version = in.u16();
  const std::uint16_t type = in.u16();
  header.payload_bytes = in.u32();
  header.checksum = in.u32();
  if (header.version != kVersion) {
    throw WireError("wire: unsupported protocol version " +
                    std::to_string(header.version));
  }
  if (type < static_cast<std::uint16_t>(MessageType::request) ||
      type > static_cast<std::uint16_t>(MessageType::stream_closed)) {
    throw WireError("wire: unknown message type " + std::to_string(type));
  }
  header.type = static_cast<MessageType>(type);
  if (header.payload_bytes > kMaxPayloadBytes) {
    throw WireError("wire: payload size " +
                    std::to_string(header.payload_bytes) +
                    " exceeds kMaxPayloadBytes");
  }
  return header;
}

void verify_checksum(const Header& header,
                     std::span<const std::uint8_t> payload) {
  if (payload.size() != header.payload_bytes) {
    throw WireError("wire: payload size mismatch (header declares " +
                    std::to_string(header.payload_bytes) + ", got " +
                    std::to_string(payload.size()) + ")");
  }
  if (checksum(payload) != header.checksum) {
    throw WireError("wire: payload checksum mismatch");
  }
}

std::vector<std::uint8_t> encode_request(const Request& request) {
  return encode_joined(request);
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  return encode_joined(response);
}

Response decode_response(std::span<const std::uint8_t> payload) {
  return decode_image_message<Response>(payload, "response");
}

std::vector<std::uint8_t> encode_error(const ErrorReply& reply) {
  // Clamp rather than reject: an over-long what() string must not turn an
  // error reply into a second failure.
  std::string text = reply.message;
  if (text.size() > kMaxStringBytes) text.resize(kMaxStringBytes);
  std::vector<std::uint8_t> message = begin_message(text.size());
  put_u64(message, reply.request_id);
  put_u8(message, code_of(reply.code));
  put_string(message, text);
  return seal(MessageType::error, std::move(message));
}

ErrorReply decode_error(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  ErrorReply reply;
  reply.request_id = in.u64();
  reply.code = error_code_of(in.u8());
  reply.message = in.string();
  in.expect_exhausted("error");
  return reply;
}

namespace {

std::uint8_t code_of(StreamStatus status) {
  switch (status) {
    case StreamStatus::closed: return 0;
    case StreamStatus::shed: return 1;
    case StreamStatus::failed: return 2;
  }
  throw WireError("wire: unencodable StreamStatus");
}

StreamStatus stream_status_of(std::uint8_t code) {
  switch (code) {
    case 0: return StreamStatus::closed;
    case 1: return StreamStatus::shed;
    case 2: return StreamStatus::failed;
  }
  throw WireError("wire: unknown StreamStatus code " +
                  std::to_string(code));
}

/// Shared bounds of the client-controllable StreamConfig fields —
/// encoders refuse what decoders would reject, so a conforming client
/// cannot emit a message a conforming server drops the connection for.
void check_stream_config(const stream::StreamConfig& config) {
  if (!std::isfinite(config.frame_interval_seconds) ||
      config.frame_interval_seconds <= 0.0 ||
      config.frame_interval_seconds > 3600.0) {
    throw WireError("wire: stream frame_interval_seconds must be in "
                    "(0, 3600]");
  }
  if (!std::isfinite(config.adaptation_rate) ||
      config.adaptation_rate <= 0.0 || config.adaptation_rate > 1.0) {
    throw WireError("wire: stream adaptation_rate must be in (0, 1]");
  }
  if (config.width < 1 || config.width > kMaxDimension ||
      config.height < 1 || config.height > kMaxDimension) {
    throw WireError("wire: stream geometry outside [1, kMaxDimension]");
  }
  if (config.reorder_window < 0 ||
      config.reorder_window > stream::kMaxReorderWindow) {
    throw WireError("wire: stream reorder_window outside [0, " +
                    std::to_string(stream::kMaxReorderWindow) + "]");
  }
  if (config.credits < 1 || config.credits > stream::kMaxStreamCredits) {
    throw WireError("wire: stream credits outside [1, " +
                    std::to_string(stream::kMaxStreamCredits) + "]");
  }
}

} // namespace

std::vector<std::uint8_t> encode_stream_open(const StreamOpen& open) {
  check_stream_config(open.config);
  std::vector<std::uint8_t> message =
      begin_message(open.config.pipeline.backend.size());
  put_u64(message, open.stream_id);
  put_u8(message, code_of(open.config.qos));
  put_f64(message, open.config.frame_interval_seconds);
  put_f64(message, open.config.adaptation_rate);
  put_u32(message, static_cast<std::uint32_t>(open.config.width));
  put_u32(message, static_cast<std::uint32_t>(open.config.height));
  put_u32(message, static_cast<std::uint32_t>(open.config.reorder_window));
  put_u32(message, static_cast<std::uint32_t>(open.config.credits));
  put_options(message, open.config.pipeline);
  return seal(MessageType::stream_open, std::move(message));
}

StreamOpen decode_stream_open(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  StreamOpen open;
  open.stream_id = in.u64();
  open.config.qos = qos_of(in.u8());
  open.config.frame_interval_seconds = in.f64();
  open.config.adaptation_rate = in.f64();
  open.config.width = static_cast<int>(in.u32());
  open.config.height = static_cast<int>(in.u32());
  open.config.reorder_window = static_cast<int>(in.u32());
  open.config.credits = static_cast<int>(in.u32());
  check_stream_config(open.config);
  open.config.pipeline = read_options(in);
  in.expect_exhausted("stream_open");
  return open;
}

std::vector<std::uint8_t> encode_stream_opened(const StreamOpened& opened) {
  std::vector<std::uint8_t> message = begin_message();
  put_u64(message, opened.stream_id);
  put_u32(message, opened.credits);
  return seal(MessageType::stream_opened, std::move(message));
}

StreamOpened decode_stream_opened(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  StreamOpened opened;
  opened.stream_id = in.u64();
  opened.credits = in.u32();
  if (opened.credits < 1 ||
      opened.credits >
          static_cast<std::uint32_t>(stream::kMaxStreamCredits)) {
    throw WireError("wire: stream_opened credits outside [1, " +
                    std::to_string(stream::kMaxStreamCredits) + "]");
  }
  in.expect_exhausted("stream_opened");
  return opened;
}

std::vector<std::uint8_t> encode_stream_frame(const StreamFrame& frame) {
  return encode_joined(frame);
}

StreamResult decode_stream_result(std::span<const std::uint8_t> payload) {
  return decode_image_message<StreamResult>(payload, "stream_result");
}

std::vector<std::uint8_t> encode_stream_credit(const StreamCredit& credit) {
  // Same range the decoder enforces: a correct peer never emits a grant
  // outside the flow-control window bounds.
  if (credit.credits < 1 ||
      credit.credits >
          static_cast<std::uint32_t>(stream::kMaxStreamCredits)) {
    throw WireError("wire: stream_credit credits outside [1, " +
                    std::to_string(stream::kMaxStreamCredits) + "]");
  }
  std::vector<std::uint8_t> message = begin_message();
  put_u64(message, credit.stream_id);
  put_u32(message, credit.credits);
  return seal(MessageType::stream_credit, std::move(message));
}

StreamCredit decode_stream_credit(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  StreamCredit credit;
  credit.stream_id = in.u64();
  credit.credits = in.u32();
  if (credit.credits < 1 ||
      credit.credits >
          static_cast<std::uint32_t>(stream::kMaxStreamCredits)) {
    throw WireError("wire: stream_credit credits outside [1, " +
                    std::to_string(stream::kMaxStreamCredits) + "]");
  }
  in.expect_exhausted("stream_credit");
  return credit;
}

std::vector<std::uint8_t> encode_stream_close(const StreamClose& close) {
  std::vector<std::uint8_t> message = begin_message();
  put_u64(message, close.stream_id);
  return seal(MessageType::stream_close, std::move(message));
}

StreamClose decode_stream_close(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  StreamClose close;
  close.stream_id = in.u64();
  in.expect_exhausted("stream_close");
  return close;
}

std::vector<std::uint8_t> encode_stream_closed(const StreamClosed& closed) {
  // Clamp rather than reject, like encode_error: a long failure message
  // must not turn the stream's terminal message into a second failure.
  std::string text = closed.message;
  if (text.size() > kMaxStringBytes) text.resize(kMaxStringBytes);
  std::vector<std::uint8_t> message = begin_message(text.size());
  put_u64(message, closed.stream_id);
  put_u8(message, code_of(closed.status));
  put_u64(message, closed.frames_delivered);
  put_u64(message, closed.frames_shed);
  put_u64(message, closed.frames_expired);
  put_u32(message, closed.rung_switches);
  put_string(message, text);
  return seal(MessageType::stream_closed, std::move(message));
}

StreamClosed decode_stream_closed(std::span<const std::uint8_t> payload) {
  Reader in(payload);
  StreamClosed closed;
  closed.stream_id = in.u64();
  closed.status = stream_status_of(in.u8());
  closed.frames_delivered = in.u64();
  closed.frames_shed = in.u64();
  closed.frames_expired = in.u64();
  closed.rung_switches = in.u32();
  closed.message = in.string();
  in.expect_exhausted("stream_closed");
  return closed;
}

} // namespace tmhls::transport::wire
