#include "transport/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstring>
#include <optional>
#include <type_traits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TMHLS_CRC32C_X86 1
#endif

#include "fixed/fixed_format.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::transport::wire {

namespace {

// --- enum codes ------------------------------------------------------------
// Each enum has one table: a value's wire code is its index there,
// independent of the in-memory enum values, so a reordering refactor on one
// endpoint cannot silently change the protocol.

template <typename E, std::size_t N>
struct CodeTable {
  const char* name;
  std::array<E, N> values;
};

constexpr auto codes(tonemap::Datapath) {
  // Code 0 was from_blur_kind in protocol version 3; unspecified is its v4
  // successor with the same "follow the backend" meaning.
  return CodeTable{"Datapath",
                   std::array{tonemap::Datapath::unspecified,
                              tonemap::Datapath::float32,
                              tonemap::Datapath::fixed_point}};
}

constexpr auto codes(serve::QosClass) {
  return CodeTable{"QosClass",
                   std::array{serve::QosClass::best_effort,
                              serve::QosClass::standard,
                              serve::QosClass::critical}};
}

constexpr auto codes(serve::DegradeLevel) {
  return CodeTable{"DegradeLevel",
                   std::array{serve::DegradeLevel::none,
                              serve::DegradeLevel::reduced_blur,
                              serve::DegradeLevel::global_operator}};
}

constexpr auto codes(ErrorCode) {
  return CodeTable{"ErrorCode",
                   std::array{ErrorCode::generic, ErrorCode::invalid_argument,
                              ErrorCode::overloaded,
                              ErrorCode::deadline_exceeded}};
}

constexpr auto codes(StreamStatus) {
  return CodeTable{"StreamStatus",
                   std::array{StreamStatus::closed, StreamStatus::shed,
                              StreamStatus::failed}};
}

constexpr auto codes(fixed::Round) {
  return CodeTable{"Round",
                   std::array{fixed::Round::truncate, fixed::Round::toward_zero,
                              fixed::Round::half_up, fixed::Round::half_even}};
}

constexpr auto codes(fixed::Overflow) {
  return CodeTable{"Overflow", std::array{fixed::Overflow::saturate,
                                          fixed::Overflow::wrap}};
}

template <typename E>
std::uint8_t code_of(E value) {
  constexpr auto table = codes(E{});
  const auto it = std::find(table.values.begin(), table.values.end(), value);
  if (it == table.values.end()) {
    throw WireError(std::string("wire: unencodable ") + table.name);
  }
  return static_cast<std::uint8_t>(it - table.values.begin());
}

template <typename E>
E enum_of(std::uint8_t code) {
  constexpr auto table = codes(E{});
  if (code >= table.values.size()) {
    throw WireError(std::string("wire: unknown ") + table.name + " code " +
                    std::to_string(code));
  }
  return table.values[code];
}

// --- codecs ----------------------------------------------------------------
// A message's layout is one field list (fields(), below), walked by two
// codecs: Writer appends each field to an encoded message, Reader fills
// each field from a received payload. Both assemble little-endian bytes
// explicitly, so the on-wire order is fixed whatever the host's endianness.
// The list states each field's bounds with check(), which a Writer fails
// as InvalidArgument (the caller's message is malformed) and a Reader as
// WireError; values live in locals where the wire form differs from the
// in-memory one, and set() stores them back when decoding.

/// The dimensions at the head of an image field.
struct Shape {
  int width = 0;
  int height = 0;
  int channels = 0;
  std::size_t bytes() const {
    return std::size_t{4} * static_cast<std::size_t>(width) *
           static_cast<std::size_t>(height) *
           static_cast<std::size_t>(channels);
  }
};

class Writer {
public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename T> void u8(T v) { put(v, 1); }
  template <typename T> void u16(T v) { put(v, 2); }
  template <typename T> void u32(T v) { put(v, 4); }
  template <typename T> void u64(T v) { put(v, 8); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  template <typename E> void code(E v) { u8(code_of(v)); }

  void chars(const std::string& s, std::size_t n) {
    out_.insert(out_.end(), s.begin(),
                s.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// An image's samples: on a little-endian host the plane's memory already
  /// is the wire's run of little-endian f32 words, so they are sent from
  /// where they lie, as the message's second piece.
  void samples(const img::ImageF& image, const Shape&) {
    if constexpr (std::endian::native == std::endian::little) {
      samples_ = {reinterpret_cast<const std::uint8_t*>(image.samples().data()),
                  image.sample_count() * 4};
    } else {
      for (float v : image.samples()) f32(v);
    }
  }

  static void check(bool ok, const char* what) { TMHLS_REQUIRE(ok, what); }
  template <typename T, typename V> static void set(const T&, V&&) {}

  std::span<const std::uint8_t> sample_piece() const { return samples_; }

private:
  template <typename T> void put(T v, int bytes) {
    const auto bits = static_cast<std::uint64_t>(v);
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
  std::span<const std::uint8_t> samples_;
};

/// Bounded cursor over the first bytes of a payload — all of it, or the
/// prefix of an image message whose last samples are still to arrive.
/// Every read checks the remaining length and throws WireError naming the
/// underrun: decoders never walk past the declared payload.
class Reader {
public:
  Reader(std::span<const std::uint8_t> bytes, std::size_t payload_bytes)
      : bytes_(bytes), payload_bytes_(payload_bytes) {}

  template <typename T> void u8(T& v) { v = static_cast<T>(get(1)); }
  template <typename T> void u16(T& v) { v = static_cast<T>(get(2)); }
  template <typename T> void u32(T& v) { v = static_cast<T>(get(4)); }
  template <typename T> void u64(T& v) { v = static_cast<T>(get(8)); }
  void f32(float& v) {
    v = std::bit_cast<float>(static_cast<std::uint32_t>(get(4)));
  }
  void f64(double& v) { v = std::bit_cast<double>(get(8)); }
  template <typename E> void code(E& v) {
    v = enum_of<E>(static_cast<std::uint8_t>(get(1)));
  }

  void chars(std::string& s, std::size_t n) {
    const auto b = take(n);
    s.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// An image's samples, the payload's last bytes. Samples that do not
  /// fill the payload exactly are rejected before anything is allocated
  /// for them — an attacker-controlled header must never turn into an
  /// attacker-sized allocation. Then an unwritten plane is acquired (on a
  /// pooled thread a retained one), the samples at hand are copied into it,
  /// and rest() is the part still to be received.
  void samples(img::ImageF& image, const Shape& shape) {
    if (offset_ + shape.bytes() != payload_bytes_) {
      throw WireError("wire: image of " + std::to_string(shape.bytes()) +
                      " sample bytes disagrees with the payload size " +
                      std::to_string(payload_bytes_));
    }
    image = img::ImageF(shape.width, shape.height, shape.channels,
                        img::uninitialized);
    image_ = &image;
    const std::span<std::uint8_t> plane(
        reinterpret_cast<std::uint8_t*>(image.samples().data()),
        shape.bytes());
    const std::size_t early = remaining();
    std::memcpy(plane.data(), take(early).data(), early);
    rest_ = plane.subspan(early);
  }

  static void check(bool ok, const char* what) {
    if (!ok) throw WireError(what);
  }
  template <typename T, typename V> static void set(T& target, V&& value) {
    target = std::forward<V>(value);
  }

  std::span<std::uint8_t> rest() const { return rest_; }

  /// Throws unless the bytes were consumed exactly — trailing bytes mean
  /// the two endpoints disagree about the format.
  void expect_exhausted() const {
    if (remaining() != 0) {
      throw WireError("wire: payload has " + std::to_string(remaining()) +
                      " trailing byte(s)");
    }
  }

  /// Once every sample has arrived: the image's little-endian words in
  /// host order.
  void samples_to_host_order() const {
    if constexpr (std::endian::native == std::endian::big) {
      if (image_ == nullptr) return;
      for (float& v : image_->samples()) {
        v = std::bit_cast<float>(
            __builtin_bswap32(std::bit_cast<std::uint32_t>(v)));
      }
    }
  }

private:
  std::size_t remaining() const { return bytes_.size() - offset_; }

  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw WireError("wire: payload truncated (need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()) + ")");
    }
    const auto view = bytes_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  std::uint64_t get(std::size_t n) {
    const auto b = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t payload_bytes_;
  std::size_t offset_ = 0;
  img::ImageF* image_ = nullptr;
  std::span<std::uint8_t> rest_;
};

/// A bound both codecs enforce as WireError, the stream bounds' error on
/// either side since v3: a conforming client cannot emit a message a
/// conforming server drops the connection for.
void wire_check(bool ok, const char* what) {
  if (!ok) throw WireError(what);
}

bool valid_credits(std::int64_t credits) {
  return credits >= 1 && credits <= stream::kMaxStreamCredits;
}

// --- composite fields ------------------------------------------------------

/// A length-prefixed string of at most kMaxStringBytes. A `clamped` one is
/// cut to the bound on encode rather than refused: an over-long what() must
/// not turn an error reply or a stream's terminal message into a second
/// failure.
template <typename Codec, typename String>
void string(Codec& c, String& s, bool clamped = false) {
  std::size_t n = clamped ? std::min<std::size_t>(s.size(), kMaxStringBytes)
                          : s.size();
  c.u32(n);
  c.check(n <= kMaxStringBytes, "wire: string field exceeds kMaxStringBytes");
  c.chars(s, n);
}

/// [width][height][channels][samples]: every image message ends in one.
template <typename Codec, typename Image>
void image(Codec& c, Image& image) {
  Shape shape{image.width(), image.height(), image.channels()};
  c.u32(shape.width);
  c.u32(shape.height);
  c.u32(shape.channels);
  c.check(shape.width >= 1 && shape.width <= kMaxDimension &&
              shape.height >= 1 && shape.height <= kMaxDimension,
          "wire: image dimensions outside [1, kMaxDimension]");
  c.check(shape.channels >= 1 && shape.channels <= 4,
          "wire: image channels outside [1, 4]");
  c.samples(image, shape);
}

/// "No deadline" travels as an explicit flag byte (v3): the f64 that
/// follows is only meaningful when the flag is 1, and must be all zero bits
/// otherwise (-0.0 included), so every request has exactly one encoding.
/// The deadline is relative (seconds from server-side admission), so no
/// clock synchronisation is assumed — but hostile bit patterns (NaN,
/// infinities, negatives) are a protocol violation, not an execution error.
template <typename Codec, typename Deadline>
void deadline(Codec& c, Deadline& deadline) {
  std::uint8_t flag = deadline.has_value() ? 1 : 0;
  double seconds = deadline.value_or(0.0);
  c.u8(flag);
  c.f64(seconds);
  c.check(flag == 1 ? std::isfinite(seconds) && seconds >= 0.0
                    : flag == 0 && std::bit_cast<std::uint64_t>(seconds) == 0,
          "wire: deadline_seconds must be finite and >= 0, or absent "
          "(flag 0, value 0)");
  c.set(deadline, flag == 1 ? std::optional(seconds) : std::nullopt);
}

template <typename Codec, typename Format>
void fixed_format(Codec& c, Format& format) {
  int width = format.width();
  int int_bits = format.int_bits();
  fixed::Round round = format.round();
  fixed::Overflow overflow = format.overflow();
  c.u8(width);
  c.u8(int_bits);
  c.code(round);
  c.code(overflow);
  // Checked here so a hostile width surfaces as WireError, not as the
  // constructor's InvalidArgument (which servers treat as an execution
  // error instead of a protocol violation).
  c.check(width >= 1 && width <= 32 && int_bits >= 1 && int_bits <= width,
          "wire: invalid fixed-point format");
  c.set(format, fixed::FixedFormat(width, int_bits, round, overflow));
}

/// Signed fields (radius, threads, shard) travel as the u32 of their two's
/// complement bits.
template <typename Codec, typename Options>
void options(Codec& c, Options& opt) {
  c.f64(opt.sigma);
  c.u32(opt.radius);
  string(c, opt.backend);
  c.code(opt.datapath);
  c.u32(opt.threads);
  fixed_format(c, opt.fixed.data);
  fixed_format(c, opt.fixed.accumulator);
  c.f32(opt.display_gamma);
  c.f32(opt.normalization_scale);
  c.f32(opt.brightness);
  c.f32(opt.contrast);
}

// --- field lists -----------------------------------------------------------
// One per message, its fields in wire order. Each takes the message const
// (to encode) or not (to decode).

template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

template <typename Codec>
void fields(Codec& c, Is<Request> auto& m) {
  c.u64(m.request_id);
  c.code(m.job.qos);
  deadline(c, m.job.deadline_seconds);
  options(c, m.job.options);
  image(c, m.job.frame);
}

template <typename Codec>
void fields(Codec& c, Is<Response> auto& m) {
  c.u64(m.request_id);
  c.u64(m.result.job_id);
  c.u32(m.result.shard);
  c.code(m.result.degrade);
  string(c, m.result.backend);
  c.f64(m.result.queue_seconds);
  c.f64(m.result.service_seconds);
  image(c, m.result.output);
}

template <typename Codec>
void fields(Codec& c, Is<ErrorReply> auto& m) {
  c.u64(m.request_id);
  c.code(m.code);
  string(c, m.message, /*clamped=*/true);
}

template <typename Codec>
void fields(Codec& c, Is<StreamOpen> auto& m) {
  auto& config = m.config;
  c.u64(m.stream_id);
  c.code(config.qos);
  c.f64(config.frame_interval_seconds);
  c.f64(config.adaptation_rate);
  c.u32(config.width);
  c.u32(config.height);
  c.u32(config.reorder_window);
  c.u32(config.credits);
  wire_check(std::isfinite(config.frame_interval_seconds) &&
                 config.frame_interval_seconds > 0.0 &&
                 config.frame_interval_seconds <= 3600.0,
             "wire: stream frame_interval_seconds must be in (0, 3600]");
  wire_check(std::isfinite(config.adaptation_rate) &&
                 config.adaptation_rate > 0.0 && config.adaptation_rate <= 1.0,
             "wire: stream adaptation_rate must be in (0, 1]");
  wire_check(config.width >= 1 && config.width <= kMaxDimension &&
                 config.height >= 1 && config.height <= kMaxDimension,
             "wire: stream geometry outside [1, kMaxDimension]");
  wire_check(config.reorder_window >= 0 &&
                 config.reorder_window <= stream::kMaxReorderWindow,
             "wire: stream reorder_window outside [0, kMaxReorderWindow]");
  wire_check(valid_credits(config.credits),
             "wire: stream credits outside [1, kMaxStreamCredits]");
  options(c, config.pipeline);
}

template <typename Codec>
void fields(Codec& c, Is<StreamOpened> auto& m) {
  c.u64(m.stream_id);
  c.u32(m.credits);
  wire_check(valid_credits(m.credits),
             "wire: stream_opened credits outside [1, kMaxStreamCredits]");
}

template <typename Codec>
void fields(Codec& c, Is<StreamFrame> auto& m) {
  c.u64(m.stream_id);
  c.u64(m.sequence);
  image(c, m.frame);
}

template <typename Codec>
void fields(Codec& c, Is<StreamResult> auto& m) {
  c.u64(m.stream_id);
  c.u64(m.sequence);
  c.code(m.rung);
  string(c, m.backend);
  c.f64(m.service_seconds);
  image(c, m.output);
}

template <typename Codec>
void fields(Codec& c, Is<StreamCredit> auto& m) {
  c.u64(m.stream_id);
  c.u32(m.credits);
  wire_check(valid_credits(m.credits),
             "wire: stream_credit credits outside [1, kMaxStreamCredits]");
}

template <typename Codec>
void fields(Codec& c, Is<StreamClose> auto& m) {
  c.u64(m.stream_id);
}

template <typename Codec>
void fields(Codec& c, Is<StreamClosed> auto& m) {
  c.u64(m.stream_id);
  c.code(m.status);
  c.u64(m.frames_delivered);
  c.u64(m.frames_shed);
  c.u64(m.frames_expired);
  c.u32(m.rung_switches);
  string(c, m.message, /*clamped=*/true);
}

template <typename M> constexpr MessageType kType{};
template <> constexpr MessageType kType<Request> = MessageType::request;
template <> constexpr MessageType kType<Response> = MessageType::response;
template <> constexpr MessageType kType<ErrorReply> = MessageType::error;
template <> constexpr MessageType kType<StreamOpen> = MessageType::stream_open;
template <>
constexpr MessageType kType<StreamFrame> = MessageType::stream_frame;
template <>
constexpr MessageType kType<StreamClose> = MessageType::stream_close;
template <>
constexpr MessageType kType<StreamOpened> = MessageType::stream_opened;
template <>
constexpr MessageType kType<StreamResult> = MessageType::stream_result;
template <>
constexpr MessageType kType<StreamCredit> = MessageType::stream_credit;
template <>
constexpr MessageType kType<StreamClosed> = MessageType::stream_closed;

constexpr bool carries_image(MessageType type) {
  return type == MessageType::request || type == MessageType::response ||
         type == MessageType::stream_frame ||
         type == MessageType::stream_result;
}

/// Upper bound on what a payload spends outside its string and image
/// fields: ids, enum codes, numbers, option fields and length prefixes.
constexpr std::size_t kFieldBytes = 128;

/// Everything before an image's samples is at most the fields, one string
/// and the dimensions; a message without an image is never longer.
constexpr std::size_t kPrefixBytes = kFieldBytes + kMaxStringBytes + 12;

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

std::vector<std::uint8_t> OutboundMessage::bytes() const {
  std::vector<std::uint8_t> all;
  all.reserve(head.size() + samples.size());
  all.insert(all.end(), head.begin(), head.end());
  all.insert(all.end(), samples.begin(), samples.end());
  return all;
}

template <typename Message>
OutboundMessage encode(const Message& message) {
  OutboundMessage out;
  // kHeaderBytes of placeholder, filled last, and capacity for the fields.
  out.head.reserve(kHeaderBytes + kFieldBytes);
  out.head.resize(kHeaderBytes);
  Writer writer(out.head);
  fields(writer, message);
  out.samples = writer.sample_piece();
  const auto payload =
      std::span<const std::uint8_t>(out.head).subspan(kHeaderBytes);
  TMHLS_REQUIRE(payload.size() + out.samples.size() <= kMaxPayloadBytes,
                "wire: payload exceeds kMaxPayloadBytes");
  Header header;
  header.type = kType<Message>;
  header.payload_bytes =
      static_cast<std::uint32_t>(payload.size() + out.samples.size());
  header.checksum = checksum(checksum(payload), out.samples);
  const auto head = encode_header(header);
  std::copy(head.begin(), head.end(), out.head.begin());
  return out;
}

template <typename Message>
Message decode(std::span<const std::uint8_t> payload) {
  Reader in(payload, payload.size());
  Message message;
  fields(in, message);
  in.expect_exhausted();
  in.samples_to_host_order();
  return message;
}

template <typename Message>
bool receive_payload(const Header& header, const Receive& receive,
                     Message& out) {
  std::array<std::uint8_t, kPrefixBytes> buffer{};
  if (!carries_image(kType<Message>) && header.payload_bytes > buffer.size()) {
    throw WireError("wire: " + std::to_string(header.payload_bytes) +
                    "-byte payload declared for a message without an image");
  }
  const auto prefix = std::span(buffer).first(
      std::min<std::size_t>(header.payload_bytes, buffer.size()));
  if (!receive(prefix)) return false;
  Reader in(prefix, header.payload_bytes);
  Message message;
  fields(in, message);
  in.expect_exhausted();
  const std::span<std::uint8_t> rest = in.rest();
  if (!rest.empty() && !receive(rest)) return false;
  if (checksum(checksum(prefix), rest) != header.checksum) {
    throw WireError("wire: payload checksum mismatch");
  }
  in.samples_to_host_order();
  out = std::move(message);
  return true;
}

#define TMHLS_WIRE_MESSAGE(M)                                              \
  template OutboundMessage encode(const M&);                               \
  template M decode<M>(std::span<const std::uint8_t>);                     \
  template bool receive_payload(const Header&, const Receive&, M&);
TMHLS_WIRE_MESSAGE(Request)
TMHLS_WIRE_MESSAGE(Response)
TMHLS_WIRE_MESSAGE(ErrorReply)
TMHLS_WIRE_MESSAGE(StreamOpen)
TMHLS_WIRE_MESSAGE(StreamFrame)
TMHLS_WIRE_MESSAGE(StreamClose)
TMHLS_WIRE_MESSAGE(StreamOpened)
TMHLS_WIRE_MESSAGE(StreamResult)
TMHLS_WIRE_MESSAGE(StreamCredit)
TMHLS_WIRE_MESSAGE(StreamClosed)
#undef TMHLS_WIRE_MESSAGE

std::array<std::uint8_t, kHeaderBytes> encode_header(const Header& header) {
  std::vector<std::uint8_t> bytes(kMagic.begin(), kMagic.end());
  Writer out(bytes);
  out.u16(header.version);
  out.u16(static_cast<std::uint16_t>(header.type));
  out.u32(header.payload_bytes);
  out.u32(header.checksum);
  std::array<std::uint8_t, kHeaderBytes> head{};
  std::memcpy(head.data(), bytes.data(), kHeaderBytes);
  return head;
}

Header decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kHeaderBytes) {
    throw WireError("wire: header must be " + std::to_string(kHeaderBytes) +
                    " bytes, got " + std::to_string(bytes.size()));
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (bytes[i] != kMagic[i]) throw WireError("wire: bad magic");
  }
  const auto rest = bytes.subspan(kMagic.size());
  Reader in(rest, rest.size());
  Header header;
  std::uint16_t type = 0;
  in.u16(header.version);
  in.u16(type);
  in.u32(header.payload_bytes);
  in.u32(header.checksum);
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

} // namespace tmhls::transport::wire
